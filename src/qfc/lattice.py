"""Exact lattice reduction and short-vector enumeration on Gram matrices.

A lattice is given by the Gram matrix of a basis: a symmetric positive
definite matrix of integers, as a list of rows.  `lll_gram` is the integral
LLL algorithm (Cohen, A Course in Computational Algebraic Number Theory,
Alg. 2.6.7; Lenstra, Lenstra & Lovasz, Math. Ann. 261, 1982), which keeps
the Gram-Schmidt data as integers and updates it at each step.
`short_vectors` is the Fincke-Pohst enumeration on the LDL^T form (Cohen
section 2.7.3; Fincke & Pohst, Math. Comp. 44, 1985).  Everything is
integer or Fraction arithmetic: no floating point and no square root.
"""

from fractions import Fraction
from math import floor


def lll_gram(gram):
    """(reduced, h): an LLL-reduced Gram matrix (delta = 3/4) and the
    unimodular integer matrix h with reduced = h^T gram h.

    d[i] is the determinant of the leading i x i block of the current Gram
    matrix and lam[k][j] = d[j+1] * mu[k][j], for j < k; both are integers.
    A size reduction and a swap update them in place.
    """
    n = len(gram)
    a = [list(row) for row in gram]  # the Gram matrix of the current basis
    h = [[int(i == j) for j in range(n)] for i in range(n)]
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]

    def reduce(k, l):
        # b_k -= q b_l with q the integer nearest mu[k][l]
        if 2 * abs(lam[k][l]) <= d[l + 1]:
            return
        q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
        for row in h:
            row[k] -= q * row[l]
        for i in range(n):
            a[k][i] -= q * a[l][i]
        for i in range(n):
            a[i][k] = a[k][i]
        a[k][k] -= q * a[k][l]
        lam[k][l] -= q * d[l + 1]
        for i in range(l):
            lam[k][i] -= q * lam[l][i]

    def swap(k, kmax):
        for row in (*h, *a):
            row[k], row[k - 1] = row[k - 1], row[k]
        a[k], a[k - 1] = a[k - 1], a[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        m = lam[k][k - 1]
        b = (d[k - 1] * d[k + 1] + m * m) // d[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - m * t) // d[k]
            lam[i][k - 1] = (b * t + m * lam[i][k]) // d[k + 1]
        d[k] = b

    k, kmax = 0, -1
    while k < n:
        if k > kmax:
            # incremental Gram-Schmidt for the new vector b_k
            kmax = k
            for j in range(k + 1):
                u = a[k][j]
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
                elif u <= 0:
                    raise ValueError("Gram matrix is not positive definite")
                else:
                    d[k + 1] = u
        if k == 0:
            k = 1
            continue
        reduce(k, k - 1)
        # Lovasz condition B_k >= (3/4 - mu^2) B_{k-1}, times 4 d[k]^2
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] * d[k] - 4 * lam[k][k - 1] ** 2:
            swap(k, kmax)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1
    return a, h


def _ldl(gram):
    """Coefficients q with x^T gram x = sum_i q[i][i] (x_i + sum_{j>i}
    q[i][j] x_j)^2 (Cohen Alg. 2.7.6)."""
    n = len(gram)
    q = [[Fraction(v) for v in row] for row in gram]
    for i in range(n):
        if q[i][i] <= 0:
            raise ValueError("Gram matrix is not positive definite")
        for j in range(i + 1, n):
            q[j][i] = q[i][j]
            q[i][j] = q[i][j] / q[i][i]
        for k in range(i + 1, n):
            for l in range(k, n):
                q[k][l] -= q[k][i] * q[i][l]
    return q


def _outward(centre, diag, budget):
    """The integers x with diag * (x - centre)^2 <= budget, nearest to
    centre first, each with budget - diag * (x - centre)^2."""
    lo = floor(centre)
    hi = lo + 1
    lo_rest = budget - diag * (lo - centre) ** 2
    hi_rest = budget - diag * (hi - centre) ** 2
    while lo_rest >= 0 or hi_rest >= 0:
        if lo_rest >= hi_rest:
            yield lo, lo_rest
            lo -= 1
            lo_rest = budget - diag * (lo - centre) ** 2
        else:
            yield hi, hi_rest
            hi += 1
            hi_rest = budget - diag * (hi - centre) ** 2


def short_vectors(gram, bound):
    """Every nonzero integer vector x with x^T gram x <= bound, as pairs
    (x, x^T gram x).

    Fincke-Pohst: the last coordinate is fixed first, and each coordinate
    walks outward from the centre the later ones give it while its term
    fits the budget they leave.  The walk is short when gram is reduced.
    """
    q = _ldl(gram)
    n = len(q)
    x = [0] * n

    def walk(i, budget):
        centre = -sum(q[i][j] * x[j] for j in range(i + 1, n))
        for xi, rest in _outward(centre, q[i][i], budget):
            x[i] = xi
            if i:
                yield from walk(i - 1, rest)
            elif any(x):
                yield tuple(x), bound - rest

    yield from walk(n - 1, Fraction(bound))
