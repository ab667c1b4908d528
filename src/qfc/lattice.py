"""Exact lattice reduction and short-vector enumeration on Gram matrices.

A lattice is given by the Gram matrix of a basis: a symmetric positive
definite matrix of integers, as a list of rows.  `lll_gram` is the integral
LLL algorithm (Cohen, A Course in Computational Algebraic Number Theory,
Alg. 2.6.7; Lenstra, Lenstra & Lovasz, Math. Ann. 261, 1982), which keeps
the Gram-Schmidt data d (leading minors) and lam (d times the Gram-Schmidt
coefficients) as integers and updates them at each step.  `short_vectors`
is the Fincke-Pohst enumeration (Cohen section 2.7.3; Fincke & Pohst, Math.
Comp. 44, 1985) on the same integral data, and `hnf` reduces integer
generators of a lattice to a basis.  Everything is integer arithmetic: no
fractions, no floating point and no square root.
"""


def _gram_schmidt_row(a, d, lam, k):
    """Set lam[k][j] for j < k and d[k + 1] from row k of the Gram matrix a
    and the data of the rows before it (Cohen Alg. 2.6.7, step 2)."""
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
            kmax = k
            _gram_schmidt_row(a, d, lam, k)
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


def _outward(step, shift, weight, budget):
    """The integers x with weight * (step*x + shift)^2 <= budget, for
    step > 0, nearest to the centre -shift/step first (the lower one on a
    tie), each with budget - weight * (step*x + shift)^2."""
    lo = -shift // step
    hi = lo + 1
    lo_rest = budget - weight * (step * lo + shift) ** 2
    hi_rest = budget - weight * (step * hi + shift) ** 2
    while lo_rest >= 0 or hi_rest >= 0:
        if lo_rest >= hi_rest:
            yield lo, lo_rest
            lo -= 1
            lo_rest = budget - weight * (step * lo + shift) ** 2
        else:
            yield hi, hi_rest
            hi += 1
            hi_rest = budget - weight * (step * hi + shift) ** 2


def short_vectors(gram, bound):
    """Every nonzero integer vector x with x^T gram x <= bound, for an
    integer bound, as pairs (x, x^T gram x).

    Fincke-Pohst on the integral Gram-Schmidt data: with y_i = x_i +
    sum_{k>i} mu[k][i] x_k, the form is sum_i B_i y_i^2 and B_i y_i^2 =
    (d[i+1] x_i + S_i)^2 / (d[i] d[i+1]) with S_i = sum_{k>i} lam[k][i] x_k.
    Scaled by P = prod_i d[i] d[i+1], every term and every budget is an
    integer.  The last coordinate is fixed first, and each coordinate walks
    outward from the centre -S_i / d[i+1] while its term fits the budget
    the later ones leave.  The walk is short when gram is reduced.
    """
    n = len(gram)
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]
    for k in range(n):
        _gram_schmidt_row(gram, d, lam, k)
    scale = 1
    for i in range(n):
        scale *= d[i] * d[i + 1]
    weight = [scale // (d[i] * d[i + 1]) for i in range(n)]
    x = [0] * n

    def walk(i, budget):
        shift = sum(lam[k][i] * x[k] for k in range(i + 1, n))
        for xi, rest in _outward(d[i + 1], shift, weight[i], budget):
            x[i] = xi
            if i:
                yield from walk(i - 1, rest)
            elif any(x):
                yield tuple(x), bound - rest // scale

    yield from walk(n - 1, bound * scale)


def hnf(rows):
    """The Hermite normal form of the lattice the integer rows span: an
    upper triangular basis with positive pivots and each entry above a
    pivot reduced into [0, pivot).  ValueError unless the rows have full
    rank in their length.
    """
    n = len(rows[0])
    rows = [list(r) for r in rows]
    basis = []
    for col in range(n):
        # Euclid on the rows, by their entries in this column
        live = [r for r in rows if r[col]]
        rows = [r for r in rows if not r[col]]
        while len(live) > 1:
            pivot = min(live, key=lambda r: abs(r[col]))
            rest = []
            for r in live:
                if r is not pivot:
                    q = r[col] // pivot[col]
                    r = [u - q * v for u, v in zip(r, pivot)]
                    (rest if r[col] else rows).append(r)
            live = rest + [pivot]
        if not live:
            raise ValueError("the rows do not have full rank")
        pivot = live[0]
        if pivot[col] < 0:
            pivot = [-v for v in pivot]
        for r in basis:
            q = r[col] // pivot[col]
            r[:] = [u - q * v for u, v in zip(r, pivot)]
        basis.append(pivot)
    return basis
