"""The integer core: binary quadratic forms over Z, units and factoring.

It acts on ints and coefficient triples (a, b, c) only and imports only
`errors`, so `base_field` and `forms` both build on it.  A real quadratic
unit is returned as (X, Y, norm) with unit = (X + Y*sqrt(D))/2 > 1 and
norm = (X^2 - D*Y^2)/4 in {-1, +1}.  The rho-cycle of the reduced
principal form is the continued fraction of its root, and the matrix of
one walk round it is the fundamental automorph (Buchmann & Vollmer, ch. 6;
Cohen, GTM 138, 5.3-5.7).
"""

from itertools import count
from math import gcd, isqrt

from .errors import DiscriminantMismatch, DomainError, SquareInput, WrongBase


def _is_reduced(form, d, s):
    """d < 0: -|a| < b <= |a| <= |c|, and b >= 0 if a = c; one form per
    proper class of positive, and of negative, definite forms.  d > 0:
    0 < b < sqrt(d) and sqrt(d) - b < 2|a| < sqrt(d) + b, which with
    s = isqrt(d) read b <= s and s - b < 2|a| <= s + b, exactly.  It stops
    _reduce and selects the members of _count_cycles; the loop bounds of
    _reduced_triples meet it by construction."""
    a, b, c = form
    if d < 0:
        return -abs(a) < b <= abs(a) <= abs(c) and (b >= 0 or a != c)
    return 0 < b <= s and s - b < 2 * abs(a) <= s + b


def _rho(form, mat, d, s):
    """One reduction step (a, b, c) -> (c, b', (b'^2 - d)/4c), which is the
    form composed with (0, -1; 1, t), and mat right-multiplied by the same
    matrix.  b' = -b mod 2|c| lies in (-|c|, |c|] for d < 0 or |c| > sqrt(d),
    and is the largest such integer below sqrt(d) otherwise; s = isqrt(d)."""
    a, b, c = form
    top = abs(c) if d < 0 or abs(c) > s else s
    b2 = top - (top + b) % (2 * abs(c))
    t = (b + b2) // (2 * c)
    p, q, r, u = mat
    return (c, b2, (b2 * b2 - d) // (4 * c)), (q, t * q - p, u, t * u - r)


def _reduce(form, d, s):
    """The reduced form reached from form by rho steps, and the matrix T of
    determinant 1 with form o T equal to it."""
    mat = (1, 0, 0, 1)
    while not _is_reduced(form, d, s):
        form, mat = _rho(form, mat, d, s)
    return form, mat


def _proper_matrix(fi, gi):
    """Proper equivalence of integer coefficient triples: the matrix
    (p, q, r, s) of determinant 1 with fi o T = gi, checked, or None."""
    d = fi[1] * fi[1] - 4 * fi[0] * fi[2]
    if gi[1] * gi[1] - 4 * gi[0] * gi[2] != d:
        raise DiscriminantMismatch("forms of different discriminants")
    if d > 0 and isqrt(d) ** 2 == d:
        raise ValueError("proper equivalence needs a non-square discriminant")
    s = isqrt(d) if d > 0 else 0
    f_red, m = _reduce(fi, d, s)
    g_red, n = _reduce(gi, d, s)
    form = f_red
    while form != g_red:
        form, m = _rho(form, m, d, s)
        if d < 0 or form == f_red:
            return None
    # f o m = g o n, so T = m n^-1
    p, q, r, u = m
    p2, q2, r2, u2 = n
    tp, tq, tr, ts = p * u2 - q * r2, q * p2 - p * q2, r * u2 - u * r2, u * p2 - r * q2
    a, b, c = fi
    image = (
        a * tp * tp + b * tp * tr + c * tr * tr,
        2 * a * tp * tq + b * (tp * ts + tq * tr) + 2 * c * tr * ts,
        a * tq * tq + b * tq * ts + c * ts * ts,
    )
    if image != gi:
        raise DomainError("proper equivalence witness failed verification")
    return tp, tq, tr, ts


def _reduced_triples(d: int) -> list[tuple[int, int, int]]:
    """The reduced primitive positive definite forms (a, b, c) of the int
    d < 0 with d = 0 or 1 mod 4, sorted; their number is the class number.

    Enumerated by b first (Cohen, GTM 138, Alg. 5.3.5): b runs over
    0 <= b <= sqrt(-d/3) with b = d mod 2, a over the divisors of
    q = (b^2 - d)/4 with b <= a <= sqrt(q), and c = q/a.  Each primitive
    (a, b, c) found is reduced, and so is (a, -b, c) when 0 < b < a < c.
    """
    out = []
    for b in range(d % 2, isqrt(-d // 3) + 1, 2):
        q = (b * b - d) // 4
        for a in range(max(b, 1), isqrt(q) + 1):
            if q % a == 0:
                c = q // a
                if gcd(a, b, c) == 1:
                    out.append((a, b, c))
                    if 0 < b < a < c:
                        out.append((a, -b, c))
    out.sort()
    return out


def _count_cycles(d: int) -> int:
    """Number of cycles of reduced primitive indefinite forms of the int
    discriminant d > 0, which is the narrow class number h+.

    The step rho permutes the reduced forms, and its cycles are the proper
    equivalence classes (Buchmann & Vollmer, ch. 6; Cohen, GTM 138, 5.6).
    """
    if d <= 0 or isqrt(d) ** 2 == d:
        raise ValueError("cycle counting needs a positive non-square d")
    s = isqrt(d)
    if d % 4 not in (0, 1):
        return 0
    reduced = set()
    for b in range(2 - d % 2, s + 1, 2):
        n = (d - b * b) // 4  # = -a c
        # a reduced form has s - b < 2a <= s + b
        for a in range((s - b) // 2 + 1, (s + b) // 2 + 1):
            if n % a == 0:
                c = n // a
                if _is_reduced((a, b, -c), d, s) and gcd(gcd(a, b), c) == 1:
                    reduced.add((a, b, -c))
                    reduced.add((-a, b, c))
    cycles = 0
    while reduced:
        start = reduced.pop()
        form, _ = _rho(start, (1, 0, 0, 1), d, s)
        while form != start:
            reduced.remove(form)
            form, _ = _rho(form, (1, 0, 0, 1), d, s)
        cycles += 1
    return cycles


def fundamental_unit_xy(D: int) -> tuple[int, int, int]:
    """Minimal unit > 1 of the quadratic order of discriminant D > 0.

    Returns (X, Y, norm) with the unit equal to (X + Y*sqrt(D))/2.  The
    walk from the reduced principal form f = (a, b, c) stops at f again
    (norm +1) or first at (-a, b, -c) (norm -1); its matrix M has
    M21 = +-a*Y.
    """
    if D <= 0 or D % 4 not in (0, 1):
        raise WrongBase("unit computation needs a positive discriminant")
    s = isqrt(D)
    if s * s == D:
        raise SquareInput("discriminant must not be a square")
    f, _ = _reduce((1, D % 2, (D % 2 - D) // 4), D, s)
    a, b, c = f
    form, mat = _rho(f, (1, 0, 0, 1), D, s)
    while form != f and form != (-a, b, -c):
        form, mat = _rho(form, mat, D, s)
    norm = 1 if form == f else -1
    Y = abs(mat[2] // a)
    return isqrt(D * Y * Y + 4 * norm), Y, norm


def fundamental_unit(ext):
    """The fundamental unit of L = Q(sqrt D) as an element of the extension."""
    from fractions import Fraction

    if not ext.base.is_rational:
        raise WrongBase("fundamental units are computed only over Q")
    X, Y, _ = fundamental_unit_xy(int(ext.d.c0))
    return ext.element(Fraction(X, 2), Fraction(Y, 2))


_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Miller-Rabin for odd n without prime factors up to 41.  The first 13
    primes as bases are exact below _MR_BOUND (Sorenson and Webster, Math.
    Comp. 86, 2017); a probable prime above it raises DomainError."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s * odd
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 1 << i, n) != n - 1 for i in range(s)):
            return False
    if n >= _MR_BOUND:
        raise DomainError(f"cannot prove a {n.bit_length()}-bit integer prime")
    return True


# rho needs about p^(1/2) steps to find a prime factor p: 2^22 steps, 2-3 s
# on a 127-bit n, split products of two 12-digit primes and most of 13 digits
_RHO_STEPS = 1 << 22


def _pollard_rho(n: int) -> int:
    """A proper factor of the odd composite n: Pollard-Brent rho on
    y -> y^2 + c, c = 1, 2, ..., one gcd per block of steps.  The blocks of
    all c together take at most _RHO_STEPS steps, then DomainError."""
    steps = 0
    for c in count(1):
        y, r, g = 2, 1, 1
        while g == 1:
            x, ys, r, q = y, y, 2 * r, 1
            steps += r
            if steps > _RHO_STEPS:
                raise DomainError(
                    f"cannot factor a {n.bit_length()}-bit integer"
                    f" in {_RHO_STEPS} rho steps"
                )
            for _ in range(r):
                y = (y * y + c) % n
                q = q * (x - y) % n
            g = gcd(q, n)
        if g == n:  # the block overshot: step through it again
            g, y = 1, ys
            while g == 1:
                y = (y * y + c) % n
                g = gcd(x - y, n)
        if g != n:
            return g


def _iroot(m: int, k: int) -> int:
    """floor(m^(1/k)) for m >= 1, by integer Newton steps from above."""
    x = 1 << -(-m.bit_length() // k)  # 2^ceil(bits/k) > m^(1/k)
    while True:
        y = ((k - 1) * x + m // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power(m: int, least: int):
    """(root, k) with root^k = m for the least k >= 2, or None, when every
    prime factor of m is at least `least`: k runs from 2 up to log2 m and
    stops once the k-th root falls below `least`."""
    for k in range(2, m.bit_length() + 1):
        root = _iroot(m, k)
        if root < least:
            return None
        if root ** k == m:
            return root, k
    return None


def _factor_int(n: int) -> dict[int, int]:
    """{prime: exponent} of |n|, primes ascending: trial division below
    1000, then, on the cofactor, exact k-th roots, Miller-Rabin and
    Pollard-Brent rho."""
    n = abs(n)
    out: dict[int, int] = {}
    p = 2
    while p * p <= n and p < 1000:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    stack = [n] if n > 1 else []
    while stack:  # every factor left is at least p
        m = stack.pop()
        if m < p * p:
            out[m] = out.get(m, 0) + 1
            continue
        power = _perfect_power(m, p)
        if power is not None:  # rho needs about root^(1/2) steps on root^k
            stack += [power[0]] * power[1]
        elif _is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            f = _pollard_rho(m)
            stack += [f, m // f]
    return dict(sorted(out.items()))


def _sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a modulo the odd prime p, or None (Tonelli-Shanks)."""
    a %= p
    if pow(a, p >> 1, p) > 1:
        return None
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = 2^s * q, q odd
    q = (p - 1) >> s
    z = next(z for z in count(2) if pow(z, p >> 1, p) == p - 1)
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t > 1:  # r^2 = a*t, and t has order 2^i < 2^s
        i = next(i for i in count(1) if pow(t, 1 << i, p) == 1)
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r
