"""Exact LLL and Fincke-Pohst enumeration on Gram matrices, checked on the
trace forms of real ideals and against a brute-force count."""

from fractions import Fraction
from itertools import product
from math import isqrt

from conftest import forms_with_disc, random_gamma, random_oriented_ideal

from qfc import field, make_extension
from qfc.ideals import _quotient_module, _trace_gram
from qfc.lattice import lll_gram, short_vectors

QS2 = field("q_sqrt2")
QS5 = field("q_sqrt5")
QS13 = field("q_sqrt13")
CM_EXTS = [
    make_extension(QS2, QS2(-2)),
    make_extension(QS5, QS5(-4)),
    make_extension(QS13, QS13(-3)),
]


def _value(gram, v):
    return sum(v[i] * gram[i][j] * v[j] for i in range(len(v)) for j in range(len(v)))


def _gram_schmidt(gram):
    """mu and the squared lengths B of the Gram-Schmidt basis, in Fractions."""
    n = len(gram)
    mu = [[Fraction(0)] * n for _ in range(n)]
    b = [Fraction(0)] * n
    for i in range(n):
        for j in range(i):
            dot = gram[i][j] - sum(mu[j][k] * mu[i][k] * b[k] for k in range(j))
            mu[i][j] = Fraction(dot) / b[j]
        b[i] = gram[i][i] - sum(mu[i][k] ** 2 * b[k] for k in range(i))
    return mu, b


def _minor(m, i, j):
    return [row[:j] + row[j + 1:] for k, row in enumerate(m) if k != i]


def _det(m):
    """Determinant by cofactor expansion (small matrices)."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det(_minor(m, 0, j)) for j in range(len(m)))


def _ideal_grams(rng):
    """Trace-form Gram matrices of ideals and of quotient modules J * I^-1,
    some of them scaled far from the origin."""
    for ext in CM_EXTS:
        seed = forms_with_disc(ext.base, ext.d, 3)
        for _ in range(4):
            a = random_oriented_ideal(ext, rng, seed)
            b = random_oriented_ideal(ext, rng, seed)
            far = a.basis.scale(random_gamma(ext, rng) ** 5)
            for module in (a.basis, _quotient_module(a, b), far):
                yield module, _trace_gram(module)


def test_trace_gram_is_the_trace_of_the_norm(rng):
    for module, (gram, den) in _ideal_grams(rng):
        ext = module.ext
        omega = ext.from_base(ext.base.omega)
        for v in product((-1, 0, 2), repeat=4):
            s, t = ext.base(v[0], v[1]), ext.base(v[2], v[3])
            gamma = ext.from_base(s) * module.alpha + ext.from_base(t) * module.beta
            assert gamma == v[0] * module.alpha + v[1] * module.alpha * omega + (
                v[2] * module.beta + v[3] * module.beta * omega
            )
            assert _value(gram, v) == den * gamma.norm().trace()


def test_lll_is_exact_and_reduced(rng):
    for _, (gram, _) in _ideal_grams(rng):
        reduced, h = lll_gram(gram)
        n = len(gram)
        # reduced = h^T gram h with h unimodular
        assert reduced == [
            [sum(h[a][i] * gram[a][b] * h[b][j] for a in range(n) for b in range(n))
             for j in range(n)]
            for i in range(n)
        ]
        assert _det(h) in (1, -1)
        mu, b = _gram_schmidt(reduced)
        for i in range(n):
            for j in range(i):
                assert abs(mu[i][j]) <= Fraction(1, 2)
        for k in range(1, n):
            assert b[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * b[k - 1]


def test_short_vectors_match_brute_force(rng):
    # |x_i|^2 <= bound * (gram^-1)_ii by Cauchy-Schwarz, so brute force
    # over that box is a complete reference
    for _, (gram, _) in _ideal_grams(rng):
        reduced, _ = lll_gram(gram)
        bound = 3 * reduced[0][0]
        det = _det(reduced)
        radii = [isqrt(bound * _det(_minor(reduced, i, i)) // det) for i in range(4)]
        found = list(short_vectors(reduced, bound))
        assert len(found) == len({x for x, _ in found}) >= 2
        assert all(_value(reduced, x) == value <= bound for x, value in found)
        box = [
            x for x in product(*(range(-r, r + 1) for r in radii))
            if any(x) and _value(reduced, x) <= bound
        ]
        assert sorted(x for x, _ in found) == sorted(box)
