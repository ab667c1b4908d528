"""Exact LLL, Fincke-Pohst enumeration and Hermite normal form on integer
matrices, checked on the trace forms of J * I^-1 over real quadratic bases
with D totally negative, against brute force and against the enumeration
in Fractions that the integer one replaced."""

import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd, isqrt

from conftest import (
    forms_with_disc,
    random_gamma,
    random_oriented_ideal,
    reference_short_vectors,
)

from qfc import field, make_extension, principal_oriented
from qfc.ideals import _cm_gram, _cm_lattice, _quotient_module
from qfc.lattice import hnf, lll_gram, short_vectors

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


def _element(ext, row, den):
    """(row[0] + row[1]*w + (row[2] + row[3]*w)*W) / den in L."""
    f = ext.base
    s = f(Fraction(row[0], den), Fraction(row[1], den))
    return ext.from_module_coords(s, f(Fraction(row[2], den), Fraction(row[3], den)))


def _pairs(rng):
    """Pairs (I, J) of oriented ideals: unrelated, J a far multiple of I,
    and I = O_L, where J * I^-1 is J."""
    for ext in CM_EXTS:
        seed = forms_with_disc(ext.base, ext.d, 3)
        for _ in range(4):
            a = random_oriented_ideal(ext, rng, seed)
            b = random_oriented_ideal(ext, rng, seed)
            far = a.scale(random_gamma(ext, rng) ** 5)
            yield from ((a, b), (a, far), (principal_oriented(ext.one), b))


def _ideal_grams(rng):
    """Trace-form Gram matrices of the lattices J * I^-1 of `_pairs`."""
    for a, b in _pairs(rng):
        rows, den = _cm_lattice(a, b)
        yield (a, b, rows, den), _cm_gram(a.ext, rows)


def test_lattice_is_the_quotient_module(rng):
    # the rows lie in J * I^-1 and have its index in O_L, so they span it
    for (a, b, rows, den), _ in _ideal_grams(rng):
        quotient = _quotient_module(a, b)
        assert all(quotient.contains(_element(a.ext, row, den)) for row in rows)
        index = rows[0][0] * rows[1][1] * rows[2][2] * rows[3][3]
        assert index == den ** 4 * abs(quotient.det_m().norm())
        assert gcd(den, *(v for row in rows for v in row)) == 1


def test_trace_gram_is_the_trace_of_the_norm(rng):
    for (a, _, rows, den), gram in _ideal_grams(rng):
        for v in product((-1, 0, 2), repeat=4):
            gamma = sum(
                (vi * _element(a.ext, row, den) for vi, row in zip(v, rows)),
                a.ext.zero,
            )
            assert _value(gram, v) == 2 * den * den * gamma.norm().trace()


def test_hnf_spans_the_lattice_of_its_rows():
    # the index of a full-rank lattice is the gcd of the maximal minors of
    # any generating matrix; each input row solves with integer quotients
    rng = random.Random(7)
    for size in (4, 5, 8):
        for _ in range(40):
            rows = [[rng.randint(-30, 30) for _ in range(4)] for _ in range(size)]
            picks = combinations(range(size), 4)
            minors = [_det([rows[i] for i in pick]) for pick in picks]
            if not any(minors):
                continue
            basis = hnf(rows)
            for i, row in enumerate(basis):
                assert row[:i] == [0] * i and row[i] > 0
                assert all(0 <= basis[k][i] < row[i] for k in range(i))
            assert basis[0][0] * basis[1][1] * basis[2][2] * basis[3][3] == gcd(*minors)
            for row in rows:
                rest = list(row)
                for i, pivot in enumerate(basis):
                    q, r = divmod(rest[i], pivot[i])
                    assert r == 0
                    rest = [u - q * v for u, v in zip(rest, pivot)]
                assert rest == [0] * 4


def test_lll_is_exact_and_reduced(rng):
    for _, gram in _ideal_grams(rng):
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
    for _, gram in _ideal_grams(rng):
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


def test_short_vectors_keep_the_order_of_the_fraction_enumeration(rng):
    # nearest the centre first, the lower neighbour on a tie, at every level
    for _, gram in _ideal_grams(rng):
        reduced, _ = lll_gram(gram)
        for bound in (reduced[0][0], 3 * reduced[3][3] + 1):
            assert list(short_vectors(reduced, bound)) == list(
                reference_short_vectors(reduced, bound)
            )
