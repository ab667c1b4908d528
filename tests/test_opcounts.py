"""Operation-count guards for composition and for equivalence over Q.

One `compose` of a fixed pair of forms per base, and one
`oriented_equivalent` of a fixed pair of ideals over Q, is counted in
products of K (`BaseElement.__mul__`) and of L (`ExtElement.__mul__`),
through counting wrappers.  The counts are deterministic, so a redundant
check re-added to either path shows here without timing anything.  The
bounds are the counts of the current code; lower them when the path gets
cheaper.
"""

from collections import Counter
from fractions import Fraction

import pytest

from qfc import (
    EQUIVALENT,
    NOT_EQUIVALENT,
    OrientedIdeal,
    Q,
    QuadraticForm,
    canonical_disc,
    compose,
    field,
    make_extension,
    oriented_equivalent,
    psi,
)
from qfc.base_field import BaseElement
from qfc.extension import ExtElement

# (base, q1, q2, K-product bound, L-product bound), each coefficient as
# (c0, c1).  Over the real quadratic bases disc(q2) = eps^4 * disc(q1), so
# Psi takes a unit square root there; over Q and Q(i) the two are equal.
CASES = [
    ("q", ((-2, 0), (-1, 0), (-3, 0)), ((1, 0), (-3, 0), (8, 0)), 88, 5),
    ("q_i", ((-1, 0), (-1, 1), (1, 0)), ((0, 1), (-1, -1), (1, 1)), 78, 4),
    ("q_sqrt2", ((-3, -2), (0, 1), (-3, 2)), ((4, 3), (-10, -7), (7, 5)), 129, 5),
    ("q_sqrt5", ((-3, 2), (-2, -1), (4, 7)), ((1, 2), (-5, -8), (5, 9)), 123, 4),
    ("q_sqrt13", ((-2, 1), (-2, 1), (-1, 0)), ((-5, -4), (-17, -13), (-13, -10)),
     129, 5),
]


def _form(f, coeffs):
    return QuadraticForm(f, *(f(c0, c1) for c0, c1 in coeffs))


def _count(monkeypatch, counts, cls, key):
    mul = cls.__mul__

    def counted(self, other):
        counts[key] += 1
        return mul(self, other)

    monkeypatch.setattr(cls, "__mul__", counted)
    monkeypatch.setattr(cls, "__rmul__", counted)


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_compose_product_counts(monkeypatch, case):
    tag, c1, c2, k_bound, l_bound = case
    f = field(tag)
    q1, q2 = _form(f, c1), _form(f, c2)
    expected = compose(q1, q2)
    # the extension is built outside the count: make_extension keeps it
    make_extension(f, canonical_disc(f, q1.disc()))
    counts = Counter()
    _count(monkeypatch, counts, BaseElement, "K")
    _count(monkeypatch, counts, ExtElement, "L")
    assert compose(q1, q2) == expected
    assert counts["K"] <= k_bound
    assert counts["L"] <= l_bound


# (D, form of a, form of b, scale b by x + y*sqrt D, flip b, status); the
# Q path of oriented_equivalent runs on integers and builds gamma alone
Q_PAIRS = [
    (-23, (2, 1, 3), (2, 1, 3), (Fraction(3, 2), Fraction(1, 2)), False, EQUIVALENT),
    (-23, (2, 1, 3), (2, -1, 3), (Fraction(1, 3), 1), False, NOT_EQUIVALENT),
    (12, (2, 2, -1), (2, 2, -1), (Fraction(5, 2), Fraction(-1, 2)), False, EQUIVALENT),
    (12, (1, 0, -3), (1, 0, -3), (2, Fraction(1, 3)), True, NOT_EQUIVALENT),
]


Q_IDS = ["d-23_equivalent", "d-23_unrelated", "d12_equivalent", "d12_flipped"]


@pytest.mark.parametrize("pair", Q_PAIRS, ids=Q_IDS)
def test_oriented_equivalent_q_product_counts(monkeypatch, pair):
    d, fa, fb, (x, y), flip, status = pair
    ext = make_extension(Q, d)
    a = psi(QuadraticForm(Q, *fa), ext)
    b = psi(QuadraticForm(Q, *fb), ext).scale(ext.element(x, y))
    if flip:
        b = OrientedIdeal(b.basis, (-b.eps[0],))
    counts = Counter()
    _count(monkeypatch, counts, BaseElement, "K")
    _count(monkeypatch, counts, ExtElement, "L")
    assert oriented_equivalent(a, b).status == status
    assert counts["K"] <= 2
    assert counts["L"] <= 1
