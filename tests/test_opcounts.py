"""Operation-count guards for composition and for equivalence over Q and
over the real quadratic bases with D totally negative.

One `compose` of a fixed pair of forms per base, and one
`oriented_equivalent` of a fixed pair of ideals over Q or over Q(sqrt 2),
Q(sqrt 5) and Q(sqrt 13), is counted in products of K
(`BaseElement.__mul__`) and of L (`ExtElement.__mul__`), through counting
wrappers.  The counts are deterministic, so a redundant check re-added to
any of these paths shows here without timing anything.  The bounds are the
counts of the current code; lower them when the path gets cheaper.
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


# (base, D, form of a, form of b or None for a itself, scale b by x + y*sqrt D
# with x, y as coordinate pairs, status, K-product bound, L-product bound):
# per base one far multiplier and one pair of distinct classes of one
# orientation.  The CM path runs on integers except for one K-product (the
# norm of J * I^-1 times the unit of its signs) and for gamma, which it
# builds and checks with `witness_ok`: two L-products, gamma*alpha and
# gamma*beta, and the K-products under them.
CM_PAIRS = [
    ("q_sqrt2", (-2, 0), ((-2, 1), (2, -1), (-1, 0)), None,
     ((1234, -777), (555, 901)), EQUIVALENT, 25, 2),
    ("q_sqrt2", (-13, -6), ((-2, -2), (-1, -1), (0, -1)), ((-2, -2), (1, 1), (0, -1)),
     ((1, 0), (0, 0)), NOT_EQUIVALENT, 1, 0),
    ("q_sqrt5", (-4, 0), ((1, 0), (0, 0), (1, 0)), None,
     ((31415926535897, -27182818284590), (16180339887498, 14142135623730)),
     EQUIVALENT, 25, 2),
    ("q_sqrt5", (-11, 0), ((-2, -2), (-1, -2), (-3, 1)), ((-2, 1), (-1, -2), (-6, -8)),
     ((1, 0), (0, 0)), NOT_EQUIVALENT, 1, 0),
    ("q_sqrt13", (-3, 0), ((1, 0), (-1, 0), (1, 0)), None,
     ((9, 7), (5, 8)), EQUIVALENT, 25, 2),
    ("q_sqrt13", (-3, 0), ((1, 0), (-1, 0), (1, 0)), ((14, 3), (-27, -12), (15, 9)),
     ((1, 0), (0, 0)), NOT_EQUIVALENT, 1, 0),
]

CM_IDS = [f"{p[0]}_{'far' if p[3] is None else 'distinct'}" for p in CM_PAIRS]


@pytest.mark.parametrize("pair", CM_PAIRS, ids=CM_IDS)
def test_oriented_equivalent_cm_product_counts(monkeypatch, pair):
    tag, d, fa, fb, (x, y), status, k_bound, l_bound = pair
    f = field(tag)
    ext = make_extension(f, f(*d))
    a = psi(_form(f, fa), ext)
    b = a if fb is None else psi(_form(f, fb), ext)
    b = b.scale(ext.element(f(*x), f(*y)))
    assert a.eps == b.eps
    counts = Counter()
    _count(monkeypatch, counts, BaseElement, "K")
    _count(monkeypatch, counts, ExtElement, "L")
    assert oriented_equivalent(a, b).status == status
    assert counts["K"] <= k_bound
    assert counts["L"] <= l_bound
