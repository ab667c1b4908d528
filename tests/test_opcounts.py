"""Operation-count guard for composition.

One `compose` of a fixed pair of forms per base is counted in products of
K (`BaseElement.__mul__`) and of L (`ExtElement.__mul__`), through counting
wrappers.  The counts are deterministic, so a redundant check re-added to
the composition path shows here without timing anything.  The bounds are
the counts of the current code; lower them when the path gets cheaper.
"""

from collections import Counter

import pytest

from qfc import QuadraticForm, canonical_disc, compose, field, make_extension
from qfc.base_field import BaseElement
from qfc.extension import ExtElement

# (base, q1, q2, K-product bound, L-product bound), each coefficient as
# (c0, c1).  Over the real quadratic bases disc(q2) = eps^4 * disc(q1), so
# Psi takes a unit square root there; over Q and Q(i) the two are equal.
CASES = [
    ("q", ((-2, 0), (-1, 0), (-3, 0)), ((1, 0), (-3, 0), (8, 0)), 94, 5),
    ("q_i", ((-1, 0), (-1, 1), (1, 0)), ((0, 1), (-1, -1), (1, 1)), 85, 4),
    ("q_sqrt2", ((-3, -2), (0, 1), (-3, 2)), ((4, 3), (-10, -7), (7, 5)), 161, 5),
    ("q_sqrt5", ((-3, 2), (-2, -1), (4, 7)), ((1, 2), (-5, -8), (5, 9)), 156, 4),
    ("q_sqrt13", ((-2, 1), (-2, 1), (-1, 0)), ((-5, -4), (-17, -13), (-13, -10)),
     160, 5),
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
