"""Fundamental units of real quadratic orders from the principal rho-cycle.

The unit is returned as (X, Y, norm) with unit = (X + Y*sqrt(D))/2 > 1 and
norm = (X^2 - D*Y^2)/4 in {-1, +1}.  The rho-cycle of the reduced
principal form is the continued fraction of its root, and the matrix of
one walk round it is the fundamental automorph (Buchmann & Vollmer, ch. 6;
Cohen, GTM 138, 5.6-5.7).  All arithmetic is on integers.
"""

from math import isqrt

from .errors import SquareInput, WrongBase
from .forms import _reduce, _rho


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
