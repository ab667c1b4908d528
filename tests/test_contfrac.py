"""Fundamental units from the principal rho-cycle against hand-checked
values and, where sympy is installed, against its Pell solver."""

from math import isqrt

import pytest

from qfc import (
    Q,
    SquareInput,
    fundamental_unit,
    fundamental_unit_xy,
    is_fundamental,
    make_extension,
)


@pytest.mark.parametrize(
    "D, X, Y, norm",
    [
        (5, 1, 1, -1),  # (1+sqrt5)/2
        (8, 2, 1, -1),  # 1+sqrt2
        (12, 4, 1, 1),  # 2+sqrt3
        (13, 3, 1, -1),  # (3+sqrt13)/2
        (40, 6, 1, -1),  # 3+sqrt10
        (60, 8, 1, 1),  # 4+sqrt15
        (21, 5, 1, 1),  # (5+sqrt21)/2
        (229, 15, 1, -1),  # (15+sqrt229)/2
        (136, 70, 6, 1),  # 35+6sqrt34
    ],
)
def test_fundamental_units(D, X, Y, norm):
    assert fundamental_unit_xy(D) == (X, Y, norm)


def test_unit_is_a_unit_of_ol():
    for D in (5, 8, 12, 13, 17, 24, 28, 33, 40, 44, 56, 60, 76, 88, 92, 124):
        X, Y, norm = fundamental_unit_xy(D)
        assert X * X - D * Y * Y == 4 * norm
        assert norm in (1, -1)
        ext = make_extension(Q, D)
        mu = fundamental_unit(ext)
        assert mu.is_unit()
        assert mu.norm() == Q(norm)


def test_rejects_squares():
    with pytest.raises(SquareInput):
        fundamental_unit_xy(16)


def test_against_sympy_pell():
    # the unit is the solution of X^2 - D Y^2 = +-4 with the smallest Y > 0,
    # then the smallest X
    pytest.importorskip("sympy")
    from sympy.solvers.diophantine.diophantine import diop_DN

    for D in range(5, 2000):
        if isqrt(D) ** 2 == D or not is_fundamental(Q(D)):
            continue
        sols = [
            (abs(y), abs(x), n // 4)
            for n in (4, -4)
            for x, y in diop_DN(D, n)
            if y
        ]
        Y, X, norm = min(sols)
        assert fundamental_unit_xy(D) == (X, Y, norm), D
