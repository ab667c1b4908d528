"""Extension construction, L-arithmetic, norms, and integrality."""

from fractions import Fraction

import pytest

from conftest import random_int_element

from qfc import (
    NotFundamental,
    Q,
    extension,
    field,
    is_fundamental,
    make_extension,
)

QI = field("q_i")
QS5 = field("q_sqrt5")


class TestMakeExtension:
    def test_examples_over_q(self):
        e = make_extension(Q, -4)
        assert (e.w, e.z) == (Q(0), Q(1))
        assert e.omega == e.element(0, Fraction(1, 2))  # i = (1/2) sqrt(-4)

        e = make_extension(Q, -23)
        assert (e.w, e.z) == (Q(1), Q(6))

        e = make_extension(Q, 12)
        assert (e.w, e.z) == (Q(0), Q(-3))

    def test_rejects_non_fundamental(self):
        with pytest.raises(NotFundamental):
            make_extension(Q, -12)
        with pytest.raises(NotFundamental):
            make_extension(QI, QI(8))

    def test_immutable(self):
        e = make_extension(Q, -23)
        for name, value in (("d", Q(5)), ("w", Q(0)), ("base", QI), ("other", 1)):
            with pytest.raises(AttributeError):
                setattr(e, name, value)
        assert e.d == Q(-23) and e.w == Q(1)

    def test_one_instance_per_field_and_d(self):
        for base, d in [(Q, -23), (Q, 40), (QI, QI(0, 4)), (QS5, QS5(-4))]:
            assert make_extension(base, d) is make_extension(base, d)
        assert make_extension(Q, -23) is make_extension(Q, Q(-23))
        assert make_extension(Q, -23) is not make_extension(Q, -4)

    def test_non_fundamental_raises_on_every_call(self):
        for _ in range(3):
            with pytest.raises(NotFundamental):
                make_extension(Q, -12)
        assert not any(key[:2] == ("q", -12) for key in extension._EXTENSIONS)

    def test_table_is_bounded(self):
        ds = [d for d in range(-2000, 0) if d % 4 in (0, 1) and is_fundamental(Q(d))]
        assert len(ds) > 2 * extension._EXTENSIONS_CAP
        for d in ds:
            e = make_extension(Q, d)
            assert e.d == Q(d)
            assert 0 < len(extension._EXTENSIONS) <= extension._EXTENSIONS_CAP

    def test_d_from_another_base(self):
        with pytest.raises(ValueError):
            make_extension(Q, QI(-23))

    def test_omega_identities(self):
        for base, d in [(Q, Q(-23)), (Q, Q(40)), (QI, QI(0, 4)), (QS5, QS5(-4))]:
            e = make_extension(base, d)
            om = e.omega
            # W^2 + w W + z = 0
            zero = om * om + e.from_base(e.w) * om + e.from_base(e.z)
            assert zero.is_zero()
            # (W - conj W)^2 = D
            diff = om - om.conj()
            sq = diff * diff
            assert sq.x == e.d and sq.y.is_zero()
            assert (e.w * e.w - 4 * e.z) == e.d


class TestArithmetic:
    def test_conj_of_omega(self):
        e = make_extension(Q, -23)
        om = e.omega
        assert om.conj() == e.element(Fraction(-1, 2), Fraction(-1, 2))

    def test_product_of_roots(self):
        for base, d in [(Q, Q(-23)), (QS5, QS5(-4))]:
            e = make_extension(base, d)
            om = e.omega
            prod = om * om.conj()
            assert prod.x == e.z and prod.y.is_zero()

    def test_norm_examples(self):
        e = make_extension(Q, -23)
        a = e.element(Fraction(1, 2), Fraction(1, 2))
        b = e.element(Fraction(1, 2), Fraction(-1, 2))
        assert (a * b).x == Q(6)
        assert e.omega.norm() == Q(6)
        assert e.one.norm() == Q(1)
        assert e.sqrt_d.norm() == -e.d

    def test_norm_multiplicative(self, rng):
        for base, d in [(Q, Q(-23)), (QI, QI(0, 4)), (QS5, QS5(-4))]:
            e = make_extension(base, d)
            for _ in range(30):
                a = e.element(
                    random_int_element(base, rng, 4), random_int_element(base, rng, 4)
                )
                b = e.element(
                    random_int_element(base, rng, 4), random_int_element(base, rng, 4)
                )
                assert (a * b).norm() == a.norm() * b.norm()

    def test_conj_ring_hom(self, rng):
        e = make_extension(QS5, QS5(-4))
        for _ in range(20):
            a = e.element(
                random_int_element(QS5, rng, 4), random_int_element(QS5, rng, 4)
            )
            b = e.element(
                random_int_element(QS5, rng, 4), random_int_element(QS5, rng, 4)
            )
            assert (a + b).conj() == a.conj() + b.conj()
            assert (a * b).conj() == a.conj() * b.conj()
            assert a.conj().conj() == a
        k = e.from_base(QS5(7, 3))
        assert k.conj() == k  # fixes K

    def test_division(self):
        e = make_extension(Q, -23)
        alpha = e.element(2)
        beta = e.omega  # (-1 + sqrt(-23))/2
        quot = beta / alpha
        assert quot.im_part() == Q(Fraction(1, 4))
        assert (quot * alpha) == beta
        with pytest.raises(ZeroDivisionError):
            e.one / e.zero

    def test_im_part(self):
        e = make_extension(Q, -23)
        assert e.omega.im_part() == Q(Fraction(1, 2))
        assert e.element(5).im_part() == Q(0)


class TestIntegrality:
    def test_examples(self):
        e = make_extension(Q, -23)
        assert e.omega.is_integral()
        half = e.element(Fraction(1, 2), Fraction(1, 2))  # (1+sqrt-23)/2 = 1 + W
        assert half.is_integral()
        s, t = half.module_coords()
        assert (s, t) == (Q(1), Q(1))
        assert not e.element(0, Fraction(1, 2)).is_integral()  # sqrt(-23)/2

    def test_module_coords_roundtrip(self, rng):
        for base, d in [(Q, Q(-23)), (QI, QI(0, 4)), (QS5, QS5(-4))]:
            e = make_extension(base, d)
            for _ in range(20):
                a = e.element(
                    random_int_element(base, rng, 4) / 2,
                    random_int_element(base, rng, 4) / 2,
                )
                s, t = a.module_coords()
                assert e.from_module_coords(s, t) == a


class TestDiscriminantOrbit:
    def test_scaled_disc_same_ring(self):
        # [1, W'] for u^2 D equals [1, uW] as O_K-modules, after mapping
        # sqrt(u^2 D) -> u sqrt(D)
        cases = [(QI, QI(0, 4), QI.omega)]
        for base in (field("q_sqrt2"), QS5):
            eps = base.fundamental_unit
            d = base(-2) if base.m == 2 else base(-4)
            cases.append((base, d, eps))
        for base, d, u in cases:
            e = make_extension(base, d)
            e2 = make_extension(base, u * u * d)
            # map x + y sqrt(u^2 D) to x + y u sqrt(D)
            om2 = e2.omega
            mapped = e.element(om2.x, om2.y * u)
            target = u * e.omega  # wait: compare modules [1, mapped], [1, uW]
            # solve mapped = s*1 + t*(uW) and vice versa, over O_K
            uw = e.from_base(u) * e.omega
            assert _same_rank2_module(e.one, mapped, e.one, uw)


def _same_rank2_module(a1, b1, a2, b2):
    def solve(u, v, w):
        den = u.x * v.y - u.y * v.x
        s = (w.x * v.y - v.x * w.y) / den
        t = (u.x * w.y - w.x * u.y) / den
        return s, t

    for target, pair in (((a2, b2), (a1, b1)), ((a1, b1), (a2, b2))):
        for w in target:
            s, t = solve(pair[0], pair[1], w)
            if not (s.is_integral() and t.is_integral()):
                return False
    return True
