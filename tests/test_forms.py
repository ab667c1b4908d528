"""Forms: discriminants, transformations, automorphs, reduction, enumeration."""

import random
from fractions import Fraction
from math import gcd, isqrt

import pytest

from conftest import random_fundamental_form, random_int_element, random_unimodular

from qfc import (
    DiscriminantMismatch,
    DiscriminantNotTotallyNegative,
    IndefiniteForm,
    InvalidTransformation,
    NotAUnit,
    NotIntegral,
    Q,
    QuadraticForm,
    Transformation,
    WrongBase,
    automorph_from_unit,
    count_cycles_q,
    enumerate_classes_q,
    field,
    fundamental_unit,
    is_fundamental,
    make_extension,
    ocl_structure_q,
    proper_equivalence,
    reduce_form_q,
    root_transport_check,
    verify_equivalence_witness,
)
from qfc.forms import _is_reduced

QI = field("q_i")
QS2 = field("q_sqrt2")
QS5 = field("q_sqrt5")


class TestDisc:
    def test_examples(self):
        assert QuadraticForm(Q, 1, 0, 1).disc() == Q(-4)
        assert QuadraticForm(Q, 2, 1, 3).disc() == Q(-23)
        assert QuadraticForm(QI, 1, 4, 2).disc() == QI(8)

    def test_evaluation(self):
        q = QuadraticForm(Q, 2, 1, 3)
        assert q(Q(1), Q(0)) == Q(2)
        assert q(Q(1), Q(1)) == Q(6)


class TestPrimitivity:
    def test_examples(self):
        assert QuadraticForm(Q, 2, 1, 3).is_primitive()
        assert not QuadraticForm(Q, 2, 2, 2).is_primitive()
        w = QS2.omega
        assert not QuadraticForm(QS2, w, 2, w).is_primitive()

    def test_zero_coefficients(self):
        # the gcd of the nonzero coefficients decides; gcd(0, 0, 1) = 1
        for f in (Q, QI, QS2, QS5, field("q_sqrt13")):
            assert QuadraticForm(f, 0, 0, 1).is_primitive()
            assert QuadraticForm(f, 1, 0, 0).is_primitive()
            assert QuadraticForm(f, 0, 1, 0).is_primitive()
            assert not QuadraticForm(f, 0, 0, 2).is_primitive()
            assert not QuadraticForm(f, 0, 0, 0).is_primitive()
        assert QuadraticForm(QS5, 0, 0, QS5.omega).is_primitive()  # a unit

    def test_preserved_by_equivalence(self, rng):
        for tag in ("q", "q_i", "q_sqrt2", "q_sqrt5"):
            f = field(tag)
            for _ in range(12):
                q = random_fundamental_form(f, rng)
                t = _random_tp_transformation(f, rng)
                assert q.transform(t).is_primitive()


def _random_tp_transformation(f, rng):
    while True:
        p, q, r, s = random_unimodular(f, rng)
        det = p * s - q * r
        if not det.is_totally_positive():
            continue
        units = [f.one]
        if f.r == 0:
            units += [f.omega, -f.one, -f.omega]
        if f.fundamental_unit is not None:
            units += [f.fundamental_unit ** 2]
        u = rng.choice(units)
        return Transformation(f, p, q, r, s, u)


class TestTransform:
    def test_identity(self):
        q = QuadraticForm(Q, 2, 1, 3)
        t = Transformation(Q, 1, 0, 0, 1)
        assert q.transform(t) == q

    def test_remark_pair_gaussian(self):
        # Q' = -i Q(ix, y) for Q = x^2 + 4xy + 2y^2
        q = QuadraticForm(QI, 1, 4, 2)
        t = Transformation(QI, QI(0, 1), 0, 0, 1, u=QI(0, -1))
        q2 = q.transform(t)
        assert q2 == QuadraticForm(QI, QI(0, 1), 4, QI(0, -2))
        assert verify_equivalence_witness(q, q2, t)

    def test_witness_rejects_wrong_class(self):
        # discriminants -4 and -23 can never match under any valid T
        q1 = QuadraticForm(Q, 1, 0, 1)
        q2 = QuadraticForm(Q, 2, 1, 3)
        for t in (Transformation(Q, 1, 0, 0, 1), Transformation(Q, 1, 2, 0, 1)):
            assert not verify_equivalence_witness(q1, q2, t)

    def test_disc_scaling_law(self, rng):
        for tag in ("q", "q_i", "q_sqrt2", "q_sqrt5"):
            f = field(tag)
            for _ in range(12):
                q = random_fundamental_form(f, rng)
                t = _random_tp_transformation(f, rng)
                det = t.det()
                assert q.transform(t).disc() == t.u * t.u * det * det * q.disc()

    def test_inverse_formulas(self, rng):
        # reconstruct (a, b, c) from the transformed coefficients
        for tag in ("q", "q_sqrt5"):
            f = field(tag)
            for _ in range(10):
                q = random_fundamental_form(f, rng)
                t = _random_tp_transformation(f, rng)
                qt = q.transform(t)
                p, qq, r, s, u = t.p, t.q, t.r, t.s, t.u
                det2 = t.det() * t.det()
                scale = f.one / (u * det2)
                at, bt, ct = qt.a, qt.b, qt.c
                a = scale * (at * s * s - bt * r * s + ct * r * r)
                b = scale * (
                    -2 * at * qq * s + bt * (p * s + qq * r) - 2 * ct * p * r
                )
                c = scale * (at * qq * qq - bt * p * qq + ct * p * p)
                assert (a, b, c) == (q.a, q.b, q.c)

    def test_represented_values(self, rng):
        for tag in ("q", "q_sqrt2"):
            f = field(tag)
            for _ in range(10):
                q = random_fundamental_form(f, rng)
                t = _random_tp_transformation(f, rng)
                qt = q.transform(t)
                x0 = random_int_element(f, rng, 3)
                y0 = random_int_element(f, rng, 3)
                assert qt(x0, y0) == t.u * q(
                    t.p * x0 + t.q * y0, t.r * x0 + t.s * y0
                )

    def test_round_trip(self, rng):
        for tag in ("q", "q_i", "q_sqrt5"):
            f = field(tag)
            for _ in range(8):
                q = random_fundamental_form(f, rng)
                t = _random_tp_transformation(f, rng)
                qt = q.transform(t)
                det = t.det()
                inv_det = f.one / det
                t_inv = Transformation(
                    f,
                    t.s * inv_det,
                    -t.q * inv_det,
                    -t.r * inv_det,
                    t.p * inv_det,
                    u=f.one / t.u,
                )
                assert qt.transform(t_inv) == q

    def test_invalid_transformation(self):
        with pytest.raises(InvalidTransformation):
            Transformation(Q, 1, 0, 0, 2)  # det 2 not a unit
        with pytest.raises(InvalidTransformation):
            Transformation(Q, -1, 0, 0, 1)  # det -1 not totally positive
        with pytest.raises(InvalidTransformation):
            Transformation(Q, 1, 0, 0, 1, u=-1)
        with pytest.raises(InvalidTransformation):
            Transformation(Q, Fraction(1, 2), 0, 0, 2)


class TestAutomorph:
    def test_gaussian_rotation(self):
        e = make_extension(Q, -4)
        q = QuadraticForm(Q, 1, 0, 1)
        i = e.element(0, Fraction(1, 2))
        p0, q0, r0, s0 = automorph_from_unit(q, i)
        assert (p0, q0, r0, s0) == (Q(0), Q(-1), Q(1), Q(0))
        # the transform sends (x, y) to (-y, x), fixing the form pointwise
        for x0, y0 in ((Q(1), Q(0)), (Q(2), Q(3)), (Q(-1), Q(5))):
            assert q(-y0, x0) == q(x0, y0)
        _check_automorph_system(q, i, (p0, q0, r0, s0))

    def test_identity_automorph(self):
        e = make_extension(Q, -23)
        q = QuadraticForm(Q, 1, 1, 6)
        quad = automorph_from_unit(q, e.one)
        assert quad == (Q(1), Q(0), Q(0), Q(1))
        quad = automorph_from_unit(q, -e.one)
        assert quad == (Q(-1), Q(0), Q(0), Q(-1))

    def test_real_quadratic_units(self):
        e = make_extension(Q, 40)
        eps = fundamental_unit(e)
        for q in (QuadraticForm(Q, 1, 0, -10), QuadraticForm(Q, 2, 0, -5)):
            for k in (1, 2, 3):
                for mu in (eps**k, -(eps**k)):
                    _check_automorph_system(q, mu, automorph_from_unit(q, mu))

    def test_base_field_units_embedded(self):
        d = QS2(-2)
        e = make_extension(QS2, d)
        q = QuadraticForm(QS2, 1, QS2.omega, 1)
        assert q.disc() == d
        for mu in (e.from_base(QS2.fundamental_unit), e.one, -e.one):
            _check_automorph_system(q, mu, automorph_from_unit(q, mu))

    def test_errors(self):
        e = make_extension(Q, -4)
        q = QuadraticForm(Q, 1, 0, 1)
        with pytest.raises(NotAUnit):
            automorph_from_unit(q, e.element(2))
        q23 = QuadraticForm(Q, 1, 1, 6)
        with pytest.raises(DiscriminantMismatch):
            automorph_from_unit(q23, e.one)


def _check_automorph_system(q, mu, quad):
    # all four equations of the automorph system, and det = N(mu)
    p0, q0, r0, s0 = quad
    det = p0 * s0 - q0 * r0
    assert det == mu.norm()
    a, b, c = q.a, q.b, q.c
    assert det * a == a * p0 * p0 + b * p0 * r0 + c * r0 * r0
    assert det * b == 2 * a * p0 * q0 + b * (p0 * s0 + q0 * r0) + 2 * c * r0 * s0
    assert det * c == a * q0 * q0 + b * q0 * s0 + c * s0 * s0


class TestRootTransport:
    def test_identity(self):
        q = QuadraticForm(Q, 2, 1, 3)
        assert root_transport_check(q, q, Transformation(Q, 1, 0, 0, 1))

    def test_d23_shear(self):
        q = QuadraticForm(Q, 2, 1, 3)
        t = Transformation(Q, 1, 1, 0, 1)
        assert root_transport_check(q, q.transform(t), t)

    def test_random_small(self, rng):
        for tag in ("q", "q_sqrt5"):
            f = field(tag)
            for _ in range(10):
                q = random_fundamental_form(f, rng)
                while True:
                    p, qq, r, s = random_unimodular(f, rng)
                    if (p * s - qq * r).is_totally_positive():
                        break
                t = Transformation(f, p, qq, r, s)
                assert root_transport_check(q, q.transform(t), t)


class TestTotallyPositiveDefinite:
    def test_examples(self):
        assert QuadraticForm(Q, 1, 0, 1).is_tpd()
        assert not QuadraticForm(Q, -1, 0, -1).is_tpd()

    def test_sqrt2_leading_coefficient(self):
        w = QS2.omega  # sigma_2(w) < 0
        q = QuadraticForm(QS2, w, 0, QS2(1, 1))
        d = q.disc()
        assert all(s == -1 for s in d.signs())
        assert not q.is_tpd()

    def test_requires_totally_negative(self):
        with pytest.raises(DiscriminantNotTotallyNegative):
            QuadraticForm(Q, 1, 0, -10).is_tpd()

    def test_invariant_under_equivalence(self, rng):
        for _ in range(10):
            q = random_fundamental_form(QS5, rng, totally_negative=True)
            t = _random_tp_transformation(QS5, rng)
            assert q.transform(t).is_tpd() == q.is_tpd()


class TestReduction:
    def test_already_reduced(self):
        q = QuadraticForm(Q, 2, 1, 3)
        assert reduce_form_q(q) == q
        assert reduce_form_q(QuadraticForm(Q, 1, 0, 1)) == QuadraticForm(Q, 1, 0, 1)

    def test_spec_example(self):
        q = QuadraticForm(Q, 3, -1, 2)
        assert reduce_form_q(q) == QuadraticForm(Q, 2, 1, 3)

    def test_negative_definite(self):
        # the reduced form of -q is -(reduced form of q)
        want = QuadraticForm(Q, -2, -1, -3)
        assert reduce_form_q(QuadraticForm(Q, -4, 5, -3)) == want
        assert reduce_form_q(QuadraticForm(Q, -3, 1, -2)) == want

    def test_wrong_inputs(self):
        with pytest.raises(IndefiniteForm):
            reduce_form_q(QuadraticForm(Q, 1, 0, -10))
        with pytest.raises(WrongBase):
            reduce_form_q(QuadraticForm(QI, 1, 0, 1))

    def test_reduction_is_class_invariant(self, rng):
        for _ in range(15):
            q = random_fundamental_form(Q, rng)
            if int(q.disc().c0) > 0 or int(q.a.c0) < 0:
                continue
            t = _random_tp_transformation(Q, rng)
            assert reduce_form_q(q.transform(t)) == reduce_form_q(q)


class TestEnumeration:
    def test_minus4(self):
        assert enumerate_classes_q(-4) == [QuadraticForm(Q, 1, 0, 1)]

    def test_minus8(self):
        assert enumerate_classes_q(-8) == [QuadraticForm(Q, 1, 0, 2)]

    def test_minus23(self):
        got = enumerate_classes_q(-23)
        assert got == [
            QuadraticForm(Q, 1, 1, 6),
            QuadraticForm(Q, 2, -1, 3),
            QuadraticForm(Q, 2, 1, 3),
        ]

    def test_wrong_base(self):
        with pytest.raises(WrongBase):
            enumerate_classes_q(QS5(-4))

    def test_non_integral(self):
        # -47/2 must not be read as -23
        for d in (Fraction(-47, 2), Q(Fraction(-47, 2))):
            with pytest.raises(NotIntegral):
                enumerate_classes_q(d)

    def test_against_definition_oracle(self):
        # independent loops straight from the reduced-form definition
        def oracle(d):
            out = []
            for a in range(1, 40):
                for b in range(-a, a + 1):
                    num = b * b - d
                    if num % (4 * a):
                        continue
                    c = num // (4 * a)
                    if not (abs(b) <= a <= c):
                        continue
                    if b < 0 and (abs(b) == a or a == c):
                        continue
                    from math import gcd

                    if gcd(gcd(a, b), c) != 1:
                        continue
                    out.append((a, b, c))
            return sorted(out)

        for d in (-3, -4, -7, -8, -11, -15, -20, -23, -24, -47, -71):
            got = [(int(f.a.c0), int(f.b.c0), int(f.c.c0)) for f in enumerate_classes_q(d)]
            assert got == oracle(d), d

    def test_known_class_numbers(self):
        for d, h in [(-3, 1), (-4, 1), (-7, 1), (-8, 1), (-11, 1), (-15, 2),
                     (-19, 1), (-20, 2), (-23, 3), (-24, 2), (-31, 3),
                     (-35, 2), (-39, 4), (-40, 2), (-43, 1), (-47, 5),
                     (-55, 4), (-56, 4), (-67, 1), (-71, 7), (-95, 8),
                     (-163, 1)]:
            assert len(enumerate_classes_q(d)) == h

    def test_against_the_a_then_b_loop(self):
        # the enumeration that b-stepping replaced: a up to sqrt(-d/3), then
        # every b in (-a, a]
        def a_then_b(d):
            if d % 4 not in (0, 1):
                return []
            out = []
            for a in range(1, isqrt(-d // 3) + 1):
                for b in range(-a + 1, a + 1):
                    num = b * b - d
                    if num % (4 * a) == 0:
                        c = num // (4 * a)
                        if _is_reduced((a, b, c), d, 0) and gcd(gcd(a, b), c) == 1:
                            out.append((a, b, c))
            return out

        for d in range(-2000, 0):
            got = [(f.a.n0, f.b.n0, f.c.n0) for f in enumerate_classes_q(d)]
            assert got == a_then_b(d), d

    def test_dirichlet_class_number_formula(self):
        # h(d) = -(1/|d|) * sum_{0 < n < |d|} (d/n) n for fundamental d < -4;
        # (d/.) is completely multiplicative, so it is taken at primes only
        rng = random.Random(15)
        ds = set()
        while len(ds) < 8:
            d = rng.randrange(-30000, -4)
            if is_fundamental(Q(d)):
                ds.add(d)
        top = -min(ds)
        least = list(range(top))  # least prime factor, by a sieve
        for p in range(2, isqrt(top) + 1):
            if least[p] == p:
                for m in range(p * p, top, p):
                    least[m] = min(least[m], p)
        for d in sorted(ds):
            chi = [0, 1] + [0] * (-d - 2)
            for n in range(2, -d):
                p = least[n]
                chi[n] = _kronecker(d, p) if p == n else chi[p] * chi[n // p]
            total = sum(x * n for n, x in enumerate(chi))
            assert total % d == 0
            assert ocl_structure_q(d).h == total // d, d


def _kronecker(a, n):
    """The Kronecker symbol (a/n) for n > 0 (Cohen, GTM 138, Alg. 1.4.10)."""
    two = (0, 1, 0, -1, 0, -1, 0, 1)  # (a/2) by a mod 8, for odd a
    if a % 2 == 0 and n % 2 == 0:
        return 0
    k = 1
    while n % 2 == 0:
        n //= 2
        k *= two[a & 7]
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            k *= two[n & 7]
        if a & n & 2:
            k = -k  # reciprocity, a = n = 3 mod 4
        a, n = n % a, a
    return k if n == 1 else 0


class TestCycles:
    def test_narrow_class_numbers(self):
        # h+ = h with a norm -1 unit, 2h without one
        for d, h_plus in [(5, 1), (8, 1), (12, 2), (13, 1), (21, 2), (40, 2),
                          (60, 4), (65, 2), (136, 4), (229, 3), (481, 2)]:
            assert count_cycles_q(d) == h_plus, d
            assert count_cycles_q(Q(d)) == h_plus, d

    def test_non_discriminant_has_no_forms(self):
        assert count_cycles_q(7) == 0

    def test_rejects(self):
        for d in (0, 9, -4):
            with pytest.raises(ValueError):
                count_cycles_q(d)
        with pytest.raises(WrongBase):
            count_cycles_q(field("q_sqrt5")(5))
        for d in (Fraction(81, 2), Q(Fraction(81, 2))):
            with pytest.raises(NotIntegral):
                count_cycles_q(d)



def _reduced_indefinite(d):
    """Reduced primitive forms of discriminant d > 0, by brute force."""
    from math import gcd, isqrt

    out = []
    for b in range(1, isqrt(d) + 1):
        for a in range(-2 * d, 2 * d + 1):
            if a == 0 or (b * b - d) % (4 * a):
                continue
            c = (b * b - d) // (4 * a)
            lo, hi = 2 * abs(a) - b, 2 * abs(a) + b
            # |sqrt(d) - 2|a|| < b < sqrt(d), squared
            if b * b < d < hi * hi and (lo <= 0 or lo * lo < d):
                if gcd(gcd(a, b), c) == 1:
                    out.append(QuadraticForm(Q, a, b, c))
    return out


class TestProperEquivalence:
    def test_classes_match_cycle_count(self):
        # proper equivalence splits the reduced forms into h+ classes
        for d in (5, 12, 21, 40, 60, 136, 229, 316):
            forms = _reduced_indefinite(d)
            reps = []
            for f in forms:
                for g in reps:
                    t = proper_equivalence(g, f)
                    if t is not None:
                        assert g.transform(t) == f
                        break
                else:
                    reps.append(f)
            assert len(reps) == count_cycles_q(d), d

    def test_definite_reduced_forms_are_inequivalent(self):
        classes = enumerate_classes_q(-71)
        for f in classes:
            for g in classes:
                assert (proper_equivalence(f, g) is not None) == (f == g)

    def test_negative_definite(self):
        f = QuadraticForm(Q, -2, 1, -3)
        g = QuadraticForm(Q, -3, -1, -2)
        t = proper_equivalence(f, g)
        assert t is not None and f.transform(t) == g
        assert proper_equivalence(f, QuadraticForm(Q, 2, 1, 3)) is None

    def test_improper_is_not_proper(self):
        # (2, 1, 3) and (2, -1, 3) are only improperly equivalent
        assert proper_equivalence(QuadraticForm(Q, 2, 1, 3),
                                  QuadraticForm(Q, 2, -1, 3)) is None

    def test_rejects(self):
        with pytest.raises(DiscriminantMismatch):
            proper_equivalence(QuadraticForm(Q, 1, 0, 1), QuadraticForm(Q, 1, 1, 1))
        with pytest.raises(ValueError):
            proper_equivalence(QuadraticForm(Q, 1, 1, 0), QuadraticForm(Q, 1, 1, 0))
        with pytest.raises(WrongBase):
            proper_equivalence(QuadraticForm(QI, 1, 0, 1), QuadraticForm(QI, 1, 0, 1))
