"""Phi/Psi, composition, round trips, sign conditions, structure reports."""

from fractions import Fraction
from itertools import count
from math import gcd, isqrt

import pytest

from conftest import (
    forms_with_disc,
    random_fundamental_form,
    random_oriented_ideal,
)

from qfc import (
    EQUIVALENT,
    DiscriminantNotInClass,
    DiscriminantNotTotallyNegative,
    DomainError,
    IdealBasis,
    NotFundamental,
    NotIntegral,
    NotPrimitive,
    OrientationMismatch,
    OrientedIdeal,
    Q,
    QuadraticForm,
    SquareInput,
    Transformation,
    WrongBase,
    automorph_from_unit,
    canonical_disc,
    compose,
    enumerate_classes_q,
    field,
    fundamental_unit,
    identity_form,
    ideal_mul,
    inverse_form,
    is_fundamental,
    make_extension,
    ocl_structure_q,
    oriented_equivalent,
    phi,
    psi,
    reduce_form_q,
    roundtrip_gamma,
    tp_unit_sqrt,
    tpd_sign_check,
    verify_equivalence_witness,
)

QI = field("q_i")
QS2 = field("q_sqrt2")
QS5 = field("q_sqrt5")

E23 = make_extension(Q, -23)
E4 = make_extension(Q, -4)
E5N4 = make_extension(QS5, QS5(-4))


class TestPhi:
    def test_unit_ideal_gives_identity_form(self):
        a = OrientedIdeal(IdealBasis(E23.one, E23.omega), (1,))
        assert phi(a) == QuadraticForm(Q, 1, 1, 6)

    def test_spec_example(self):
        a = OrientedIdeal(IdealBasis(E23.element(2), E23.omega), (1,))
        assert phi(a) == QuadraticForm(Q, 2, 1, 3)

    def test_principal_scaling_same_form(self, rng):
        from conftest import random_gamma

        for ext in (E23, E5N4):
            one = OrientedIdeal(IdealBasis(ext.one, ext.omega), (1,) * ext.base.r)
            for _ in range(8):
                g = random_gamma(ext, rng)
                scaled = one.scale(g).align()
                assert phi(scaled) == phi(one)

    def test_requires_alignment(self):
        a = OrientedIdeal(IdealBasis(E23.one, E23.omega), (-1,))
        with pytest.raises(OrientationMismatch):
            phi(a)
        # the (-1)-oriented unit ideal maps to the negative definite twin
        assert phi(a.align()) == QuadraticForm(Q, -1, 1, -6)

    def test_imprimitive_image_is_domain_error(self, monkeypatch):
        # the invariant check must survive python -O, so it is no assert
        monkeypatch.setattr(QuadraticForm, "is_primitive", lambda self: False)
        a = OrientedIdeal(IdealBasis(E23.one, E23.omega), (1,))
        with pytest.raises(DomainError):
            phi(a)

    def test_disc_exact(self, rng):
        for ext in (E23, E4, E5N4):
            seed = forms_with_disc(ext.base, ext.d, 3)
            for _ in range(10):
                a = random_oriented_ideal(ext, rng, seed).align()
                q = phi(a)
                assert q.disc() == ext.d
                assert q.is_primitive()


class TestPsi:
    def test_examples(self):
        a = psi(QuadraticForm(Q, 1, 0, 1))
        assert a.basis.alpha == a.ext.one
        assert a.basis.beta == a.ext.element(0, Fraction(1, 2))
        assert a.eps == (1,)

        b = psi(QuadraticForm(Q, 2, 1, 3))
        assert b.basis.same_module(IdealBasis(E23.element(2), E23.omega))

        c = psi(identity_form(E23))
        assert c.basis.same_module(IdealBasis(E23.one, E23.omega))

    def test_not_primitive(self):
        with pytest.raises(NotPrimitive):
            psi(QuadraticForm(Q, 2, 2, 2))

    def test_wrong_orbit(self):
        with pytest.raises(DiscriminantNotInClass):
            psi(QuadraticForm(Q, 1, 0, 1), E23)

    def test_output_aligned(self, rng):
        for tag in ("q", "q_i", "q_sqrt2", "q_sqrt5"):
            f = field(tag)
            for _ in range(10):
                q = random_fundamental_form(f, rng)
                a = psi(q)
                assert a.is_aligned()

    def test_gaussian_negated_orbit(self):
        # over Q(i), disc -D lies in the orbit of D via u = i
        e = make_extension(QI, QI(0, 4))
        q = QuadraticForm(QI, 1, 0, QI(0, 1))  # disc -4i
        a = psi(q, e)
        assert a.is_aligned()
        back = phi(a)
        assert back.disc() == e.d
        u = tp_unit_sqrt(QI, q.disc() / e.d)
        assert back.scale(u) == q

    def test_unit_scaled_form_same_class(self):
        # psi(uQ) = (u) * psi(Q) exactly, elementwise, for tp units u
        eps2 = QS5.fundamental_unit ** 2
        q = QuadraticForm(QS5, 1, 0, 1)
        d_star = canonical_disc(QS5, q.disc())
        ext = make_extension(QS5, d_star)
        a = psi(q, ext)
        b = psi(q.scale(eps2), ext)
        assert b.basis.alpha == a.basis.alpha * ext.from_base(eps2)
        assert b.basis.beta == a.basis.beta * ext.from_base(eps2)
        assert b.eps == a.eps
        res = oriented_equivalent(a, b, 3)
        assert res.status == EQUIVALENT


class TestTpUnitSqrt:
    def test_powers_of_the_fundamental_unit(self):
        # eps has norm -1, so +eps^k is the square of a totally positive
        # unit exactly when 4 | k, and -eps^k never is
        for tag in ("q_sqrt2", "q_sqrt5", "q_sqrt13"):
            f = field(tag)
            eps = f.fundamental_unit
            for k in range(-30, 31):
                got = tp_unit_sqrt(f, eps**k)
                if k % 4:
                    assert got is None, (tag, k)
                else:
                    assert got == eps ** (k // 2), (tag, k)
                assert tp_unit_sqrt(f, -(eps**k)) is None, (tag, k)

    def test_rational_and_gaussian(self):
        assert tp_unit_sqrt(Q, Q(1)) == Q(1)
        assert tp_unit_sqrt(Q, Q(4)) is None and tp_unit_sqrt(Q, Q(-1)) is None
        assert tp_unit_sqrt(QI, QI(1)) == QI(1)
        assert tp_unit_sqrt(QI, QI(-1)) == QI.omega
        assert tp_unit_sqrt(QI, QI(0, 1)) is None
        assert tp_unit_sqrt(QS5, QS5(7)) is None


class TestIdentityAndInverse:
    def test_identity_forms(self):
        assert identity_form(E4) == QuadraticForm(Q, 1, 0, 1)
        assert identity_form(E23) == QuadraticForm(Q, 1, 1, 6)
        assert identity_form(make_extension(Q, 12)) == QuadraticForm(Q, 1, 0, -3)

    def test_inverse_form(self):
        q = QuadraticForm(Q, 2, 1, 3)
        assert inverse_form(q) == QuadraticForm(Q, 2, -1, 3)
        assert inverse_form(inverse_form(q)) == q
        idf = QuadraticForm(Q, 1, 0, 1)
        assert inverse_form(idf) == idf

    def test_not_primitive(self):
        with pytest.raises(NotPrimitive):
            inverse_form(QuadraticForm(Q, 2, 2, 2))

    def test_square_discriminant(self):
        # discriminants 1, 0 and 9, rejected as compose and psi reject them
        for a, b, c in ((0, 1, 0), (1, 2, 1), (1, 3, 0)):
            with pytest.raises(SquareInput):
                inverse_form(QuadraticForm(Q, a, b, c))


class TestCompose:
    def test_identity_neutral(self):
        q = QuadraticForm(Q, 2, 1, 3)
        res = compose(identity_form(E23), q)
        assert reduce_form_q(res) == q

    def test_d23_square(self):
        q = QuadraticForm(Q, 2, 1, 3)
        assert reduce_form_q(compose(q, q)) == QuadraticForm(Q, 2, -1, 3)

    def test_d23_inverse_pair(self):
        q = QuadraticForm(Q, 2, 1, 3)
        res = compose(q, inverse_form(q))
        assert reduce_form_q(res) == QuadraticForm(Q, 1, 1, 6)

    def test_disc_mismatch(self):
        with pytest.raises(DiscriminantNotInClass):
            compose(QuadraticForm(Q, 1, 0, 1), QuadraticForm(Q, 2, 1, 3))

    def test_given_extension(self, rng):
        # on every base, compose(q1, q2, ext) with ext built from the
        # canonical representative is compose(q1, q2); q2 is scaled by a
        # totally positive unit, so its discriminant is another orbit member
        for tag in ("q", "q_i", "q_sqrt2", "q_sqrt5", "q_sqrt13"):
            f = field(tag)
            if f.is_rational:
                unit = f.one
            elif f.r == 0:
                unit = f.omega
            else:
                unit = f.fundamental_unit ** 2
            for _ in range(3):
                q1 = random_fundamental_form(f, rng)
                ext = make_extension(f, canonical_disc(f, q1.disc()))
                q2 = rng.choice(forms_with_disc(f, ext.d, 3)).scale(unit)
                assert compose(q1, q2, ext) == compose(q1, q2), (tag, q1, q2)

    def test_given_extension_of_another_orbit(self):
        q = QuadraticForm(Q, 2, 1, 3)
        with pytest.raises(DiscriminantNotInClass) as info:
            compose(q, q, E4)
        assert "is not u^2 * -4" in str(info.value)
        q5 = QuadraticForm(QS5, 1, 0, 1)
        with pytest.raises(DiscriminantNotInClass):
            compose(q5, q5, make_extension(QS5, QS5(-8)))

    def test_d47_group_closure(self):
        # h(-47) = 5: the composition table is a group table (every row a
        # permutation, associative, cyclic)
        classes = enumerate_classes_q(-47)
        assert len(classes) == 5
        idx = {q: i for i, q in enumerate(classes)}
        table = {}
        for a in classes:
            row = [idx[reduce_form_q(compose(a, b))] for b in classes]
            assert sorted(row) == list(range(5))
            table[idx[a]] = row
        i0 = idx[QuadraticForm(Q, 1, 1, 12)]
        assert all(table[i0][j] == j for j in range(5))
        for a in range(5):
            for b in range(5):
                for c in range(5):
                    assert table[table[a][b]][c] == table[a][table[b][c]]

    def test_commutative_exactly(self, rng):
        for ext in (E23, E5N4):
            seed = forms_with_disc(ext.base, ext.d, 3)
            for _ in range(6):
                q1, q2 = rng.choice(seed), rng.choice(seed)
                assert compose(q1, q2) == compose(q2, q1)

    def test_associative_with_witness(self, rng):
        # constructive witness: both sides differ from phi(I1 I2 I3) by the
        # known round-trip gammas, so their psi images must be equivalent
        for ext in (E23, E5N4, make_extension(QS2, QS2(-2))):
            seed = forms_with_disc(ext.base, ext.d, 3)
            for _ in range(4):
                q1, q2, q3 = (rng.choice(seed) for _ in range(3))
                lhs = compose(compose(q1, q2), q3)
                rhs = compose(q1, compose(q2, q3))
                ia, ib = psi(lhs, ext), psi(rhs, ext)
                gamma = _associativity_witness(ext, q1, q2, q3)
                assert ia.scale(gamma[0]).basis.same_module(
                    ib.scale(gamma[1]).basis
                ) or oriented_equivalent(ia, ib, 3).status == EQUIVALENT


def _gauss_reduced(a, b, c):
    """The reduced form of the positive definite (a, b, c) over Z: shift b
    into (-a, a] by x -> x + ky, swap a and c while a > c, or a = c and
    b < 0."""
    while True:
        k = (a - b) // (2 * a)
        b, c = b + 2 * k * a, a * k * k + b * k + c
        if a < c or (a == c and b >= 0):
            return a, b, c
        a, b, c = c, -b, a


def _dirichlet(f, g):
    """Dirichlet composition of two primitive forms of one discriminant D.

    g is first moved in its class to a form with leading coefficient prime
    to a1, g(k, 1) or g(1, k).  A primitive g takes such values on one of
    the two lines: mod an odd prime neither is zero for every k, and mod 2
    both are only if a, b and c are even.  With
    gcd(a1, a2) = 1 the united middle coefficient B = b1 (mod 2 a1) and
    B = b2 (mod 2 a2) has B^2 = D (mod 4 a1 a2), and the composite is
    (a1 a2, B, (B^2 - D)/4 a1 a2).
    """
    a1, b1, c1 = f
    a, b, c = g
    d = b1 * b1 - 4 * a1 * c1
    moved = (
        ((a * k * k + b * k + c, -2 * a * k - b, a),  # g(kx - y, x)
         (a + b * k + c * k * k, b + 2 * c * k, c))  # g(x, kx + y)
        for k in count()
    )
    a2, b2, c2 = next(h for pair in moved for h in pair if gcd(a1, h[0]) == 1)
    t = (b2 - b1) // 2 * pow(a1, -1, a2) % a2 if a2 > 1 else 0
    big_b = b1 + 2 * a1 * t
    return a1 * a2, big_b, (big_b * big_b - d) // (4 * a1 * a2)


def _random_primitive_form(rng, d):
    """A primitive positive definite form of discriminant d < 0, moved off
    its reduced representative by a random unimodular change of variables."""
    while True:
        b = rng.randrange(d % 2, isqrt(-d) + 1, 2)
        n = (b * b - d) // 4
        a = rng.choice([a for a in range(1, isqrt(n) + 1) if n % a == 0])
        if gcd(a, b, n // a) == 1:
            break
    c = n // a
    for _ in range(rng.randint(1, 4)):
        k = rng.randint(-3, 3)
        a, b, c = a, b + 2 * k * a, a * k * k + b * k + c  # x -> x + ky
        a, b, c = c, -b, a  # (x, y) -> (-y, x)
    return a, b, c


def _is_fundamental_neg(d):
    """Whether d < 0 is a fundamental discriminant."""
    m = d if d % 4 == 1 else d // 4
    if d % 4 == 0 and m % 4 not in (2, 3):
        return False
    return d % 4 in (0, 1) and all(m % (p * p) for p in range(2, isqrt(-m) + 1))


class TestComposeAgainstDirichlet:
    def test_reduced_composite_over_q(self, rng):
        # the differential oracle over Q: phi(psi(f) psi(g)), reduced, is
        # Dirichlet composition followed by Gauss reduction, both written
        # here on plain integers
        discs = [d for d in range(-2999, 0) if _is_fundamental_neg(d)]
        for _ in range(60):
            d = rng.choice(discs)
            f, g = _random_primitive_form(rng, d), _random_primitive_form(rng, d)
            got = reduce_form_q(compose(QuadraticForm(Q, *f), QuadraticForm(Q, *g)))
            want = _gauss_reduced(*_dirichlet(f, g))
            assert (got.a, got.b, got.c) == want, (d, f, g)

    def test_oracle_moves_g(self):
        # every g(k, 1) = 3k^2 + k + 2 is even and a1 = 6, so the oracle
        # moves g to g(x, kx + y), first at k = 2
        f, g = (6, 1, 1), (3, 1, 2)
        got = reduce_form_q(compose(QuadraticForm(Q, *f), QuadraticForm(Q, *g)))
        assert (got.a, got.b, got.c) == _gauss_reduced(*_dirichlet(f, g))


def _associativity_witness(ext, q1, q2, q3):
    i1, i2, i3 = (psi(q, ext) for q in (q1, q2, q3))
    i12 = ideal_mul(i1, i2)
    g12 = roundtrip_gamma(i12)
    left = ideal_mul(psi(phi(i12), ext), i3)
    gl = roundtrip_gamma(left)
    i23 = ideal_mul(i2, i3)
    g23 = roundtrip_gamma(i23)
    right = ideal_mul(i1, psi(phi(i23), ext))
    gr = roundtrip_gamma(right)
    # gamma * psi(phi(J)) = J; accumulate the mismatch on both sides
    return (g12 * gl, g23 * gr)


class TestRoundtrips:
    def test_unit_ideal(self):
        a = OrientedIdeal(IdealBasis(E23.one, E23.omega), (1,))
        assert roundtrip_gamma(a) == E23.one

    def test_spec_example_norm2(self):
        a = OrientedIdeal(IdealBasis(E23.element(2), E23.omega), (1,))
        assert roundtrip_gamma(a) == E23.one  # det M / conj alpha = 2/2

    def test_principal(self, rng):
        from conftest import random_gamma
        from qfc import principal_oriented

        for ext in (E23, E5N4):
            for _ in range(6):
                g = random_gamma(ext, rng)
                # for the basis [g, gW]: det M / conj(g) = N(g)/conj(g) = g
                a = principal_oriented(g)
                assert roundtrip_gamma(a) == g

    def test_phi_psi_is_unit_scaling(self, rng):
        # phi(psi(Q)) = (1/u) Q for a totally positive unit u; exact over Q
        for tag in ("q", "q_i", "q_sqrt2", "q_sqrt5"):
            f = field(tag)
            for _ in range(15):
                q = random_fundamental_form(f, rng)
                back = phi(psi(q))
                u = tp_unit_sqrt(f, q.disc() / back.disc())
                assert u is not None
                assert back.scale(u) == q
                if f.is_rational:
                    assert back == q

    def test_failed_witness_raises(self, monkeypatch):
        import qfc.correspondence

        wrong = QuadraticForm(Q, 2, 1, 3)
        monkeypatch.setattr(qfc.correspondence, "phi", lambda a: wrong)
        a = OrientedIdeal(IdealBasis(E23.one, E23.omega), (1,))
        with pytest.raises(DomainError, match="round-trip witness"):
            roundtrip_gamma(a)

    def test_psi_phi_witnessed(self, rng):
        for ext in (E23, E4, E5N4):
            seed = forms_with_disc(ext.base, ext.d, 3)
            for _ in range(10):
                a = random_oriented_ideal(ext, rng, seed)
                gamma = roundtrip_gamma(a)  # verifies internally
                aligned = a.align()
                image = psi(phi(aligned), ext).scale(gamma)
                assert image.basis.same_module(aligned.basis)
                assert image.eps == aligned.eps


class TestBasisChangeWellDefined:
    def test_sign_preserving_change_gives_equivalent_forms(self):
        # over D = 40 the fundamental unit has norm -1, so a basis change of
        # determinant -1 keeps the oriented class; the composed automorph
        # transformation is an explicit equivalence witness
        ext = make_extension(Q, 40)
        mu = fundamental_unit(ext)  # norm -1
        assert mu.norm() == Q(-1)
        a = psi(QuadraticForm(Q, 2, 0, -5), ext)
        alpha, beta = a.basis.alpha, a.basis.beta
        p, q, r, s = Q(-1), Q(0), Q(0), Q(1)  # det -1
        changed = IdealBasis(alpha * ext.from_base(p), beta)
        b = OrientedIdeal(changed, a.eps)  # same module, same eps
        res = oriented_equivalent(a, b)
        assert res.status == EQUIVALENT
        qa = phi(a)
        # the raw norm form of the changed basis (its own orientation)
        qb = phi(OrientedIdeal(changed, changed.orientation()))
        # explicit composed witness: automorph of mu times the change matrix
        p0, q0, r0, s0 = automorph_from_unit(qa, mu)
        m_star = (
            p0 * p - q0 * r,
            -p0 * q + q0 * s,
            r0 * p - s0 * r,
            -r0 * q + s0 * s,
        )
        u_star = Q(1) / ((p * s - q * r) * mu.norm())
        t = Transformation(Q, *m_star, u=u_star)
        assert verify_equivalence_witness(qa, qb, t)


class TestSignConditions:
    def test_unit_ideal_all_true(self):
        a = OrientedIdeal(IdealBasis(E23.one, E23.omega), (1,))
        assert tpd_sign_check(a, 0) == (True, True, True)

    def test_negated(self):
        basis = IdealBasis(-E23.one, E23.omega, _checked=True)
        a = OrientedIdeal(basis, (-1,))
        assert tpd_sign_check(a, 0) == (False, False, False)

    def test_three_conditions_agree(self, rng):
        for ext in (E23, E5N4):
            seed = forms_with_disc(ext.base, ext.d, 3)
            for _ in range(15):
                a = random_oriented_ideal(ext, rng, seed)
                for i in range(ext.base.r):
                    triple = tpd_sign_check(a, i)
                    assert len(set(triple)) == 1

    def test_requires_totally_negative(self):
        e40 = make_extension(Q, 40)
        a = OrientedIdeal(IdealBasis(e40.one, e40.omega), (1,))
        with pytest.raises(DiscriminantNotTotallyNegative):
            tpd_sign_check(a, 0)

    def test_tpd_iff_all_positive_eps(self, rng):
        for ext in (E23, E5N4):
            seed = forms_with_disc(ext.base, ext.d, 3)
            for _ in range(12):
                a = random_oriented_ideal(ext, rng, seed).align()
                q = phi(a)
                assert q.is_tpd() == all(e == 1 for e in a.eps)


class TestOclStructure:
    def test_d_minus23(self):
        rep = ocl_structure_q(-23)
        assert (rep.case, rep.h, rep.ocl_order) == (1, 3, 6)

    def test_d_minus4(self):
        rep = ocl_structure_q(-4)
        assert (rep.case, rep.h, rep.ocl_order) == (1, 1, 2)

    def test_d_40(self):
        rep = ocl_structure_q(40)
        assert (rep.case, rep.h, rep.ocl_order) == (3, 2, 2)
        assert rep.unit == make_extension(Q, 40).element(3, Fraction(1, 2))
        assert rep.unit_norm == -1

    def test_d_12(self):
        rep = ocl_structure_q(12)
        assert (rep.case, rep.h, rep.ocl_order) == (2, 1, 2)
        assert rep.unit_norm == 1

    def test_more_real_class_numbers(self):
        # classical values: (h, case); case 3 iff the fundamental unit has
        # norm -1
        table = {5: (1, 3), 8: (1, 3), 13: (1, 3), 17: (1, 3), 21: (1, 2),
                 24: (1, 2), 28: (1, 2), 60: (2, 2), 65: (2, 3), 85: (2, 3),
                 104: (2, 3), 136: (2, 2), 229: (3, 3),
                 # fundamental units of 40 and 71 digits
                 7001: (1, 3), 10009: (1, 3)}
        for d, (h, case) in table.items():
            rep = ocl_structure_q(d)
            assert (rep.h, rep.case) == (h, case), d
            assert rep.ocl_order == (h if case == 3 else 2 * h)
            assert rep.unit_norm == (-1 if case == 3 else 1)

    def test_frozen_real_table(self):
        # every fundamental 5 <= D < 481, and 649, as the earlier
        # classification of ideals below the Minkowski bound reported them
        fundamental = {
            d for d in range(5, 481)
            if d % 4 in (0, 1) and isqrt(d) ** 2 != d and is_fundamental(Q(d))
        }
        assert set(REAL_TABLE) == fundamental | {649}
        for d, row in REAL_TABLE.items():
            rep = ocl_structure_q(d)
            assert (rep.case, rep.h, rep.ocl_order, rep.unit_norm) == row, d

    def test_rejects(self):
        with pytest.raises(NotFundamental):
            ocl_structure_q(-21)
        for d in (-21, -16, 12 * 4, 45):
            with pytest.raises(NotFundamental) as info:
                ocl_structure_q(d)
            assert str(info.value) == f"{d} is not a fundamental discriminant"
        with pytest.raises(WrongBase):
            ocl_structure_q(QS5(-4))

    def test_non_integral(self):
        # -47/2 must not be read as -23
        for d in (Fraction(-47, 2), Q(Fraction(-47, 2))):
            with pytest.raises(NotIntegral) as info:
                ocl_structure_q(d)
            assert str(info.value) == "fundamentality requires an element of O_K"


# (case, h, ocl_order, unit_norm) per fundamental D > 0
REAL_TABLE = {
    5: (3, 1, 1, -1), 8: (3, 1, 1, -1), 12: (2, 1, 2, 1), 13: (3, 1, 1, -1),
    17: (3, 1, 1, -1), 21: (2, 1, 2, 1), 24: (2, 1, 2, 1), 28: (2, 1, 2, 1),
    29: (3, 1, 1, -1), 33: (2, 1, 2, 1), 37: (3, 1, 1, -1), 40: (3, 2, 2, -1),
    41: (3, 1, 1, -1), 44: (2, 1, 2, 1), 53: (3, 1, 1, -1), 56: (2, 1, 2, 1),
    57: (2, 1, 2, 1), 60: (2, 2, 4, 1), 61: (3, 1, 1, -1), 65: (3, 2, 2, -1),
    69: (2, 1, 2, 1), 73: (3, 1, 1, -1), 76: (2, 1, 2, 1), 77: (2, 1, 2, 1),
    85: (3, 2, 2, -1), 88: (2, 1, 2, 1), 89: (3, 1, 1, -1), 92: (2, 1, 2, 1),
    93: (2, 1, 2, 1), 97: (3, 1, 1, -1), 101: (3, 1, 1, -1), 104: (3, 2, 2, -1),
    105: (2, 2, 4, 1), 109: (3, 1, 1, -1), 113: (3, 1, 1, -1), 120: (2, 2, 4, 1),
    124: (2, 1, 2, 1), 129: (2, 1, 2, 1), 133: (2, 1, 2, 1), 136: (2, 2, 4, 1),
    137: (3, 1, 1, -1), 140: (2, 2, 4, 1), 141: (2, 1, 2, 1), 145: (3, 4, 4, -1),
    149: (3, 1, 1, -1), 152: (2, 1, 2, 1), 156: (2, 2, 4, 1), 157: (3, 1, 1, -1),
    161: (2, 1, 2, 1), 165: (2, 2, 4, 1), 168: (2, 2, 4, 1), 172: (2, 1, 2, 1),
    173: (3, 1, 1, -1), 177: (2, 1, 2, 1), 181: (3, 1, 1, -1), 184: (2, 1, 2, 1),
    185: (3, 2, 2, -1), 188: (2, 1, 2, 1), 193: (3, 1, 1, -1), 197: (3, 1, 1, -1),
    201: (2, 1, 2, 1), 204: (2, 2, 4, 1), 205: (2, 2, 4, 1), 209: (2, 1, 2, 1),
    213: (2, 1, 2, 1), 217: (2, 1, 2, 1), 220: (2, 2, 4, 1), 221: (2, 2, 4, 1),
    229: (3, 3, 3, -1), 232: (3, 2, 2, -1), 233: (3, 1, 1, -1), 236: (2, 1, 2, 1),
    237: (2, 1, 2, 1), 241: (3, 1, 1, -1), 248: (2, 1, 2, 1), 249: (2, 1, 2, 1),
    253: (2, 1, 2, 1), 257: (3, 3, 3, -1), 264: (2, 2, 4, 1), 265: (3, 2, 2, -1),
    268: (2, 1, 2, 1), 269: (3, 1, 1, -1), 273: (2, 2, 4, 1), 277: (3, 1, 1, -1),
    280: (2, 2, 4, 1), 281: (3, 1, 1, -1), 284: (2, 1, 2, 1), 285: (2, 2, 4, 1),
    293: (3, 1, 1, -1), 296: (3, 2, 2, -1), 301: (2, 1, 2, 1), 305: (2, 2, 4, 1),
    309: (2, 1, 2, 1), 312: (2, 2, 4, 1), 313: (3, 1, 1, -1), 316: (2, 3, 6, 1),
    317: (3, 1, 1, -1), 321: (2, 3, 6, 1), 328: (3, 4, 4, -1), 329: (2, 1, 2, 1),
    332: (2, 1, 2, 1), 337: (3, 1, 1, -1), 341: (2, 1, 2, 1), 344: (2, 1, 2, 1),
    345: (2, 2, 4, 1), 348: (2, 2, 4, 1), 349: (3, 1, 1, -1), 353: (3, 1, 1, -1),
    357: (2, 2, 4, 1), 364: (2, 2, 4, 1), 365: (3, 2, 2, -1), 373: (3, 1, 1, -1),
    376: (2, 1, 2, 1), 377: (2, 2, 4, 1), 380: (2, 2, 4, 1), 381: (2, 1, 2, 1),
    385: (2, 2, 4, 1), 389: (3, 1, 1, -1), 393: (2, 1, 2, 1), 397: (3, 1, 1, -1),
    401: (3, 5, 5, -1), 408: (2, 2, 4, 1), 409: (3, 1, 1, -1), 412: (2, 1, 2, 1),
    413: (2, 1, 2, 1), 417: (2, 1, 2, 1), 421: (3, 1, 1, -1), 424: (3, 2, 2, -1),
    428: (2, 1, 2, 1), 429: (2, 2, 4, 1), 433: (3, 1, 1, -1), 437: (2, 1, 2, 1),
    440: (2, 2, 4, 1), 444: (2, 2, 4, 1), 445: (3, 4, 4, -1), 449: (3, 1, 1, -1),
    453: (2, 1, 2, 1), 456: (2, 2, 4, 1), 457: (3, 1, 1, -1), 460: (2, 2, 4, 1),
    461: (3, 1, 1, -1), 465: (2, 2, 4, 1), 469: (2, 3, 6, 1), 472: (2, 1, 2, 1),
    473: (2, 3, 6, 1), 476: (2, 2, 4, 1), 649: (2, 1, 2, 1),

}
