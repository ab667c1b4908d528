"""Ideal bases, orientation, reduction, multiplication, and equivalence."""

from fractions import Fraction
from itertools import permutations, product

import pytest

from conftest import (
    forms_with_disc,
    random_gamma,
    random_int_element,
    random_oriented_ideal,
    random_unimodular,
)

from qfc import (
    EQUIVALENT,
    NOT_EQUIVALENT,
    DegenerateBasis,
    ExtensionMismatch,
    IdealBasis,
    NotAnIdeal,
    OrientedIdeal,
    Q,
    QuadraticForm,
    RankDeficient,
    ZeroArgument,
    field,
    ideal_mul,
    make_extension,
    oriented_equivalent,
    principal_generator_q,
    principal_oriented,
    psi,
    reduce_generators,
)
from qfc.ideals import _coordinate_box
from qfc.lattice import short_vectors

QI = field("q_i")
QS5 = field("q_sqrt5")

E23 = make_extension(Q, -23)
E40 = make_extension(Q, 40)
E5N4 = make_extension(QS5, QS5(-4))
# one extension per base for the laws of reduce_generators
REGENERATION_EXTS = (
    E23,
    E5N4,
    make_extension(QI, QI(4, -2)),
    make_extension(field("q_sqrt2"), field("q_sqrt2")(-1, 2)),
    make_extension(field("q_sqrt13"), field("q_sqrt13")(-3)),
)


def unit_ideal(ext):
    return IdealBasis(ext.one, ext.omega)


class TestDetM:
    def test_canonical_basis(self):
        assert unit_ideal(E23).det_m() == Q(1)

    def test_spec_example(self):
        b = IdealBasis(E23.element(2), E23.omega)
        assert b.det_m() == Q(2)

    def test_principal_scaling(self, rng):
        # det of [g, gW] is N(g) * det([1, W]) = N(g), exactly
        for ext in (E23, E40, E5N4):
            for _ in range(15):
                g = random_gamma(ext, rng)
                b = IdealBasis(g, g * ext.omega, _checked=True)
                assert b.det_m() == g.norm()

    def test_definition_agrees(self, rng):
        # the coordinate shortcut equals (conj(a) b - a conj(b)) / (W - conj W)
        for ext in (E23, E5N4):
            for _ in range(10):
                a = random_gamma(ext, rng)
                b = random_gamma(ext, rng)
                denom = ext.omega - ext.omega.conj()
                expected = (a.conj() * b - a * b.conj()) / denom
                got = a.x * b.y - a.y * b.x
                assert expected.y.is_zero() and expected.x == got + got

    def test_same_module_rejects_a_submodule(self):
        # k*[1, W] lies inside [1, W] with det M multiplied by k^2:
        # containment alone is not equality
        for ext, k in ((E5N4, 2), (E23, 3)):
            big = unit_ideal(ext)
            small = big.scale(k)
            assert big.contains(small.alpha) and big.contains(small.beta)
            assert not big.same_module(small)
            assert not small.same_module(big)
            assert big.same_module(big.scale(-1))

    def test_degenerate(self):
        with pytest.raises(DegenerateBasis):
            IdealBasis(E23.element(2), E23.element(3))


class TestOrientation:
    def test_unit_ideal_positive(self):
        assert unit_ideal(E23).orientation() == (1,)
        assert unit_ideal(E5N4).orientation() == (1, 1)

    def test_negated_alpha(self):
        b = IdealBasis(-E23.one, E23.omega, _checked=True)
        assert b.orientation() == (-1,)

    def test_gaussian_empty(self):
        e = make_extension(QI, QI(0, 4))
        assert unit_ideal(e).orientation() == ()

    def test_scale_by_zero(self):
        # the sign vector of N(0) is undefined on every base, Q(i) included
        for ext in (E23, E5N4, make_extension(QI, QI(0, 4))):
            ideal = OrientedIdeal(unit_ideal(ext), (1,) * ext.base.r)
            with pytest.raises(ZeroArgument):
                ideal.scale(ext.zero)

    def test_basis_change_scales_det(self, rng):
        for ext in (E23, E40, E5N4):
            base = ext.base
            ideal = unit_ideal(ext)
            for _ in range(20):
                p, q, r, s = random_unimodular(base, rng)
                det = p * s - q * r
                fp, fq, fr, fs = (ext.from_base(v) for v in (p, q, r, s))
                changed = IdealBasis(
                    fp * ideal.alpha + fr * ideal.beta,
                    fq * ideal.alpha + fs * ideal.beta,
                )
                assert changed.det_m() == det * ideal.det_m()

    def test_integral_basis_integral_det(self, rng):
        for ext in (E23, E5N4):
            for _ in range(15):
                a = random_gamma(ext, rng)
                b = random_gamma(ext, rng)
                ga = IdealBasis(a, a * ext.omega, _checked=True)
                if a.is_integral() and (a * ext.omega).is_integral():
                    assert ga.det_m().is_integral()


class TestReduceGenerators:
    def test_ring_of_integers(self):
        om = E23.omega
        b = reduce_generators([E23.one, om, om * om], E23)
        assert b.same_module(unit_ideal(E23))
        assert b.alpha == E23.one and b.beta == om

    def test_spec_norm2_example(self):
        om = E23.omega
        two = E23.element(2)
        b = reduce_generators([two, two * om, om, om * om], E23)
        assert b.same_module(IdealBasis(two, om))
        assert b.det_m() == Q(2)

    def test_scaling_commutes(self, rng):
        om = E23.omega
        gens = [E23.element(2), E23.element(2) * om, om]
        b = reduce_generators(gens, E23)
        for k in (2, 3, 5):
            kb = reduce_generators([g * k for g in gens], E23)
            assert kb.same_module(b.scale(k))

    def test_rank_deficient(self):
        with pytest.raises(RankDeficient):
            reduce_generators([E23.element(2), E23.element(3)], E23)
        with pytest.raises(RankDeficient):
            reduce_generators([E23.zero], E23)

    def test_canonical_under_regeneration(self, rng):
        # the reduced basis depends only on the module, on all five bases
        for ext in REGENERATION_EXTS:
            seed = forms_with_disc(ext.base, ext.d, 3)
            for _ in range(8):
                a = random_oriented_ideal(ext, rng, seed)
                basis = a.basis
                b1 = reduce_generators([basis.alpha, basis.beta], ext)
                # regenerate from sheared generators of the same module
                p, q, r, s = random_unimodular(ext.base, rng)
                g1 = ext.from_base(p) * basis.alpha + ext.from_base(r) * basis.beta
                g2 = ext.from_base(q) * basis.alpha + ext.from_base(s) * basis.beta
                b2 = reduce_generators([g1, g2, basis.alpha], ext)
                assert b1.alpha == b2.alpha and b1.beta == b2.beta
                assert b1.same_module(basis)
                # the four products of a product basis, in every order and
                # with redundant O_K-combinations of them added
                other = random_oriented_ideal(ext, rng, seed).basis
                gens = [x * y for x in (basis.alpha, basis.beta)
                        for y in (other.alpha, other.beta)]
                want = reduce_generators(gens, ext)
                for perm in permutations(gens):
                    assert reduce_generators(list(perm), ext) == want
                k1, k2 = (
                    ext.from_base(random_int_element(ext.base, rng)) for _ in "12"
                )
                extra = [k1 * gens[0] + k2 * gens[3], gens[1] - k1 * gens[2]]
                mixed = extra + gens
                rng.shuffle(mixed)
                assert reduce_generators(mixed, ext) == want


class TestConjInverse:
    def test_identity_self_inverse(self):
        a = OrientedIdeal(unit_ideal(E23), (1,))
        inv = a.conj_inverse()
        assert inv.basis.same_module(a.basis)
        assert inv.eps == a.eps

    def test_spec_example(self):
        b = IdealBasis(E23.element(2), E23.omega)
        inv = OrientedIdeal(b, (1,)).conj_inverse()
        # [2, (1+sqrt-23)/2] up to basis sign
        expected = IdealBasis(
            E23.element(2), E23.element(Fraction(1, 2), Fraction(1, 2))
        )
        assert inv.basis.same_module(expected)

    def test_double_application(self):
        b = IdealBasis(E23.element(2), E23.omega)
        a = OrientedIdeal(b, (1,))
        twice = a.conj_inverse().conj_inverse()
        assert twice.basis.same_module(b)
        assert twice.basis.alpha == b.alpha and twice.basis.beta == b.beta

    def test_product_is_principal_det(self, rng):
        # I * [conj a, -conj b] = (det M), as modules (inverse proposition)
        for ext in (E23, E40, E5N4):
            seed = forms_with_disc(ext.base, ext.d, 3)
            for _ in range(10):
                a = random_oriented_ideal(ext, rng, seed)
                prod = ideal_mul(a, a.conj_inverse())
                det = a.basis.det_m()
                principal = IdealBasis(
                    ext.from_base(det), ext.from_base(det) * ext.omega, _checked=True
                )
                assert prod.basis.same_module(principal)
                # oriented: the product is the principal oriented ideal of det
                expected = principal_oriented(ext.from_base(det))
                assert prod.eps == expected.eps


class TestIdealMul:
    def test_identity(self, rng):
        for ext in (E23, E5N4):
            one = OrientedIdeal(unit_ideal(ext), (1,) * ext.base.r)
            seed = forms_with_disc(ext.base, ext.d, 3)
            for _ in range(8):
                a = random_oriented_ideal(ext, rng, seed)
                prod = ideal_mul(one, a)
                assert prod.basis.same_module(a.basis)
                assert prod.eps == a.eps

    def test_extension_mismatch(self):
        a = OrientedIdeal(unit_ideal(E23), (1,))
        b = OrientedIdeal(unit_ideal(E40), (1,))
        with pytest.raises(ExtensionMismatch):
            ideal_mul(a, b)

    def test_square_of_norm2_prime(self):
        # ([2, W]; +1)^2 has relative norm 4
        a = OrientedIdeal(IdealBasis(E23.element(2), E23.omega), (1,))
        sq = ideal_mul(a, a)
        assert sq.basis.det_m() == Q(4)
        assert sq.eps == (1,)

    def test_aligned_output(self, rng):
        for ext in (E23, E5N4):
            seed = forms_with_disc(ext.base, ext.d, 3)
            for _ in range(10):
                a = random_oriented_ideal(ext, rng, seed)
                b = random_oriented_ideal(ext, rng, seed)
                prod = ideal_mul(a, b)
                assert prod.is_aligned()
                assert prod.eps == tuple(x * y for x, y in zip(a.eps, b.eps))

    def test_norm_multiplicative_up_to_tp_unit(self, rng):
        for ext in (E23, E40, E5N4):
            seed = forms_with_disc(ext.base, ext.d, 3)
            for _ in range(10):
                a = random_oriented_ideal(ext, rng, seed)
                b = random_oriented_ideal(ext, rng, seed)
                prod = ideal_mul(a, b)
                ratio = prod.basis.det_m() / (a.basis.det_m() * b.basis.det_m())
                assert ratio.is_unit()
                if ext.base.r > 0:
                    # both sides carry the same orientation, so the unit is
                    # totally positive exactly when the inputs were aligned
                    aa, bb = a.align(), b.align()
                    prod2 = ideal_mul(aa, bb)
                    ratio2 = prod2.basis.det_m() / (
                        aa.basis.det_m() * bb.basis.det_m()
                    )
                    assert ratio2.is_totally_positive()

    def test_scaling_by_gamma(self, rng):
        for ext in (E23, E5N4):
            seed = forms_with_disc(ext.base, ext.d, 3)
            for _ in range(10):
                a = random_oriented_ideal(ext, rng, seed)
                g = random_gamma(ext, rng)
                scaled = a.basis.scale(g)
                assert scaled.det_m() == g.norm() * a.basis.det_m()
                if ext.base.r > 0:
                    expected = tuple(
                        s * t
                        for s, t in zip(a.basis.orientation(), g.norm().signs())
                    )
                    assert scaled.orientation() == expected


class TestIntegralCoeff:
    def test_phi_numerators(self, rng):
        # a = N(alpha)/det, b = tr-term/det, c = N(beta)/det are integral and
        # coprime, and b^2 - 4ac recovers D exactly
        from qfc import gcd_k

        for ext in (E23, E40, E5N4):
            seed = forms_with_disc(ext.base, ext.d, 3)
            for _ in range(12):
                a = random_oriented_ideal(ext, rng, seed)
                alpha, beta = a.basis.alpha, a.basis.beta
                det = a.basis.det_m()
                ca = alpha.norm() / det
                cc = beta.norm() / det
                mid = (alpha.conj() * beta + alpha * beta.conj()).x / det
                for v in (ca, cc, mid):
                    assert v.is_integral()
                assert gcd_k(gcd_k(ca, mid), cc).is_unit()
                assert mid * mid - 4 * ca * cc == ext.d


class TestOrientedEquivalent:
    def test_reflexive(self):
        a = OrientedIdeal(IdealBasis(E23.element(2), E23.omega), (1,))
        res = oriented_equivalent(a, a)
        assert res.status == EQUIVALENT
        assert res.gamma.norm().is_unit()

    def test_orientation_obstruction_d_negative(self):
        one = unit_ideal(E23)
        a = OrientedIdeal(one, (1,))
        b = OrientedIdeal(one, (-1,))
        assert oriented_equivalent(a, b).status == NOT_EQUIVALENT

    def test_distinct_classes_d23(self):
        a = psi(QuadraticForm(Q, 2, 1, 3))
        b = psi(QuadraticForm(Q, 2, -1, 3))
        for bound in (10, 50):
            assert oriented_equivalent(a, b, bound).status == NOT_EQUIVALENT

    def test_d40_orientations_merge(self):
        # norm -1 unit makes (O_L; +1) and (O_L; -1) equivalent
        one = unit_ideal(E40)
        a = OrientedIdeal(one, (1,))
        b = OrientedIdeal(one, (-1,))
        res = oriented_equivalent(a, b)
        assert res.status == EQUIVALENT
        assert res.gamma.norm() == Q(-1)

    def test_d12_orientations_split(self):
        e12 = make_extension(Q, 12)
        one = unit_ideal(e12)
        a = OrientedIdeal(one, (1,))
        b = OrientedIdeal(one, (-1,))
        assert oriented_equivalent(a, b).status == NOT_EQUIVALENT

    def test_witness_verified(self, rng):
        # equivalence via explicit scaling is recovered with a valid witness
        for ext in (E23, E5N4):
            seed = forms_with_disc(ext.base, ext.d, 3)
            for _ in range(6):
                a = random_oriented_ideal(ext, rng, seed)
                g = random_gamma(ext, rng)
                b = a.scale(g)
                res = oriented_equivalent(a, b, 4)
                assert res.status == EQUIVALENT
                scaled = a.basis.scale(res.gamma)
                assert scaled.same_module(b.basis)

    def test_extension_mismatch(self):
        a = OrientedIdeal(unit_ideal(E23), (1,))
        b = OrientedIdeal(unit_ideal(E40), (1,))
        with pytest.raises(ExtensionMismatch):
            oriented_equivalent(a, b)

    def test_unknown_when_bound_exhausted(self):
        # over Q(i) the box search is bounded and three-valued: no associate
        # of 1 + t*W with |N(t)| >= 40 has coordinates inside the box
        ext = make_extension(QI, QI(7))
        a = principal_oriented(ext.one)
        b = a.scale(ext.from_module_coords(QI.one, QI(5, 4)))
        for bound in (0, 2):
            assert oriented_equivalent(a, b, bound).status == "unknown"

    def test_far_witness_cm(self, rng, monkeypatch):
        # real quadratic K, D totally negative: LLL makes a far witness a
        # short vector, so the enumeration tries few vectors at any bound
        import qfc.ideals

        tried = []

        def counting(gram, bound):
            for item in short_vectors(gram, bound):
                tried.append(item)
                yield item

        monkeypatch.setattr(qfc.ideals, "short_vectors", counting)
        seed = forms_with_disc(QS5, E5N4.d, 3)
        a = random_oriented_ideal(E5N4, rng, seed)
        for g in [
            E5N4.element(QS5(9, 7), QS5(5, 8)),
            E5N4.element(QS5(1234, -777), QS5(555, 901)),
            E5N4.element(
                QS5(31415926535897, -27182818284590),
                QS5(16180339887498, 14142135623730),
            ),
        ]:
            b = a.scale(g)
            tried.clear()
            res = oriented_equivalent(a, b, 0)
            assert res.status == EQUIVALENT
            assert a.basis.scale(res.gamma).same_module(b.basis)
            assert 1 <= len(tried) <= 5

    def test_cm_skips_non_generators_of_least_trace(self):
        # over Q(sqrt 2), D = -2 the first enumerated vector of trace C has a
        # norm that is not det M times a unit; the search goes on to a
        # generator
        f = field("q_sqrt2")
        ext = make_extension(f, f(-2))
        a = psi(QuadraticForm(f, f(-2, 1), f(2, -1), f(-1)), ext)
        b = psi(QuadraticForm(f, f(-1, -1), f(-2, 1), f(4, -3)), ext)
        b = OrientedIdeal(b.basis, a.eps)
        res = oriented_equivalent(a, b)
        assert res.status == EQUIVALENT
        assert a.basis.scale(res.gamma).same_module(b.basis)

    def test_distinct_classes_cm(self):
        # over Q(sqrt 13), D = -3 two forms of one orientation lie in
        # distinct classes (h(L) is even: h(-39) = 4 in the biquadratic
        # class number formula); the box answers unknown, the enumeration
        # not_equivalent
        f = field("q_sqrt13")
        ext = make_extension(f, f(-3))
        a = psi(QuadraticForm(f, f(1), f(-1), f(1)), ext)
        b = psi(QuadraticForm(f, f(14, 3), f(-27, -12), f(15, 9)), ext)
        assert a.eps == b.eps
        assert oriented_equivalent(a, b).status == NOT_EQUIVALENT
        assert oriented_equivalent(a, a).status == EQUIVALENT

    def test_large_regulator(self):
        # fundamental units of 24, 34, 40 and 71 digits: the answer comes
        # from one cycle of reduced forms, not from a search bounded by eps
        cases = [
            (1201, (1, 1, -300), (2, 1, -150), EQUIVALENT, EQUIVALENT),
            (5001, (1, 1, -1250), (2, 1, -625), NOT_EQUIVALENT, EQUIVALENT),
            (7001, (1, 1, -1750), (7, 1, -250), EQUIVALENT, EQUIVALENT),
            (10009, (1, 1, -2502), (3, 1, -834), EQUIVALENT, EQUIVALENT),
        ]
        for d, f1, f2, same, flipped in cases:
            ext = make_extension(Q, d)
            a = psi(QuadraticForm(Q, *f1), ext)
            b = psi(QuadraticForm(Q, *f2), ext)
            b_flip = OrientedIdeal(b.basis, (-b.eps[0],))
            for other, status in ((b, same), (b_flip, flipped)):
                res = oriented_equivalent(a, other)
                assert res.status == status, d
                if status == EQUIVALENT:
                    assert a.basis.scale(res.gamma).same_module(other.basis)
                    assert res.gamma.norm().signs() == (a.eps[0] * other.eps[0],)

    def test_failed_witness_raises(self, monkeypatch):
        import qfc.ideals
        from qfc import DomainError

        def wrong(f, g):
            return 1, 1, 0, 1

        monkeypatch.setattr(qfc.ideals, "_proper_matrix", wrong)
        a = OrientedIdeal(unit_ideal(E23), (1,))
        with pytest.raises(DomainError):
            oriented_equivalent(a, psi(QuadraticForm(Q, 2, 1, 3)))

    def test_witness_in_a_proper_submodule_raises(self, monkeypatch):
        import qfc.ideals
        from qfc import DomainError

        # T = 1 gives gamma = alpha_b = 2 for a = O_L and b = Psi(2, 2, -1)
        # over D = 12, and 2*O_L has index 2 in b: integral coordinates of
        # determinant 2
        monkeypatch.setattr(qfc.ideals, "_proper_matrix", lambda f, g: (1, 0, 0, 1))
        ext = make_extension(Q, 12)
        a = OrientedIdeal(unit_ideal(ext), (1,))
        b = psi(QuadraticForm(Q, 2, 2, -1), ext)
        with pytest.raises(DomainError):
            oriented_equivalent(a, b)

    def test_witness_of_the_wrong_sign_raises(self, monkeypatch):
        import qfc.ideals
        from qfc import DomainError

        # over D = 5, T = (0, -1; 1, 0) gives gamma = -1/W for a = b = O_L:
        # gamma*O_L = O_L, but N(W) = -1 while both orientations are +1
        monkeypatch.setattr(qfc.ideals, "_proper_matrix", lambda f, g: (0, -1, 1, 0))
        a = OrientedIdeal(unit_ideal(make_extension(Q, 5)), (1,))
        with pytest.raises(DomainError):
            oriented_equivalent(a, a)

    def test_witness_with_fractional_coordinates_raises(self, monkeypatch):
        import qfc.ideals
        from qfc import DomainError

        # over D = -4, b = [2 + i, 1] is O_L, and T = (2, 1; 1, 1) gives
        # delta = 2 - i and gamma = (2 + i)/(2 - i): the coordinate matrix
        # has determinant N(gamma) = 1 but entries such as 4/5
        monkeypatch.setattr(qfc.ideals, "_proper_matrix", lambda f, g: (2, 1, 1, 1))
        ext = make_extension(Q, -4)
        a = OrientedIdeal(unit_ideal(ext), (1,))
        b = OrientedIdeal(IdealBasis(ext.element(2, Fraction(1, 2)), ext.one), (1,))
        with pytest.raises(DomainError):
            oriented_equivalent(a, b)

    def test_non_ideal_module_raises(self):
        from qfc import NotIntegral

        # [1, sqrt 5] spans Z[sqrt 5], not O_L: its Phi-image is (1, 0, -5)/2
        ext = make_extension(Q, 5)
        a = OrientedIdeal(IdealBasis(ext.one, ext.sqrt_d, _checked=True), (1,))
        with pytest.raises(NotIntegral):
            oriented_equivalent(a, a)

    def test_principal_generator(self):
        om = E23.omega
        g = E23.element(3, 1)  # 3 + sqrt(-23)? norm 9+23=32; any principal
        b = IdealBasis(g, g * om, _checked=True)
        found = principal_generator_q(b)
        assert found is not None
        assert IdealBasis(found, found * om, _checked=True).same_module(b)

    def test_nonprincipal_certified(self):
        p2 = psi(QuadraticForm(Q, 2, 1, 3)).basis
        assert principal_generator_q(p2) is None
        # over D = 40: the ramified prime above 2 is not principal
        p = IdealBasis(E40.element(2), E40.element(0, Fraction(1, 2)))
        assert principal_generator_q(p) is None

    def test_principal_generator_large_unit(self):
        # D = 1201 has h = 1: every ideal is principal
        ext = make_extension(Q, 1201)
        b = psi(QuadraticForm(Q, 2, 1, -150), ext).basis
        gamma = principal_generator_q(b)
        assert IdealBasis(gamma, gamma * ext.omega, _checked=True).same_module(b)

    def test_coordinate_box_shell_order(self):
        # shell by shell, the filtered product of all four coordinates
        expected = [
            (QS5(a, b), QS5(c, e))
            for k in range(4)
            for a, b, c, e in product(range(-k, k + 1), repeat=4)
            if max(map(abs, (a, b, c, e))) == k
        ]
        assert list(_coordinate_box(QS5, 3)) == expected


class TestValidation:
    def test_not_an_ideal(self):
        # [1, sqrt(-23)] is not W-stable (index 2 in O_L)
        with pytest.raises(NotAnIdeal):
            IdealBasis(E23.one, E23.sqrt_d)

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            OrientedIdeal(unit_ideal(E23), (1, 1))
        with pytest.raises(ValueError):
            OrientedIdeal(unit_ideal(E23), (0,))
