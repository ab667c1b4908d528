"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every check is exact;
the randomized suites are seeded.
"""

import random
import time
from fractions import Fraction
from itertools import product

from conftest import (
    forms_with_disc,
    random_fundamental_form,
    random_oriented_ideal,
)

from qfc import (
    EQUIVALENT,
    IdealBasis,
    Q,
    QuadraticForm,
    Transformation,
    automorph_from_unit,
    compose,
    enumerate_classes_q,
    field,
    fundamental_unit,
    gcd_k,
    ideal_mul,
    is_fundamental,
    k_sqrt,
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


def _report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}", flush=True)


def _certified_equivalent(q1, q2, ext):
    """Ideal-side certificate that two forms lie in the same class."""
    res = oriented_equivalent(psi(q1, ext), psi(q2, ext), 10)
    if res.status != EQUIVALENT:
        return False
    scaled = psi(q1, ext).basis.scale(res.gamma)
    return scaled.same_module(psi(q2, ext).basis)


def test_criterion_1_d23_class_group():
    classes = enumerate_classes_q(-23)
    assert [tuple(int(v.c0) for v in f.coefficients()) for f in classes] == [
        (1, 1, 6),
        (2, -1, 3),
        (2, 1, 3),
    ]
    ext = make_extension(Q, -23)
    ident = QuadraticForm(Q, 1, 1, 6)
    f = QuadraticForm(Q, 2, 1, 3)
    g = QuadraticForm(Q, 2, -1, 3)

    # full composition table: cyclic of order 3 with the stated identity
    table = {}
    for a, b in product(classes, repeat=2):
        table[(a, b)] = reduce_form_q(compose(a, b))
    for a in classes:
        assert table[(ident, a)] == a and table[(a, ident)] == a
    assert table[(f, f)] == g and table[(g, g)] == f
    assert table[(f, g)] == ident and table[(g, f)] == ident
    for a, b in product(classes, repeat=2):
        assert table[(a, b)] == table[(b, a)]

    # the two stated composites, certified by ideal-side gamma witnesses
    sq = compose(f, f)
    assert reduce_form_q(sq) == g and _certified_equivalent(sq, g, ext)
    prod = compose(f, g)
    assert reduce_form_q(prod) == ident and _certified_equivalent(prod, ident, ext)
    _report(1, "D=-23 has 3 classes forming Z/3 with identity (1,1,6); "
               "composites certified by ideal witnesses")


def test_criterion_2_d_minus4():
    classes = enumerate_classes_q(-4)
    assert len(classes) == 1 and classes[0] == QuadraticForm(Q, 1, 0, 1)
    sq = compose(classes[0], classes[0])
    assert reduce_form_q(sq) == classes[0]
    rep = ocl_structure_q(-4)
    assert rep.case == 1 and rep.ocl_order == 2
    _report(2, "D=-4: single class x^2+y^2, idempotent composition, "
               "OCl = Cl x {+-1} of order 2")


def test_criterion_3_real_quadratic_structure():
    rep40 = ocl_structure_q(40)
    assert rep40.case == 3 and rep40.h == 2 and rep40.ocl_order == 2
    e40 = make_extension(Q, 40)
    assert rep40.unit == e40.element(3, Fraction(1, 2))  # 3 + sqrt(10)
    assert rep40.unit_norm == -1

    rep12 = ocl_structure_q(12)
    assert rep12.case == 2 and rep12.h == 1 and rep12.ocl_order == 2
    e12 = make_extension(Q, 12)
    assert rep12.unit == e12.element(2, Fraction(1, 2))  # 2 + sqrt(3)
    assert rep12.unit_norm == 1
    _report(3, "D=40: case 3 (3+sqrt10 of norm -1), h=2, |OCl|=2; "
               "D=12: case 2 (2+sqrt3), h=1, |OCl|=2")


def test_criterion_4_roundtrip_suite():
    start = time.monotonic()
    rng = random.Random(4)
    per_base = 200
    for tag in ("q", "q_i", "q_sqrt2", "q_sqrt5"):
        f = field(tag)
        for _ in range(per_base):
            q = random_fundamental_form(f, rng, span=3)
            back = phi(psi(q))
            u = tp_unit_sqrt(f, q.disc() / back.disc())
            assert u is not None and back.scale(u) == q

    count = 0
    exts = [
        make_extension(Q, -23),
        make_extension(Q, -4),
        make_extension(QI, QI(0, 4)),
        make_extension(QS2, QS2(-2)),
        make_extension(QS5, QS5(-4)),
    ]
    seeds = {ext: forms_with_disc(ext.base, ext.d, 3) for ext in exts}
    while count < 200:
        ext = exts[count % len(exts)]
        a = random_oriented_ideal(ext, rng, seeds[ext])
        gamma = roundtrip_gamma(a)  # verifies module-exact equality itself
        aligned = a.align()
        image = psi(phi(aligned), ext).scale(gamma)
        assert image.basis.same_module(aligned.basis)
        assert image.eps == aligned.eps
        count += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _report(4, f"800 form round trips + 200 ideal round trips, exact, "
               f"{elapsed:.1f}s")


def test_criterion_5_lemma_suite():
    rng = random.Random(5)
    exts = [
        make_extension(Q, -23),
        make_extension(Q, 40),
        make_extension(QI, QI(0, 4)),
        make_extension(QS5, QS5(-4)),
    ]
    seeds = {ext: forms_with_disc(ext.base, ext.d, 3) for ext in exts}

    # det scaling under random basis changes
    from conftest import random_unimodular

    for ext in exts:
        for _ in range(25):
            a = random_oriented_ideal(ext, rng, seeds[ext])
            p, q, r, s = random_unimodular(ext.base, rng)
            fp, fq, fr, fs = (ext.from_base(v) for v in (p, q, r, s))
            changed = IdealBasis(
                fp * a.basis.alpha + fr * a.basis.beta,
                fq * a.basis.alpha + fs * a.basis.beta,
            )
            assert changed.det_m() == (p * s - q * r) * a.basis.det_m()

    # integral coprime Phi coefficients with exact discriminant
    for ext in exts:
        for _ in range(25):
            a = random_oriented_ideal(ext, rng, seeds[ext])
            alpha, beta = a.basis.alpha, a.basis.beta
            det = a.basis.det_m()
            ca, cc = alpha.norm() / det, beta.norm() / det
            mid = (alpha.conj() * beta + alpha * beta.conj()).x / det
            assert all(v.is_integral() for v in (ca, mid, cc))
            assert gcd_k(gcd_k(ca, mid), cc).is_unit()
            assert mid * mid - 4 * ca * cc == ext.d

    # inverse proposition: I * [conj a, -conj b] = (det M) as modules
    for ext in exts:
        for _ in range(10):
            a = random_oriented_ideal(ext, rng, seeds[ext])
            prod = ideal_mul(a, a.conj_inverse())
            det = a.basis.det_m()
            principal = IdealBasis(
                ext.from_base(det), ext.from_base(det) * ext.omega, _checked=True
            )
            assert prod.basis.same_module(principal)

    # norm generator on principal ideals is the element norm, exactly
    from conftest import random_gamma

    for ext in exts:
        for _ in range(15):
            g = random_gamma(ext, rng)
            basis = IdealBasis(g, g * ext.omega, _checked=True)
            assert basis.det_m() == g.norm()

    # automorph system for registry units and quadratic-L fundamental units
    e4 = make_extension(Q, -4)
    cases = [
        (QuadraticForm(Q, 1, 0, 1), [e4.one, -e4.one,
                                     e4.element(0, Fraction(1, 2)),
                                     -e4.element(0, Fraction(1, 2))]),
        (QuadraticForm(Q, 1, 1, 6),
         [make_extension(Q, -23).one, -make_extension(Q, -23).one]),
    ]
    e40 = make_extension(Q, 40)
    eps40 = fundamental_unit(e40)
    cases.append(
        (QuadraticForm(Q, 1, 0, -10),
         [eps40**k for k in (1, 2, 3)] + [-(eps40**k) for k in (1, 2, 3)])
    )
    e5 = make_extension(QS5, QS5(-4))
    cases.append(
        (QuadraticForm(QS5, 1, 0, 1),
         [e5.one, -e5.one, e5.from_base(QS5.fundamental_unit)])
    )
    e2 = make_extension(QS2, QS2(-2))
    cases.append(
        (QuadraticForm(QS2, 1, QS2.omega, 1),
         [e2.one, e2.from_base(QS2.fundamental_unit),
          e2.from_base(-(QS2.fundamental_unit ** 2))])
    )
    for q, units in cases:
        for mu in units:
            p0, q0, r0, s0 = automorph_from_unit(q, mu)
            det = p0 * s0 - q0 * r0
            assert det == mu.norm()
            a, b, c = q.a, q.b, q.c
            assert det * a == a * p0 * p0 + b * p0 * r0 + c * r0 * r0
            assert det * b == (
                2 * a * p0 * q0 + b * (p0 * s0 + q0 * r0) + 2 * c * r0 * s0
            )
            assert det * c == a * q0 * q0 + b * q0 * s0 + c * s0 * s0
    _report(5, "det scaling, integral coprime coefficients, inverse ideals, "
               "norm generators, automorph system: all exact")


def test_criterion_6_positive_definiteness():
    rng = random.Random(6)

    # search a totally negative fundamental element over Q(sqrt 5)
    d5 = None
    for c0 in range(-1, -9, -1):
        for c1 in range(-2, 3):
            cand = QS5(c0, c1)
            if cand.is_zero() or k_sqrt(cand) is not None:
                continue
            if any(s == 1 for s in cand.signs()):
                continue
            if is_fundamental(cand):
                d5 = cand
                break
        if d5 is not None:
            break
    assert d5 is not None

    for base, d in ((Q, Q(-23)), (QS5, d5)):
        ext = make_extension(base, d)
        seed = forms_with_disc(base, d, 3)
        for _ in range(100):
            a = random_oriented_ideal(ext, rng, seed)
            for i in range(base.r):
                triple = tpd_sign_check(a, i)
                assert len(set(triple)) == 1
            aligned = a.align()
            q = phi(aligned)
            assert q.is_tpd() == all(e == 1 for e in aligned.eps)
    _report(6, f"sign conditions agree at every embedding over (Q,-23) and "
               f"(Q(sqrt5), {d5}); is_tpd iff eps all +1")


def test_criterion_7_gaussian_remark():
    start = time.monotonic()
    q = QuadraticForm(QI, 1, 4, 2)
    qp = QuadraticForm(QI, QI(0, 1), 4, QI(0, -2))  # i x^2 + 4xy - 2i y^2
    t = Transformation(QI, QI(0, 1), 0, 0, 1, u=QI(0, -1))
    assert verify_equivalence_witness(q, qp, t)

    # no determinant-1 equivalence exists: p^2 + 4pr + 2r^2 = i is
    # unsolvable; bounded exhaustive search over coordinates
    target = QI(0, 1)
    for a, b, c, d in product(range(-3, 4), repeat=4):
        p, r = QI(a, b), QI(c, d)
        assert q(p, r) != target

    # parity proof: the imaginary part of p^2+4pr+2r^2 is even for every
    # residue pair mod 2, so it can never equal i
    for a, b, c, d in product(range(2), repeat=4):
        p, r = QI(a, b), QI(c, d)
        value = q(p, r)
        assert value.c1.denominator == 1 and int(value.c1) % 2 == 0
    elapsed = time.monotonic() - start
    assert elapsed < 5
    _report(7, f"Remark pair verified; p^2+4pr+2r^2 = i ruled out by search "
               f"and mod-2 parity, {elapsed:.1f}s")
