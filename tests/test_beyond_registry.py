"""The correspondence over two bases built outside the registry.

Q(sqrt -2), where w = sqrt(-2) is not a unit and the roots of unity are
+-1, and Q(sqrt -3), where w = zeta_6.  Both are norm-Euclidean by
coordinate rounding (|N(x/y - q)| <= 3/4) and have class number one, so
the paper's correspondence holds over them as over the registry.
"""

import random
from itertools import product

import pytest

from conftest import (
    QM2,
    QM3,
    forms_with_disc,
    random_fundamental_form,
    transformed_ideal,
)

from qfc import (
    QuadraticForm,
    canonical_associate,
    canonical_disc,
    compose,
    identity_form,
    ideal_mul,
    is_fundamental,
    k_sqrt,
    make_extension,
    psi,
    roundtrip_gamma,
)

FIELDS = [QM2, QM3]
IDS = ["q_m2", "q_m3"]


def _box(f, span):
    return [f(a, b) for a, b in product(range(-span, span + 1), repeat=2)]


def _non_squares(f, span):
    """The nonzero integral elements of the box that are not squares in K."""
    return [d for d in _box(f, span) if not d.is_zero() and k_sqrt(d) is None]


def _is_square_mod4(d):
    # (t + 2s)^2 = t^2 (mod 4), so the residues mod 2 are enough
    f = d.field
    return any(((t * t - d) / 4).is_integral() for t in _box(f, 1))


def _fundamental_by_definition(d, divisors):
    """d = square (mod 4), and no non-unit c with c^2 | d has d / c^2 =
    square (mod 4)."""
    if not _is_square_mod4(d):
        return False
    for c in divisors:
        quot = d / (c * c)
        if quot.is_integral() and _is_square_mod4(quot):
            return False
    return True


class TestDerivedAttributes:
    def test_fields_from_m_alone(self):
        assert (QM2.half_omega, QM2.r, QM2.unit_norm_sign) == (False, 0, None)
        assert (QM3.half_omega, QM3.r, QM3.unit_norm_sign) == (True, 0, None)
        assert (QM3.omega_trace, QM3.omega_norm) == (1, 1)

    def test_roots_of_unity(self):
        assert QM2.roots == (QM2.one, -QM2.one)
        assert len(QM3.roots) == 6 and QM3.roots[1] == QM3.omega
        for f in FIELDS:
            n = len(f.roots)
            assert len(set(f.roots)) == n
            for z in f.roots:
                assert z.is_unit() and z ** n == f.one


@pytest.mark.parametrize("f", FIELDS, ids=IDS)
class TestCanonicalAssociate:
    def test_associate_idempotent_and_invariant(self, f):
        elements = _box(f, 4) + [x / 3 for x in _box(f, 2)]
        for x in elements:
            c = canonical_associate(x)
            if x.is_zero():
                assert c == x
                continue
            assert (c / x).is_unit()
            assert canonical_associate(c) == c
            for z in f.roots:
                assert canonical_associate(z * x) == c

    def test_a_shared_associate_means_a_root_of_unity_apart(self, f):
        # two elements share a canonical associate iff their quotient is
        # one of the roots of unity, the only units of K
        seen = {}
        for x in _box(f, 3):
            if not x.is_zero():
                seen.setdefault(canonical_associate(x), []).append(x)
        for members in seen.values():
            for x in members:
                assert x / members[0] in f.roots


def test_associate_of_minus_three_plus_w():
    # the units of Q(sqrt -2) are +-1, so the associate is -3 + w or 3 - w;
    # rotating by w, as over Q(i), gave 4 + 6w, which is not an associate
    x = QM2(-3, 1)
    assert canonical_associate(x) == QM2(3, -1)


@pytest.mark.parametrize("f", FIELDS, ids=IDS)
class TestCanonicalDisc:
    def test_orbit_of_root_squares(self, f):
        for d in _non_squares(f, 4) + [x / 2 for x in _non_squares(f, 2)]:
            star = canonical_disc(f, d)
            assert star / d in {z * z for z in f.roots}
            assert canonical_disc(f, star) == star
            for z in f.roots:
                assert canonical_disc(f, z * z * d) == star

    def test_fundamental_stays_fundamental(self, f):
        for d in _non_squares(f, 4):
            if is_fundamental(d):
                assert is_fundamental(canonical_disc(f, d))


def test_disc_minus_five_minus_two_w():
    # over Q(sqrt -2) the orbit {u^2 d} is {d}; negating d, as over Q(i),
    # gave 5 + 2w, which is not fundamental
    d = QM2(-5, -2)
    assert is_fundamental(d) and not is_fundamental(-d)
    assert canonical_disc(QM2, d) == d
    forms = forms_with_disc(QM2, d, 3)
    assert forms
    ext = make_extension(QM2, d)
    for q in forms[:4]:
        assert psi(q).ext is ext
        assert compose(q, identity_form(ext)).disc() == d


@pytest.mark.parametrize("f", FIELDS, ids=IDS)
def test_is_fundamental_against_the_definition(f):
    divisors = [c for c in _box(f, 4) if not c.is_zero() and not c.is_unit()]
    checked = 0
    for d in _non_squares(f, 6):
        # c^2 | d needs N(c)^2 <= |N(d)|; the box holds every c of norm up
        # to 12 on both fields, and |N(d)| <= 108 here
        small = [c for c in divisors if c.norm() ** 2 <= abs(d.norm())]
        assert is_fundamental(d) == _fundamental_by_definition(d, small), d
        checked += 1
    assert checked > 100


def _fundamental_forms(f, count, seed):
    rng = random.Random(seed)
    return [random_fundamental_form(f, rng) for _ in range(count)]


@pytest.mark.parametrize("f", FIELDS, ids=IDS)
class TestCorrespondence:
    def test_phi_psi_round_trip(self, f):
        rng = random.Random(f"roundtrip:{f.tag}")
        for q in _fundamental_forms(f, 6, f"forms:{f.tag}"):
            a = psi(q)
            assert roundtrip_gamma(a) is not None
            assert roundtrip_gamma(transformed_ideal(a, rng)) is not None

    def test_compose_is_commutative(self, f):
        rng = random.Random(f"commute:{f.tag}")
        for q1 in _fundamental_forms(f, 5, f"forms:{f.tag}"):
            ext = make_extension(f, canonical_disc(f, q1.disc()))
            q2 = rng.choice(forms_with_disc(f, ext.d, 3))
            assert compose(q1, q2) == compose(q2, q1)

    def test_identity_law(self, f):
        # Psi(e * q) is a scaling of Psi(e) * Psi(q) = Psi(q): the forms
        # e * q and q are in one class
        for q in _fundamental_forms(f, 5, f"forms:{f.tag}"):
            ext = make_extension(f, canonical_disc(f, q.disc()))
            e = identity_form(ext)
            product_ideal = ideal_mul(psi(e, ext), psi(q, ext))
            assert product_ideal.basis.same_module(psi(q, ext).basis)
            gamma = roundtrip_gamma(product_ideal)
            image = psi(compose(e, q), ext).scale(gamma)
            assert image.basis.same_module(psi(q, ext).basis)
            assert compose(e, q) == compose(q, e)

    def test_disc_in_the_orbit_of_a_root_square(self, f):
        # a form whose discriminant is z^2 * D for a root of unity z maps
        # into the extension of D
        for q in _fundamental_forms(f, 4, f"forms:{f.tag}"):
            for z in f.roots:
                scaled = QuadraticForm(f, q.a * z, q.b * z, q.c * z)
                assert psi(scaled).ext is psi(q).ext
                assert compose(scaled, q) == compose(q, scaled)


def test_fields_are_told_apart_by_m():
    # one tag for two fields: they differ, and so do their extensions of
    # one D; a field of a registry m equals the registered one, and gets an
    # extension of its own, since elements check their field by identity
    from qfc import REGISTRY
    from qfc.base_field import Field

    f2, f3 = Field("t", -2, None), Field("t", -3, None)
    assert f2 != f3 and hash(f2) != hash(f3)
    e2, e3 = make_extension(f2, f2(5)), make_extension(f3, f3(5))
    assert (e2.base, e3.base) == (f2, f3)
    assert e2.base is f2 and e3.base is f3
    assert e2 != e3 and e2 is make_extension(f2, f2(5))
    assert e3.element(f3(1, 1)).x.field is f3
    twin = Field("twin", 2, (1, 1))
    assert twin == REGISTRY["q_sqrt2"] and hash(twin) == hash(REGISTRY["q_sqrt2"])
    assert make_extension(twin, twin(5)).base is twin
