"""The two mutually inverse maps between oriented ideal classes and form
classes, the induced composition of forms, and desk-scale structure checks
of the oriented class group over Q.

An oriented ideal maps to the norm form of its basis divided by det M; a
form (a, b, c) maps to ([a, (-b + sqrt(disc))/2]; signs of a).  Composition
of forms is ideal multiplication conjugated through these maps.  Public
entry points accept any discriminant in the orbit {u^2 D : u totally
positive unit} and normalize internally to a canonical fundamental D.
"""

from collections import namedtuple

from .base_field import BaseElement, Field, _orbit_min, k_sqrt
from .base_field import Q as _Q
from .contfrac import _reduced_triples, fundamental_unit
from .errors import (
    DiscriminantMismatch,
    DiscriminantNotInClass,
    DiscriminantNotTotallyNegative,
    DomainError,
    NotFundamental,
    NotPrimitive,
    OrientationMismatch,
    SquareInput,
)
from .extension import Extension, ExtElement, make_extension
from .forms import QuadraticForm, _int_over_q, count_cycles_q
from .ideals import IdealBasis, OrientedIdeal, ideal_mul


def tp_unit_sqrt(field: Field, ratio: BaseElement):
    """A totally positive unit u with u^2 = ratio, or None.

    u is k_sqrt(ratio), negated on a real base when sigma_1(u) < 0.  Over Q
    only ratio 1 qualifies; over an imaginary base every unit is vacuously
    totally positive; over a real quadratic field u must be an even power of
    the fundamental unit, so ratio is a fourth power of it.
    """
    u = k_sqrt(ratio)
    if u is None or not u.is_unit():
        return None
    if field.r > 0 and u.sign_at(0) < 0:
        u = -u
    return u if u.is_totally_positive() else None


def canonical_disc(field: Field, d: BaseElement) -> BaseElement:
    """Canonical representative d_star of the orbit {u^2 d : u in U_K^+}, the
    least of {z^2 : z in mu_K} * d * eps^(4Z); the unit with d = u^2 * d_star
    is tp_unit_sqrt(field, d / d_star)."""
    return _orbit_min(d, squares=True)


def phi(a: OrientedIdeal) -> QuadraticForm:
    """Oriented ideal class -> form class: (1/det M) N(alpha x - beta y).

    Requires the basis orientation to equal the sign vector; use
    OrientedIdeal.align() first if needed.
    """
    if not a.is_aligned():
        raise OrientationMismatch("basis orientation differs from eps; align() first")
    basis = a.basis
    q = QuadraticForm(basis.ext.base, *basis.norm_form())
    if q.disc() != basis.ext.d:
        raise DiscriminantMismatch("phi image has the wrong discriminant")
    if not q.is_primitive():
        raise NotPrimitive("phi image is not primitive")
    return q


def psi(q: QuadraticForm, ext: Extension | None = None) -> OrientedIdeal:
    """Form class -> oriented ideal class: ([a, (-b + sqrt(disc))/2]; sgn a).

    Without `ext`, the extension is built from the canonical representative
    of the orbit of disc(q).  Either way disc(q) must be u^2 D for the
    extension's D and a totally positive unit u = tp_unit_sqrt(disc(q)/D),
    which is 1 when disc(q) = D, and the square root is taken as u*sqrt(D).
    The basis is IdealBasis.triangular with a0 = a, s = (u*w - b)/2, t = u,
    so beta = -b/2 + (u/2)*sqrt(D).
    """
    if not q.is_primitive():
        raise NotPrimitive("psi requires a primitive form")
    dq = q.disc()
    if ext is None:
        ext = make_extension(q.field, canonical_disc(q.field, dq))
    u = q.field.one if dq == ext.d else tp_unit_sqrt(q.field, dq / ext.d)
    if u is None:
        raise DiscriminantNotInClass(
            f"disc {dq} is not u^2 * {ext.d} for a totally positive unit u"
        )
    basis = IdealBasis.triangular(ext, q.a, (u * ext.w - q.b) / 2, u)
    return OrientedIdeal(basis, q.a.signs())


def identity_form(ext: Extension) -> QuadraticForm:
    """Phi of ([1, W]; +...+): x^2 + w xy + z y^2."""
    return QuadraticForm(ext.base, ext.base.one, ext.w, ext.z)


def inverse_form(q: QuadraticForm) -> QuadraticForm:
    """(a, -b, c); represents the inverse class."""
    if not q.is_primitive():
        raise NotPrimitive("inverse requires a primitive form")
    if k_sqrt(q.disc()) is not None:
        raise SquareInput("discriminant must be nonzero and not a square in K")
    return QuadraticForm(q.field, q.a, -q.b, q.c)


def compose(
    q1: QuadraticForm, q2: QuadraticForm, ext: Extension | None = None
) -> QuadraticForm:
    """Composition through the ideal side: phi(psi(q1) * psi(q2)).

    Without `ext`, both discriminants must have the same canonical
    representative, and the result has that discriminant.  With `ext`, psi
    maps both forms into it and the result has discriminant ext.d.
    """
    if q1.field is not q2.field:
        raise ValueError("forms over different base fields")
    if ext is None:
        disc1, disc2 = q1.disc(), q2.disc()
        d1 = canonical_disc(q1.field, disc1)
        if disc2 != disc1 and d1 != canonical_disc(q2.field, disc2):
            raise DiscriminantNotInClass(
                "forms have discriminants in different unit-square orbits"
            )
        ext = make_extension(q1.field, d1)
    return phi(ideal_mul(psi(q1, ext), psi(q2, ext)))


def roundtrip_gamma(a: OrientedIdeal) -> ExtElement:
    """The explicit witness gamma = det M / conj(alpha) with
    gamma * psi(phi(a)) = a as oriented ideals; verified before returning."""
    a = a.align()
    basis = a.basis
    det = basis.det_m()
    gamma = basis.ext.from_base(det) / basis.alpha.conj()
    image = psi(phi(a))
    scaled = image.scale(gamma)
    if not (scaled.basis.same_module(basis) and scaled.eps == a.eps):
        raise DomainError("round-trip witness failed verification")
    return gamma


def tpd_sign_check(a: OrientedIdeal, i: int):
    """The three equivalent positivity conditions at embedding i, for
    totally negative D: leading Phi-coefficient, det M, Im(beta/alpha)."""
    ext = a.ext
    if ext.base.r == 0 or not ext.totally_negative_d():
        raise DiscriminantNotTotallyNegative(
            "sign conditions require totally negative D and a real embedding"
        )
    if not 0 <= i < ext.base.r:
        raise ValueError("embedding index out of range")
    basis = a.basis
    lead = basis.norm_form()[0]
    im = (basis.beta / basis.alpha).im_part()
    return (lead.sign_at(i) > 0, basis.det_m().sign_at(i) > 0, im.sign_at(i) > 0)


OclReport = namedtuple("OclReport", ["case", "h", "ocl_order", "unit", "unit_norm"])


def ocl_structure_q(d) -> OclReport:
    """Structure of the relative oriented class group for base Q.

    Case 1 (D < 0): OCl = Cl x {+-1}, order 2h.  Case 2 (D > 0, all unit
    norms +1): order 2h.  Case 3 (D > 0 with a norm -1 unit): order h.
    h comes from the count of reduced forms (D < 0) or from the number h+ of
    cycles of reduced indefinite forms (D > 0), which is the order of OCl
    and equals h in case 3 and 2h in case 2.  The fundamental unit and its
    norm come from one walk of the principal rho-cycle.
    """
    d_int = _int_over_q(
        d,
        "oriented class group reports are over Q only",
        "fundamentality requires an element of O_K",
    )
    try:
        ext = make_extension(_Q, _Q(d_int))
    except NotFundamental:
        raise NotFundamental(f"{d_int} is not a fundamental discriminant") from None
    if d_int < 0:
        h = len(_reduced_triples(d_int))
        return OclReport(case=1, h=h, ocl_order=2 * h, unit=None, unit_norm=None)
    unit = fundamental_unit(ext)
    h_plus = count_cycles_q(d_int)
    if unit.norm() == -1:
        return OclReport(case=3, h=h_plus, ocl_order=h_plus, unit=unit, unit_norm=-1)
    return OclReport(case=2, h=h_plus // 2, ocl_order=h_plus, unit=unit, unit_norm=1)
