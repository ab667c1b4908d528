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

from .base_field import BaseElement, Field, _unit_slide, k_sqrt
from .base_field import Q as _Q
from .contfrac import fundamental_unit
from .errors import (
    DiscriminantMismatch,
    DiscriminantNotInClass,
    DiscriminantNotTotallyNegative,
    DomainError,
    NotFundamental,
    NotPrimitive,
    OrientationMismatch,
    SquareInput,
    WrongBase,
)
from .extension import Extension, ExtElement, make_extension
from .forms import QuadraticForm, count_cycles_q, enumerate_classes_q
from .ideals import IdealBasis, OrientedIdeal, ideal_mul


def tp_unit_sqrt(field: Field, ratio: BaseElement):
    """A totally positive unit u with u^2 = ratio, or None.

    u is k_sqrt(ratio), negated on a real base when sigma_1(u) < 0.  Over Q
    only ratio 1 qualifies; over Q(i) every unit is vacuously totally
    positive, and k_sqrt(-1) = i; over a real quadratic field u must be an
    even power of the fundamental unit, so ratio is a fourth power of it.
    """
    u = k_sqrt(ratio)
    if u is None or not u.is_unit():
        return None
    if field.r > 0 and u.sign_at(0) < 0:
        u = -u
    return u if u.is_totally_positive() else None


def canonical_disc(field: Field, d: BaseElement):
    """Canonical representative of the orbit {u^2 d : u in U_K^+}.

    Returns (d_star, u) with d = u^2 * d_star and u totally positive.
    Over Q the orbit is a point; over Q(i) it is {d, -d}; over a real
    quadratic field it is the eps^4 orbit, minimized like associates.
    """
    if field.is_rational:
        return d, field.one
    if field.r == 0:
        if d.c0 > 0 or (d.c0 == 0 and d.c1 > 0):
            return d, field.one
        return -d, field.omega
    eps4 = field.fundamental_unit ** 4
    # N(eps^4) = 1, so its inverse is its conjugate
    candidates = _unit_slide(d, eps4, eps4.conj())
    d_star, k = min(candidates, key=lambda c: (c[0].c0, c[0].c1))
    # d = d_star * eps^{4(-k)} ... track the exponent back to d
    u = field.fundamental_unit ** (-2 * k)
    return d_star, u


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
    and the square root is taken as u*sqrt(D).
    """
    if not q.is_primitive():
        raise NotPrimitive("psi requires a primitive form")
    dq = q.disc()
    if ext is None:
        ext = make_extension(q.field, canonical_disc(q.field, dq)[0])
    u = tp_unit_sqrt(q.field, dq / ext.d)
    if u is None:
        raise DiscriminantNotInClass(
            f"disc {dq} is not u^2 * {ext.d} for a totally positive unit u"
        )
    alpha = ext.from_base(q.a)
    beta = ext.element(-q.b / 2, u / 2)
    eps = q.a.signs() if q.field.r > 0 else ()
    return OrientedIdeal(IdealBasis(alpha, beta), eps)


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


def compose(q1: QuadraticForm, q2: QuadraticForm) -> QuadraticForm:
    """Composition through the ideal side; the result has discriminant equal
    to the canonical representative of the common orbit."""
    if q1.field is not q2.field:
        raise ValueError("forms over different base fields")
    d1, _ = canonical_disc(q1.field, q1.disc())
    d2, _ = canonical_disc(q2.field, q2.disc())
    if d1 != d2:
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
    h comes from reduced-form enumeration (D < 0) or from the number h+ of
    cycles of reduced indefinite forms (D > 0), which is the order of OCl
    and equals h in case 3 and 2h in case 2.  The fundamental unit and its
    norm come from one walk of the principal rho-cycle.
    """
    if isinstance(d, BaseElement):
        if not d.field.is_rational:
            raise WrongBase("oriented class group reports are over Q only")
        d_int = int(d.c0)
    else:
        d_int = int(d)
        d = _Q(d_int)
    try:
        ext = make_extension(_Q, d)
    except NotFundamental:
        raise NotFundamental(f"{d_int} is not a fundamental discriminant") from None
    if d_int < 0:
        h = len(enumerate_classes_q(d_int))
        return OclReport(case=1, h=h, ocl_order=2 * h, unit=None, unit_norm=None)
    unit = fundamental_unit(ext)
    h_plus = count_cycles_q(d_int)
    if unit.norm() == -1:
        return OclReport(case=3, h=h_plus, ocl_order=h_plus, unit=unit, unit_norm=-1)
    return OclReport(case=2, h=h_plus // 2, ocl_order=h_plus, unit=unit, unit_norm=1)
