"""Binary quadratic forms over O_K and the unit-twisted equivalence.

Equivalence allows any change of variables with determinant a totally
positive unit, together with scaling by a totally positive unit; over a
base field that is not totally real this is strictly coarser than
determinant-1 equivalence.  Class identity over quadratic base fields is
certified through the ideal side; here we provide the transformations,
automorphs, witness verification, and the classical reduction, class
enumeration and cycle count over Q (which serve as oracles for the
correspondence and give the class numbers of the structure reports) as
QuadraticForm wrappers of the integer core in `contfrac`.
"""

from itertools import combinations
from math import gcd

from .base_field import BaseElement, Field
from .base_field import Q as _Q
from .contfrac import _count_cycles, _proper_matrix, _reduce, _reduced_triples
from .errors import (
    DiscriminantMismatch,
    DiscriminantNotTotallyNegative,
    IndefiniteForm,
    InvalidTransformation,
    NotAUnit,
    NotIntegral,
    WrongBase,
)
from .extension import ExtElement


class QuadraticForm:
    """a x^2 + b xy + c y^2 with a, b, c in O_K."""

    __slots__ = ("field", "a", "b", "c")

    def __init__(self, field: Field, a, b, c):
        coeffs = []
        for v in (a, b, c):
            v = v if isinstance(v, BaseElement) else field(v)
            if v.field is not field:
                raise ValueError("coefficient from a different base field")
            if not v.is_integral():
                raise NotIntegral("form coefficients must lie in O_K")
            coeffs.append(v)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "a", coeffs[0])
        object.__setattr__(self, "b", coeffs[1])
        object.__setattr__(self, "c", coeffs[2])

    def __setattr__(self, name, value):
        raise AttributeError("QuadraticForm is immutable")

    def disc(self) -> BaseElement:
        return self.b * self.b - 4 * self.a * self.c

    def __call__(self, x, y) -> BaseElement:
        return self.a * x * x + self.b * x * y + self.c * y * y

    def is_primitive(self) -> bool:
        """Whether a, b, c generate O_K: over Q, gcd(a, b, c) = 1; over
        quadratic K, the gcd of the 2x2 minors of the integer coordinates of
        a, a*w, b, b*w, c, c*w is 1, as that is the index in O_K of their
        Z-span, the ideal (a, b, c).  The zero form is not primitive."""
        f = self.field
        if f.is_rational:
            return gcd(self.a.n0, self.b.n0, self.c.n0) == 1
        vecs = []
        for v in (self.a, self.b, self.c):
            # v*w = -N(w)*n1 + (n0 + T(w)*n1)*w, since w^2 = T(w)*w - N(w)
            vecs += [(v.n0, v.n1), (-f.omega_norm * v.n1, v.n0 + f.omega_trace * v.n1)]
        minors = (x0 * y1 - x1 * y0 for (x0, x1), (y0, y1) in combinations(vecs, 2))
        return gcd(*minors) == 1

    def scale(self, u) -> "QuadraticForm":
        """(u a, u b, u c); keeps integrality when u is a unit."""
        return QuadraticForm(self.field, u * self.a, u * self.b, u * self.c)

    def transform(self, t: "Transformation") -> "QuadraticForm":
        """u * Q(px + qy, rx + sy), coefficientwise."""
        a, b, c = self.a, self.b, self.c
        p, q, r, s, u = t.p, t.q, t.r, t.s, t.u
        new_a = u * (a * p * p + b * p * r + c * r * r)
        new_b = u * (2 * a * p * q + b * (p * s + q * r) + 2 * c * r * s)
        new_c = u * (a * q * q + b * q * s + c * s * s)
        return QuadraticForm(self.field, new_a, new_b, new_c)

    def is_tpd(self) -> bool:
        """Totally positive definite; only defined for totally negative
        discriminant, where it reduces to total positivity of a."""
        d = self.disc()
        if self.field.r > 0 and (d.is_zero() or any(s == 1 for s in d.signs())):
            raise DiscriminantNotTotallyNegative(
                "total positive definiteness needs D totally negative"
            )
        return self.a.is_totally_positive()

    def coefficients(self):
        return self.a, self.b, self.c

    def __eq__(self, other):
        if not isinstance(other, QuadraticForm):
            return NotImplemented
        return (
            self.field is other.field
            and self.a == other.a
            and self.b == other.b
            and self.c == other.c
        )

    def __hash__(self):
        return hash((self.field.tag, self.a, self.b, self.c))

    def __repr__(self):
        return f"({self.a!r}, {self.b!r}, {self.c!r})"


class Transformation:
    """Change of variables (p, q, r, s) with unit scaling u.

    Valid when all entries lie in O_K, ps - qr is a totally positive unit,
    and u is a totally positive unit (both conditions are vacuous sign-wise
    over Q(i))."""

    __slots__ = ("p", "q", "r", "s", "u")

    def __init__(self, field: Field, p, q, r, s, u=1):
        vals = []
        for v in (p, q, r, s, u):
            v = v if isinstance(v, BaseElement) else field(v)
            vals.append(v)
        p, q, r, s, u = vals
        det = p * s - q * r
        for v in (p, q, r, s):
            if not v.is_integral():
                raise InvalidTransformation("matrix entries must lie in O_K")
        if not (det.is_unit() and det.is_totally_positive()):
            raise InvalidTransformation("ps - qr must be a totally positive unit")
        if not (u.is_unit() and u.is_totally_positive()):
            raise InvalidTransformation("u must be a totally positive unit")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "u", u)

    def __setattr__(self, name, value):
        raise AttributeError("Transformation is immutable")

    def det(self) -> BaseElement:
        return self.p * self.s - self.q * self.r

    def __repr__(self):
        return f"T(p={self.p!r}, q={self.q!r}, r={self.r!r}, s={self.s!r}, u={self.u!r})"


def verify_equivalence_witness(
    q1: QuadraticForm, q2: QuadraticForm, t: Transformation
) -> bool:
    """Whether u * q1(px+qy, rx+sy) equals q2 exactly."""
    return q1.transform(t) == q2


def automorph_from_unit(q: QuadraticForm, mu: ExtElement):
    """The automorph (p0, q0, r0, s0) of q attached to a unit mu of O_L.

    Requires disc(q) = D of mu's extension (callers pre-scale).  Writing
    mu = u/2 + (v/2) sqrt(D), the quadruple is
    ((u - b v)/2, -c v, a v, (u + b v)/2); its determinant is N(mu) and it
    satisfies (p0 s0 - q0 r0) * q(x, y) = q(p0 x + q0 y, r0 x + s0 y).
    """
    if q.disc() != mu.ext.d:
        raise DiscriminantMismatch("form discriminant differs from the extension's")
    if not mu.is_unit():
        raise NotAUnit("mu must be a unit of O_L")
    u = mu.x + mu.x
    v = mu.y + mu.y
    p0 = (u - q.b * v) / 2
    q0 = -q.c * v
    r0 = q.a * v
    s0 = (u + q.b * v) / 2
    quad = (p0, q0, r0, s0)
    if not all(w.is_integral() for w in quad):
        raise NotIntegral("automorph entries must lie in O_K")
    return quad


def _pair_mul(u, v, d):
    # (u0 + u1 sqrt(d)) * (v0 + v1 sqrt(d)) as coordinate pairs over K
    return (u[0] * v[0] + u[1] * v[1] * d, u[0] * v[1] + u[1] * v[0])


def _pair_div(u, v, d):
    n = v[0] * v[0] - v[1] * v[1] * d
    w = (v[0], -v[1])
    num = _pair_mul(u, w, d)
    return (num[0] / n, num[1] / n)


def root_transport_check(
    q: QuadraticForm, qt: QuadraticForm, t: Transformation
) -> bool:
    """Verify the Moebius transport of the distinguished root.

    With qt = q(px+qy, rx+sy) and dt = disc(qt) = (ps-qr)^2 disc(q), the
    root (-bt + sqrt(dt))/(2 at) maps under (p, q; r, s) to
    (-b + sqrt(d))/(2a), taking sqrt(dt) = (ps-qr) sqrt(d).  Checked
    exactly in sqrt(d)-coordinate pairs over K.
    """
    if t.u != 1:
        raise ValueError("root transport is stated for u = 1")
    if q.transform(t) != qt:
        raise ValueError("qt is not the transform of q")
    f = q.field
    d = q.disc()
    det = t.det()
    two_at = 2 * qt.a
    root_t = (-qt.b / two_at, det / two_at)  # (-bt + det*sqrt(d)) / (2 at)
    num = (t.p * root_t[0] + t.q, t.p * root_t[1])
    den = (t.r * root_t[0] + t.s, t.r * root_t[1])
    if den[0].is_zero() and den[1].is_zero():
        raise ZeroDivisionError("degenerate transport denominator")
    lhs = _pair_div(num, den, d)
    rhs = (-q.b / (2 * q.a), f.one / (2 * q.a))
    return lhs == rhs


# -- classical reduction over Q (oracle side) ---------------------------------


def _as_int_form(q: QuadraticForm):
    if not q.field.is_rational:
        raise WrongBase("reduction and enumeration are implemented over Q only")
    return q.a.n0, q.b.n0, q.c.n0  # integral, so den = 1


def reduce_form_q(q: QuadraticForm) -> QuadraticForm:
    """The unique reduced representative of a definite form over Q, positive
    or negative definite."""
    a, b, c = _as_int_form(q)
    d = b * b - 4 * a * c
    if d >= 0:
        raise IndefiniteForm("reduction implemented for negative discriminant")
    form, _ = _reduce((a, b, c), d, 0)
    return QuadraticForm(q.field, *form)


def proper_equivalence(f: QuadraticForm, g: QuadraticForm):
    """A verified Transformation T of determinant 1 with f o T = g, or None
    when the forms over Q are not properly equivalent: their reduced forms
    differ (d < 0), or that of g is not on the rho-cycle of that of f
    (d > 0), so the work is bounded by one cycle."""
    mat = _proper_matrix(_as_int_form(f), _as_int_form(g))
    return None if mat is None else Transformation(f.field, *mat)


def _int_over_q(d, wrong_base: str, not_integral: str = "d must be an integer") -> int:
    """d, an int, a Fraction or an element of Q, as an int; an element of
    another base raises WrongBase(wrong_base), a non-integer NotIntegral."""
    if isinstance(d, BaseElement):
        if not d.field.is_rational:
            raise WrongBase(wrong_base)
        d = d.c0
    if d != int(d):
        raise NotIntegral(not_integral)
    return int(d)


def enumerate_classes_q(d) -> list[QuadraticForm]:
    """All reduced primitive positive definite forms of discriminant d < 0
    over Q, sorted lexicographically on (a, b, c), from _reduced_triples."""
    d = _int_over_q(d, "class enumeration is implemented over Q only")
    if d >= 0:
        raise IndefiniteForm("class enumeration needs d < 0")
    if d % 4 not in (0, 1):
        return []
    return [QuadraticForm(_Q, *t) for t in _reduced_triples(d)]


def count_cycles_q(d) -> int:
    """The narrow class number h+ of d > 0 over Q, by _count_cycles."""
    return _count_cycles(_int_over_q(d, "cycle counting is implemented over Q only"))
