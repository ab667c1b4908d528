"""Fractional O_L-ideals as O_K-module bases [alpha, beta], with orientation.

The orientation of a basis is the sign vector of
det M = (conj(alpha) beta - alpha conj(beta)) / (W - conj W),
which also generates the relative norm ideal.  An oriented ideal pairs a
module with a sign vector in {+-1}^r; multiplication reduces the four
pairwise products back to a two-element basis by a Hermite-style
triangularization over the (norm-Euclidean) base ring, then unit-adjusts
the basis so its orientation matches the sign vector.

Equivalence over Q and over a real quadratic base with D totally negative
runs on integers: over Q on the Phi-images of the aligned ideals, over the
real bases on J * I^-1 as a Z-lattice over (1, omega, W, omega*W), reduced
by an integer Hermite normal form and searched by LLL and Fincke-Pohst on
the integer Gram matrix of 2 Tr_{K/Q} N_{L/K}.  In both, the witness gamma
is the only element of L built, and it is verified before it is returned.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product
from math import gcd, lcm

from .base_field import BaseElement, _elem, _gcd_core, canonical_associate
from .errors import (
    DegenerateBasis,
    DomainError,
    ExtensionMismatch,
    NotAnIdeal,
    NotIntegral,
    RankDeficient,
)
from .extension import ExtElement, Extension
from .forms import _proper_matrix
from .lattice import hnf, lll_gram, short_vectors


class IdealBasis:
    """An O_K-module basis [alpha, beta] of a fractional O_L-ideal.

    The constructor verifies both invariants: alpha, beta are K-linearly
    independent, and the module is stable under multiplication by W.
    """

    __slots__ = ("ext", "alpha", "beta", "_det")

    def __init__(self, alpha: ExtElement, beta: ExtElement, _checked=False):
        if alpha.ext != beta.ext:
            raise ExtensionMismatch("basis elements of different extensions")
        # det M in sqrt(D) coordinates: 2*(x_a y_b - y_a x_b)
        cross = alpha.x * beta.y - alpha.y * beta.x
        if cross.is_zero():
            raise DegenerateBasis("alpha, beta are K-linearly dependent")
        object.__setattr__(self, "ext", alpha.ext)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "_det", cross + cross)
        if not _checked:
            omega = self.ext.omega
            for gen in (alpha * omega, beta * omega):
                if not self.contains(gen):
                    raise NotAnIdeal("[alpha, beta] is not an O_L-module")

    @classmethod
    def triangular(cls, ext: Extension, a0, s, t) -> "IdealBasis":
        """[a0, s + t*W] for a0, s, t in K, by the relative form of Cohen's
        test that [a, (-b + sqrt D)/2] is an ideal iff 4a | b^2 - D (GTM
        138, 5.2): an O_L-module iff a = a0/t and r = s/t lie in O_K and
        a | N(r + W) = r^2 - w*r + z, that is t | a0, t | s and
        a0*t | N(s + t*W).  Proof: by W^2 = -w*W - z, the basis coordinates
        of W*a0 and W*(s + t*W) are (-r, a) and (-N(r + W)/a, r - w).  The
        test of r is implied: v_p(r) < 0 gives v_p(N(r + W)) = 2*v_p(r).
        Raises what the generic constructor raises on the same basis."""
        if a0.is_zero() or t.is_zero():
            raise DegenerateBasis("alpha, beta are K-linearly dependent")
        a, r = a0 / t, s / t
        if not (a.is_integral() and ((r * (r - ext.w) + ext.z) / a).is_integral()):
            raise NotAnIdeal("[alpha, beta] is not an O_L-module")
        return cls(ext.from_base(a0), ext.from_module_coords(s, t), _checked=True)

    def __setattr__(self, name, value):
        raise AttributeError("IdealBasis is immutable")

    def det_m(self) -> BaseElement:
        """(conj(a) b - a conj(b)) / (W - conj W), a generator of the
        relative norm ideal N_{L/K}(I); computed once, at construction."""
        return self._det

    def orientation(self) -> tuple:
        return self._det.signs()

    def norm_form(self):
        """Coefficients (a, b, c) of N(alpha x - beta y) / det M, the
        Phi-image of the basis."""
        alpha, beta = self.alpha, self.beta
        det = self.det_m()
        mid = alpha.x * beta.x - alpha.y * beta.y * self.ext.d
        return alpha.norm() / det, -(mid + mid) / det, beta.norm() / det

    def solve(self, elem: ExtElement):
        """K-coefficients (s, t) with elem = s*alpha + t*beta."""
        a, b = self.alpha, self.beta
        s = elem.x * b.y - b.x * elem.y
        t = a.x * elem.y - elem.x * a.y
        return (s + s) / self._det, (t + t) / self._det

    def contains(self, elem: ExtElement) -> bool:
        s, t = self.solve(elem)
        return s.is_integral() and t.is_integral()

    def same_module(self, other: "IdealBasis") -> bool:
        # other lies in self through a matrix over O_K whose determinant is
        # det M(other) / det M(self); the inclusion is onto when it is a unit
        return (
            self.contains(other.alpha)
            and self.contains(other.beta)
            and (other.det_m() / self.det_m()).is_unit()
        )

    def scale(self, factor) -> "IdealBasis":
        """The basis [factor*alpha, factor*beta]."""
        if not isinstance(factor, ExtElement):
            factor = self.ext.from_base(
                factor if isinstance(factor, BaseElement) else self.ext.base(factor)
            )
        return IdealBasis(factor * self.alpha, factor * self.beta, _checked=True)

    def conj_negated(self) -> "IdealBasis":
        """[conj alpha, -conj beta]; represents the inverse class."""
        return IdealBasis(self.alpha.conj(), -self.beta.conj(), _checked=True)

    def __eq__(self, other):
        if not isinstance(other, IdealBasis):
            return NotImplemented
        return self.alpha == other.alpha and self.beta == other.beta

    def __hash__(self):
        return hash((self.alpha, self.beta))

    def __repr__(self):
        return f"[{self.alpha!r}, {self.beta!r}]"


def reduce_generators(gens, ext: Extension) -> IdealBasis:
    """Two-element basis of the O_K-module spanned by `gens`.

    Triangular form over {1, W} coordinates with gcd pivots.  The output is
    canonical for the module: the pivots are determined up to units and get
    normalized to their canonical associates, once each, and the
    off-diagonal entry is reduced modulo the first pivot.  The basis is
    built, and checked, by `IdealBasis.triangular`.
    """
    rows = []
    for g in gens:
        if g.ext != ext:
            raise ExtensionMismatch("generator from a different extension")
        if not g.is_zero():
            rows.append(g.module_coords())
    if not rows:
        raise RankDeficient("no nonzero generators")

    dd = lcm(*(lcm(s.denominator(), t.denominator()) for s, t in rows))
    rows = [(s * dd, t * dd) for s, t in rows]

    pivot = None
    pile = []
    for s, t in rows:
        if t.is_zero():
            pile.append(s)
            continue
        if pivot is None:
            pivot = (s, t)
            continue
        ps, pt = pivot
        while not t.is_zero():
            q = (pt / t).round_coords()
            ps, pt, s, t = s, t, ps - q * s, pt - q * t
        pile.append(s)
        pivot = (ps, pt)

    if pivot is None:
        raise RankDeficient("generators span a rank-1 module inside K")
    pile = [s for s in pile if not s.is_zero()]
    if not pile:
        raise RankDeficient("generators span a rank-1 module")

    # back to fractional scale, then canonicalize
    a0 = canonical_associate(reduce(_gcd_core, pile) / dd)
    b_s, b_t = pivot[0] / dd, pivot[1] / dd
    t_canon = canonical_associate(b_t)
    u = t_canon / b_t
    b_s, b_t = b_s * u, t_canon
    b_s = b_s - (b_s / a0).round_coords() * a0
    return IdealBasis.triangular(ext, a0, b_s, b_t)


class OrientedIdeal:
    """A fractional ideal with a sign vector in {+-1}^r."""

    __slots__ = ("basis", "eps")

    def __init__(self, basis: IdealBasis, eps):
        eps = tuple(eps)
        if len(eps) != basis.ext.base.r or any(e not in (1, -1) for e in eps):
            raise ValueError("eps must be a vector of +-1 of length r")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "eps", eps)

    def __setattr__(self, name, value):
        raise AttributeError("OrientedIdeal is immutable")

    @property
    def ext(self) -> Extension:
        return self.basis.ext

    def is_aligned(self) -> bool:
        return self.basis.orientation() == self.eps

    def align(self) -> "OrientedIdeal":
        """Representative whose basis orientation equals eps (multiply alpha
        by a unit of the right signs; possible since h+(K) = 1)."""
        current = self.basis.orientation()
        if current == self.eps:
            return self
        pattern = tuple(c * e for c, e in zip(current, self.eps))
        u = self.ext.base.unit_with_signs(pattern)
        adjusted = IdealBasis(
            self.basis.alpha * self.ext.from_base(u), self.basis.beta, _checked=True
        )
        return OrientedIdeal(adjusted, self.eps)

    def conj_inverse(self) -> "OrientedIdeal":
        """Representative of the inverse class: [conj a, -conj b], same eps."""
        return OrientedIdeal(self.basis.conj_negated(), self.eps)

    def scale(self, gamma: ExtElement) -> "OrientedIdeal":
        """Multiplication by the principal oriented ideal of gamma."""
        eps = tuple(e * s for e, s in zip(self.eps, gamma.norm().signs()))
        return OrientedIdeal(self.basis.scale(gamma), eps)

    def __mul__(self, other):
        if not isinstance(other, OrientedIdeal):
            return NotImplemented
        return ideal_mul(self, other)

    def __eq__(self, other):
        if not isinstance(other, OrientedIdeal):
            return NotImplemented
        return self.eps == other.eps and self.basis.same_module(other.basis)

    def __repr__(self):
        return f"({self.basis!r}; {self.eps})"


def principal_oriented(gamma: ExtElement) -> OrientedIdeal:
    """The principal oriented ideal ((gamma); signs of N(gamma))."""
    if gamma.is_zero():
        raise DegenerateBasis("zero generator")
    ext = gamma.ext
    basis = IdealBasis(gamma, gamma * ext.omega, _checked=True)
    return OrientedIdeal(basis, gamma.norm().signs())


def _product_basis(x: IdealBasis, y: IdealBasis) -> IdealBasis:
    """Reduced basis of the product module, spanned by the four pairwise
    products of the two bases."""
    gens = [x.alpha * y.alpha, x.alpha * y.beta, x.beta * y.alpha, x.beta * y.beta]
    return reduce_generators(gens, x.ext)


def ideal_mul(a: OrientedIdeal, b: OrientedIdeal) -> OrientedIdeal:
    """Product ideal with componentwise sign vector, basis unit-adjusted so
    that its orientation equals the sign vector."""
    if a.ext != b.ext:
        raise ExtensionMismatch("oriented ideals over different extensions")
    basis = _product_basis(a.basis, b.basis)
    eps = tuple(x * y for x, y in zip(a.eps, b.eps))
    return OrientedIdeal(basis, eps).align()


EquivalenceResult = namedtuple("EquivalenceResult", ["status", "gamma"])

EQUIVALENT = "equivalent"
NOT_EQUIVALENT = "not_equivalent"
UNKNOWN = "unknown"


def _quotient_module(a: OrientedIdeal, b: OrientedIdeal) -> IdealBasis:
    """The fractional ideal J * I^{-1} (gamma ranges over its generators)."""
    prod = _product_basis(b.basis, a.basis.conj_negated())
    det_a = a.basis.det_m()
    return prod.scale(a.ext.base.one / det_a)


def principal_generator_q(basis: IdealBasis):
    """Over base Q: a generator of the fractional ideal, or None.  Complete:
    the ideal is principal exactly when (basis; +1) or (basis; -1) is
    equivalent to (O_L; +1)."""
    ext = basis.ext
    if not ext.base.is_rational:
        raise ExtensionMismatch("complete principality test requires base Q")
    one = principal_oriented(ext.one)
    for e in (1, -1):
        res = oriented_equivalent(one, OrientedIdeal(basis, (e,)))
        if res.status == EQUIVALENT:
            return res.gamma
    return None


def _coordinate_box(base, bound: int):
    """Pairs (s, t) of O_K elements, K quadratic, whose four coordinates have
    max-abs k, for k = 0, 1, ..., bound; lexicographic within each shell.
    The last coordinate runs over all of [-k, k] only when one of the first
    three already reaches k."""
    for k in range(bound + 1):
        full = range(-k, k + 1)
        for head in product(full, repeat=3):
            for last in full if max(map(abs, head)) == k else (-k, k):
                yield base(head[0], head[1]), base(head[2], last)


def _k_mul(f, p, q):
    """The product of p = p0 + p1*omega and q in O_K, on integer pairs."""
    cross = p[1] * q[1]
    return (p[0] * q[0] - f.omega_norm * cross,
            p[0] * q[1] + p[1] * q[0] + f.omega_trace * cross)


def _l_mul(f, w, z, x, y):
    """The product of x = s + t*W and y = u + v*W in O_L, with s, t, u, v
    integer pairs over (1, omega): by W^2 = -w*W - z it is
    (s*u - z*t*v) + (s*v + t*u - w*t*v)*W."""
    (s, t), (u, v) = x, y
    su, tv, sv, tu = _k_mul(f, s, u), _k_mul(f, t, v), _k_mul(f, s, v), _k_mul(f, t, u)
    ztv, wtv = _k_mul(f, z, tv), _k_mul(f, w, tv)
    return ((su[0] - ztv[0], su[1] - ztv[1]),
            (sv[0] + tu[0] - wtv[0], sv[1] + tu[1] - wtv[1]))


def _l_conj(f, w, x):
    """conj(s + t*W) = (s - w*t) - t*W, since W + conj W = -w."""
    (s, t), wt = x, _k_mul(f, w, x[1])
    return (s[0] - wt[0], s[1] - wt[1]), (-t[0], -t[1])


def _l_norm(f, w, z, s, t) -> int:
    """N_{L/Q}(s + t*W) for integer pairs s, t: N_{L/K}(s + t*W) =
    s^2 - w*s*t + z*t^2, since W + conj W = -w and W conj W = z."""
    ss, st, tt = _k_mul(f, s, s), _k_mul(f, s, t), _k_mul(f, t, t)
    wst, ztt = _k_mul(f, w, st), _k_mul(f, z, tt)
    n0, n1 = ss[0] - wst[0] + ztt[0], ss[1] - wst[1] + ztt[1]
    return n0 * n0 + f.omega_trace * n0 * n1 + f.omega_norm * n1 * n1


@lru_cache(maxsize=256)
def _cm_constants(ext: Extension):
    """Integer data of L/K for the CM search, once per extension: w and z,
    eps^2 and eps^-2 = conj(eps^2) as pairs over (1, omega), and G0, the
    Gram matrix of 2 Tr_{K/Q}(N_{L/K}) on the Z-basis (1, omega, W, omega*W)
    of O_L, whose (i, j) entry is Tr_{K/Q} Tr_{L/K}(e_i conj(e_j))."""
    f = ext.base
    w, z = (ext.w.n0, ext.w.n1), (ext.z.n0, ext.z.n1)
    eps = (f.fundamental_unit.n0, f.fundamental_unit.n1)
    e2 = _k_mul(f, eps, eps)
    basis = [((1, 0), (0, 0)), ((0, 1), (0, 0)), ((0, 0), (1, 0)), ((0, 0), (0, 1))]
    g0 = []
    for x in basis:
        row = []
        for y in basis:
            # Tr_{L/K}(s + t*W) = 2s - w*t; Tr_{K/Q}(p0 + p1*omega) = 2p0 + T(omega)p1
            s, t = _l_mul(f, w, z, x, _l_conj(f, w, y))
            wt = _k_mul(f, w, t)
            row.append(2 * (2 * s[0] - wt[0]) + f.omega_trace * (2 * s[1] - wt[1]))
        g0.append(tuple(row))
    # tuples: every caller shares the memoised result
    return w, z, (e2, (e2[0] + f.omega_trace * e2[1], -e2[1])), tuple(g0)


def _basis_ints(basis: IdealBasis, w):
    """(den, [alpha, beta]): den times each basis element as s + t*W with
    integer pairs s, t over (1, omega), by sqrt D = 2W + w."""
    f = basis.ext.base
    coords = (basis.alpha.x, basis.alpha.y, basis.beta.x, basis.beta.y)
    den = lcm(*(c.den for c in coords))
    ax, ay, bx, by = ((c.n0 * (den // c.den), c.n1 * (den // c.den)) for c in coords)
    out = []
    for x, y in ((ax, ay), (bx, by)):
        wy = _k_mul(f, w, y)
        out.append(((x[0] + wy[0], x[1] + wy[1]), (2 * y[0], 2 * y[1])))
    return den, out


def _cm_lattice(a: OrientedIdeal, b: OrientedIdeal):
    """(rows, den): J * I^-1 as a Z-lattice in Hermite normal form, each row
    the integer coordinates over (1, omega, W, omega*W) of den times a basis
    element.  J * I^-1 = J * conj(I) / det M(I) is spanned over O_K by the
    four products of alpha_J, beta_J with conj(alpha_I)/det, -conj(beta_I)/det,
    so over Z by those and omega times each."""
    f = a.ext.base
    w, z = _cm_constants(a.ext)[:2]
    dj, jb = _basis_ints(b.basis, w)
    di, (ia, ib) = _basis_ints(a.basis, w)
    det = a.basis.det_m()
    # 1/det = den(det) * conj(n0 + n1*omega) / N(n0 + n1*omega)
    nrm = det._norm_num()
    scale = det.den if nrm > 0 else -det.den
    inv = (scale * (det.n0 + f.omega_trace * det.n1), -scale * det.n1)
    inverse = [
        tuple(_k_mul(f, u, c) for c in _l_conj(f, w, x))
        for x, u in ((ia, inv), (ib, (-inv[0], -inv[1])))
    ]
    rows = []
    for x in jb:
        for y in inverse:
            s, t = _l_mul(f, w, z, x, y)
            rows.append([*s, *t])
            rows.append([*_k_mul(f, (0, 1), s), *_k_mul(f, (0, 1), t)])
    rows = hnf(rows)
    den = dj * di * abs(nrm)
    g = gcd(den, *(v for row in rows for v in row))
    return [[v // g for v in row] for row in rows], den // g


def _cm_gram(ext: Extension, rows):
    """M G0 M^T for the rows M of `_cm_lattice`: v^T gram v =
    2 den^2 Tr_{K/Q}(N_{L/K}(gamma)) for gamma = sum_i v_i row_i / den."""
    g0 = _cm_constants(ext)[3]
    mg = [[sum(r[k] * g0[k][j] for k in range(4)) for j in range(4)] for r in rows]
    gram = [[0] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i, 4):
            gram[i][j] = gram[j][i] = sum(u * v for u, v in zip(mg[i], rows[j]))
    return gram


def _cm_gamma(a: OrientedIdeal, b: OrientedIdeal):
    """A generator of J * I^-1, or None when it is not principal; for K
    real quadratic and D totally negative, in integers up to the element
    returned.

    L is then a CM field, so Tr_{K/Q}(N_{L/K}(gamma)) is a positive
    definite quadratic form on the lattice (`_cm_gram`).  A generator has
    norm n0*u for n0 = det M(J) / det M(I) and a unit u, and n0*u is
    totally positive.  With n* = n0 times the unit of the signs of n0, the
    totally positive associates of n0 are n* eps^(2k), so sliding by eps^2
    gives the least trace C among them, and some unit of K scales a
    generator to trace exactly C.  No element of trace below C generates
    the lattice, so enumerating up to C after LLL is complete; of the
    vectors at C, those with |N_{L/Q}| equal to the index of the lattice
    are the generators.
    """
    ext = a.ext
    f = ext.base
    w, z, (e2, e2_inv), _ = _cm_constants(ext)
    n0 = b.basis.det_m() / a.basis.det_m()
    n = n0 * f.unit_with_signs(n0.signs())
    p = (n.n0, n.n1)
    for e in (e2, e2_inv):  # the trace is convex along p * eps^(2k)
        q = _k_mul(f, p, e)
        while 2 * q[0] + f.omega_trace * q[1] < 2 * p[0] + f.omega_trace * p[1]:
            p, q = q, _k_mul(f, q, e)
    rows, den = _cm_lattice(a, b)
    bound, rest = divmod(2 * den * den * (2 * p[0] + f.omega_trace * p[1]), n.den)
    if rest:  # 2 den^2 Tr N(gamma) is an integer for every gamma of the lattice
        return None
    index = rows[0][0] * rows[1][1] * rows[2][2] * rows[3][3]
    reduced, h = lll_gram(_cm_gram(ext, rows))
    for x, value in short_vectors(reduced, bound):
        if value != bound:
            continue
        v = [sum(hij * xj for hij, xj in zip(row, x)) for row in h]
        c = [sum(vi * row[k] for vi, row in zip(v, rows)) for k in range(4)]
        if abs(_l_norm(f, w, z, (c[0], c[1]), (c[2], c[3]))) == index:
            s, t = _elem(f, c[0], c[1], den), _elem(f, c[2], c[3], den)
            return ext.from_module_coords(s, t)
    return None


def _q_aligned(ideal: OrientedIdeal, d: int):
    """Over Q: (den, ax, ay, bx, by, m) with alpha = (ax + ay*sqrt D)/den,
    beta = (bx + by*sqrt D)/den, m = den^2 det M, alpha negated unless m has
    sign eps (as `align` does), and the Phi-image as an integer triple."""
    al, be = ideal.basis.alpha, ideal.basis.beta
    den = lcm(al.x.den, al.y.den, be.x.den, be.y.den)
    ax, ay, bx, by = (v.n0 * (den // v.den) for v in (al.x, al.y, be.x, be.y))
    m = 2 * (ax * by - ay * bx)
    if (m > 0) != (ideal.eps[0] > 0):
        ax, ay, m = -ax, -ay, -m
    form = (ax * ax - d * ay * ay, -2 * (ax * bx - d * ay * by), bx * bx - d * by * by)
    if any(c % m for c in form):
        raise NotIntegral("form coefficients must lie in O_K")
    return (den, ax, ay, bx, by, m), tuple(c // m for c in form)


def _q_generator(a: OrientedIdeal, b: OrientedIdeal, sign: int):
    """Over Q, in integers: gamma with gamma*I = J and N(gamma) of `sign`, or
    None.  f o T = g for the aligned Phi-images makes [p alpha_a - r beta_a,
    ...] a basis of I with form g, so gamma = alpha_b / (p alpha_a - r beta_a).
    DomainError unless N(gamma) has `sign` and gamma*alpha_a, gamma*beta_a
    have integer coordinates in [alpha_b, beta_b] (Cramer) of determinant +-1."""
    d = a.ext.d.n0
    (ia, fa), (ib, fb) = _q_aligned(a, d), _q_aligned(b, d)
    mat = _proper_matrix(fa, fb)
    if mat is None:
        return None
    (da, ax, ay, bx, by, _), (db, cx, cy, ex, ey, mb) = ia, ib
    # delta = (sx + sy*sqrt D)/da; gamma = alpha_b*conj(delta)/N(delta)
    sx, sy = mat[0] * ax - mat[2] * bx, mat[0] * ay - mat[2] * by
    gx, gy = (cx * sx - d * cy * sy) * da, (cy * sx - cx * sy) * da
    g = db * (sx * sx - d * sy * sy)  # gamma = (gx + gy*sqrt D)/g
    q, coords = g * da * mb, []  # gamma*alpha_a, gamma*beta_a have denominator g*da
    for x, y in ((ax, ay), (bx, by)):
        ux, uy = gx * x + d * gy * y, gx * y + gy * x
        coords += [2 * db * (ux * ey - ex * uy), 2 * db * (cx * uy - ux * cy)]
    n1, n2, n3, n4 = coords  # q * (the coordinate matrix)
    if (not q or any(n % q for n in coords) or abs(n1 * n4 - n2 * n3) != q * q
            or (gx * gx - d * gy * gy > 0) != (sign > 0)):
        raise DomainError("equivalence witness failed verification")
    return a.ext.element(Fraction(gx, g), Fraction(gy, g))


def oriented_equivalent(
    a: OrientedIdeal, b: OrientedIdeal, search_bound: int = 8
) -> EquivalenceResult:
    """Three-valued equivalence test for oriented ideals.

    Equivalence means gamma*I = J with the sign vector of N(gamma) equal to
    the componentwise product of the two orientations.  Two cases are
    decided completely, and `search_bound` is ignored in them:
    - over base Q, the Phi-images of the aligned ideals are reduced and
      compared (one reduced form for d < 0, one cycle of reduced forms for
      d > 0); the alignment, the Phi-images, gamma and its check run on
      integers (`_q_generator`);
    - over a real quadratic base with D totally negative, a generator of
      J * I^{-1} is sought by LLL and Fincke-Pohst enumeration of
      Tr_{K/Q} N_{L/K} up to the least trace of a totally positive
      associate of its norm; the lattice, its Gram matrix, the bound and
      the norm test of each candidate run on integers (`_cm_gamma`), and
      gamma is checked by `witness_ok`.
    Over Q(i), and over a real quadratic base with D of mixed signs, the
    witness search runs over coordinate boxes up to `search_bound` and may
    return unknown.  The box grows like (2k+1)^4, so large bounds get
    expensive fast.  Every witness is verified before it is returned.
    """
    if a.ext != b.ext:
        raise ExtensionMismatch("oriented ideals over different extensions")
    ext = a.ext
    base = ext.base
    target = tuple(x * y for x, y in zip(a.eps, b.eps))

    # with D totally negative every relative norm is totally positive, so
    # differing orientations can never be bridged
    if ext.totally_negative_d() and any(s == -1 for s in target):
        return EquivalenceResult(NOT_EQUIVALENT, None)

    def witness_ok(gamma):  # gamma is nonzero
        sign_ok = gamma.norm().signs() == target
        return sign_ok and a.basis.scale(gamma).same_module(b.basis)

    if base.is_rational:
        gamma = _q_generator(a, b, target[0])
        return EquivalenceResult(NOT_EQUIVALENT if gamma is None else EQUIVALENT, gamma)
    if base.r == 2 and ext.totally_negative_d():
        gamma = _cm_gamma(a, b)
    else:
        quotient = _quotient_module(a, b)
        n0 = quotient.det_m()
        for s, t in _coordinate_box(base, search_bound):
            gamma = ext.from_base(s) * quotient.alpha + ext.from_base(t) * quotient.beta
            if gamma and (gamma.norm() / n0).is_unit() and witness_ok(gamma):
                return EquivalenceResult(EQUIVALENT, gamma)
        return EquivalenceResult(UNKNOWN, None)

    if gamma is None:
        return EquivalenceResult(NOT_EQUIVALENT, None)
    if not witness_ok(gamma):
        raise DomainError("equivalence witness failed verification")
    return EquivalenceResult(EQUIVALENT, gamma)
