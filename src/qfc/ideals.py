"""Fractional O_L-ideals as O_K-module bases [alpha, beta], with orientation.

The orientation of a basis is the sign vector of
det M = (conj(alpha) beta - alpha conj(beta)) / (W - conj W),
which also generates the relative norm ideal.  An oriented ideal pairs a
module with a sign vector in {+-1}^r; multiplication reduces the four
pairwise products back to a two-element basis by a Hermite-style
triangularization over the (norm-Euclidean) base ring, then unit-adjusts
the basis so its orientation matches the sign vector.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import product
from math import ceil, isqrt, lcm

from .base_field import BaseElement, canonical_associate, gcd_k
from .contfrac import fundamental_unit_xy
from .errors import (
    DegenerateBasis,
    ExtensionMismatch,
    NotAnIdeal,
    RankDeficient,
)
from .extension import ExtElement, Extension


class IdealBasis:
    """An O_K-module basis [alpha, beta] of a fractional O_L-ideal.

    The constructor verifies both invariants: alpha, beta are K-linearly
    independent, and the module is stable under multiplication by W.
    """

    __slots__ = ("ext", "alpha", "beta")

    def __init__(self, alpha: ExtElement, beta: ExtElement, _checked=False):
        if alpha.ext != beta.ext:
            raise ExtensionMismatch("basis elements of different extensions")
        object.__setattr__(self, "ext", alpha.ext)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        if self.det_m().is_zero():
            raise DegenerateBasis("alpha, beta are K-linearly dependent")
        if not _checked:
            omega = self.ext.omega
            for gen in (alpha * omega, beta * omega):
                if not self.contains(gen):
                    raise NotAnIdeal("[alpha, beta] is not an O_L-module")

    def __setattr__(self, name, value):
        raise AttributeError("IdealBasis is immutable")

    def det_m(self) -> BaseElement:
        """(conj(a) b - a conj(b)) / (W - conj W); in sqrt(D) coordinates
        this is 2*(x_a y_b - y_a x_b)."""
        a, b = self.alpha, self.beta
        d = a.x * b.y - a.y * b.x
        return d + d

    def orientation(self) -> tuple:
        det = self.det_m()
        if det.is_zero():
            raise DegenerateBasis("zero determinant")
        return det.signs() if self.ext.base.r > 0 else ()

    def norm_generator(self) -> BaseElement:
        """Generator of the relative norm ideal N_{L/K}(I); equals det M."""
        return self.det_m()

    def solve(self, elem: ExtElement):
        """K-coefficients (s, t) with elem = s*alpha + t*beta."""
        a, b = self.alpha, self.beta
        den = a.x * b.y - a.y * b.x
        s = (elem.x * b.y - b.x * elem.y) / den
        t = (a.x * elem.y - elem.x * a.y) / den
        return s, t

    def contains(self, elem: ExtElement) -> bool:
        s, t = self.solve(elem)
        return s.is_integral() and t.is_integral()

    def same_module(self, other: "IdealBasis") -> bool:
        return (
            self.contains(other.alpha)
            and self.contains(other.beta)
            and other.contains(self.alpha)
            and other.contains(self.beta)
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


def rel_norm_ideal(basis: IdealBasis) -> BaseElement:
    """Generator of the relative norm of the ideal (Lemma: det M)."""
    return basis.norm_generator()


def reduce_generators(gens, ext: Extension) -> IdealBasis:
    """Two-element basis of the O_K-module spanned by `gens`.

    Triangular form over {1, W} coordinates with gcd pivots.  The output is
    canonical for the module: the pivots are determined up to units and get
    normalized to their canonical associates, and the off-diagonal entry is
    reduced modulo the first pivot.
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

    a0 = pile[0]
    for s in pile[1:]:
        a0 = gcd_k(a0, s)

    # back to fractional scale, then canonicalize
    a0 = a0 / dd
    b_s, b_t = pivot[0] / dd, pivot[1] / dd
    a0 = canonical_associate(a0)
    t_canon = canonical_associate(b_t)
    u = t_canon / b_t
    b_s, b_t = b_s * u, t_canon
    b_s = b_s - (b_s / a0).round_coords() * a0

    alpha = ext.from_module_coords(a0, a0.field.zero)
    beta = ext.from_module_coords(b_s, b_t)
    return IdealBasis(alpha, beta)


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
        nsigns = gamma.norm().signs() if self.ext.base.r > 0 else ()
        eps = tuple(e * s for e, s in zip(self.eps, nsigns))
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
    eps = gamma.norm().signs() if ext.base.r > 0 else ()
    return OrientedIdeal(basis, eps)


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


def _rational_generators(basis: IdealBasis, n: int):
    """All gamma = (X + Y sqrt(D))/2 in an integral ideal over base Q with
    |N(gamma)| = n and Y >= 0; complete by construction.

    For D < 0 the norm form is positive definite, bounding Y directly; for
    D > 0 any generator can be slid by the fundamental unit into
    |sigma_1| in [sqrt(n), sqrt(n)*eps), which bounds both coordinates.
    """
    ext = basis.ext
    D = int(ext.d.c0)
    if D < 0:
        y_max = isqrt(4 * n // (-D))
    else:
        X_e, Y_e, _ = fundamental_unit_xy(D)
        eps_up = Fraction(X_e + Y_e * (isqrt(D) + 1), 2)
        bound = Fraction(isqrt(n) + 1) * (eps_up + 1)
        y_max = ceil(bound / isqrt(D))
    for Y in range(0, y_max + 1):
        for t in (4 * n, -4 * n):
            v = D * Y * Y + t
            if v < 0:
                continue
            X = isqrt(v)
            if X * X != v or (X - D * Y) % 2 != 0:
                continue
            xs = (X,) if X == 0 else (X, -X)
            for Xs in xs:
                gamma = ext.element(Fraction(Xs, 2), Fraction(Y, 2))
                if basis.contains(gamma):
                    yield gamma


def principal_generator_q(basis: IdealBasis):
    """Over base Q: a generator of the fractional ideal, or None.

    The search is complete (not bounded): for D < 0 via the positive
    definite norm form, for D > 0 via the fundamental-unit sliding bound.
    """
    if not basis.ext.base.is_rational:
        raise ExtensionMismatch("complete principality test requires base Q")
    k = lcm(basis.alpha.denominator(), basis.beta.denominator())
    integral = basis.scale(k)
    n = abs(int(integral.det_m().c0))
    for gamma in _rational_generators(integral, n):
        cand = IdealBasis(gamma, gamma * basis.ext.omega, _checked=True)
        if cand.same_module(integral):
            return gamma / basis.ext.from_base(basis.ext.base(k))
    return None


def _coordinate_box(base, bound: int):
    """Pairs (s, t) of O_K elements with coordinates of max-abs k, for
    k = 0, 1, ..., bound; deterministic shell order."""
    dims = 2 if base.is_rational else 4
    for k in range(bound + 1):
        rng = range(-k, k + 1)
        for tup in product(rng, repeat=dims):
            if max(abs(v) for v in tup) != k:
                continue
            if base.is_rational:
                yield base(tup[0]), base(tup[1])
            else:
                yield base(tup[0], tup[1]), base(tup[2], tup[3])


def oriented_equivalent(
    a: OrientedIdeal, b: OrientedIdeal, search_bound: int = 8
) -> EquivalenceResult:
    """Three-valued equivalence test for oriented ideals.

    Equivalence means gamma*I = J with the sign vector of N(gamma) equal to
    the componentwise product of the two orientations.  Over base Q the
    answer is always definite (the generator search is complete and the
    bound is ignored); over quadratic base fields the witness search runs
    over coordinate boxes up to `search_bound` and may return unknown.
    The box grows like (2k+1)^4, so large bounds get expensive fast.
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

    quotient = _quotient_module(a, b)

    def witness_ok(gamma):
        if gamma.is_zero():
            return False
        if base.r > 0 and gamma.norm().signs() != target:
            return False
        return a.basis.scale(gamma).same_module(b.basis)

    if base.is_rational:
        gamma = principal_generator_q(quotient)
        if gamma is None:
            return EquivalenceResult(NOT_EQUIVALENT, None)
        if witness_ok(gamma):
            return EquivalenceResult(EQUIVALENT, gamma)
        # wrong sign: only a norm-negative unit of L can repair it
        D = int(ext.d.c0)
        if D > 0:
            X, Y, nsign = fundamental_unit_xy(D)
            if nsign == -1:
                gamma2 = gamma * ext.element(Fraction(X, 2), Fraction(Y, 2))
                if witness_ok(gamma2):
                    return EquivalenceResult(EQUIVALENT, gamma2)
        return EquivalenceResult(NOT_EQUIVALENT, None)

    n0 = quotient.det_m()
    for s, t in _coordinate_box(base, search_bound):
        gamma = ext.from_base(s) * quotient.alpha + ext.from_base(t) * quotient.beta
        if gamma.is_zero():
            continue
        if not (gamma.norm() / n0).is_unit():
            continue
        if witness_ok(gamma):
            return EquivalenceResult(EQUIVALENT, gamma)
    return EquivalenceResult(UNKNOWN, None)
