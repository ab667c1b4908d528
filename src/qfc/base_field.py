"""Exact arithmetic in the supported base number fields.

A base K = Q(sqrt m) is defined by m alone; `contfrac` derives its unit.
It must have narrow class number one (units of every sign pattern exist,
which forces N(eps) = -1 on a real base), which `Field` checks, and be
norm-Euclidean by coordinate rounding (the gcd below and the module
reduction in `ideals` terminate), which nothing checks yet.  The registry
holds Q, Q(i), Q(sqrt 2), Q(sqrt 5) and Q(sqrt 13); Q(sqrt -2) and
Q(sqrt -3) are tested but not registered.

An element is (n0 + n1*w)/den over the integral basis {1, w}, where w is
sqrt(m), or (1 + sqrt(m))/2 when m = 1 (mod 4): integers n0, n1
and one positive denominator with the content removed, so equal elements
have equal triples.  The coordinates c0, c1 are read as Fractions.  Signs
under the real embeddings are decided by exact integer case analysis; no
floating point anywhere.
"""

from fractions import Fraction
from itertools import product
from math import gcd, isqrt, lcm

from .contfrac import _count_cycles, _factor_int, _reduced_triples, _sqrt_mod
from .contfrac import fundamental_unit_xy
from .errors import (
    DivisionByZero,
    DomainError,
    NotIntegral,
    SquareInput,
    ZeroArgument,
)


def _rat_sqrt(f: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    if f < 0:
        return None
    pn, qd = f.numerator, f.denominator
    rn, rd = isqrt(pn), isqrt(qd)
    if rn * rn == pn and rd * rd == qd:
        return Fraction(rn, rd)
    return None


class Field:
    """A base field K = Q(sqrt m), from tag and m; the rest is derived.

    m is None for Q, else a square-free integer other than 0 and 1, and K
    must have narrow class number one, the paper's hypothesis.  The core
    checks it on the discriminant d_K of O_K (m, or 4m unless m = 1 mod 4):
    one rho-cycle of reduced forms for real K, one reduced form for
    imaginary K; otherwise DomainError.  The fundamental unit of a real K
    is fundamental_unit_xy(d_K).  Norm-Euclidean rounding, which the gcd
    needs, is still unchecked: m = -19 builds a field, but its gcd can loop.

    Attributes:
        tag: registry key ("q", "q_i", "q_sqrt2", "q_sqrt5", "q_sqrt13")
        m: the square-free integer with K = Q(sqrt m), or None for Q
        half_omega: True when w = (1 + sqrt m)/2 (m = 1 mod 4)
        r: number of real embeddings (1 for Q, 0 if imaginary, 2 otherwise)
        omega_trace, omega_norm: w satisfies w^2 = trace*w - norm
        fundamental_unit: generator of the units modulo torsion, or None
        unit_norm_sign: norm of the fundamental unit, or None
        roots: the roots of unity, as powers of w if w is one, else (1, -1)
    """

    __slots__ = (
        "tag",
        "m",
        "half_omega",
        "r",
        "omega_trace",
        "omega_norm",
        "fundamental_unit",
        "unit_norm_sign",
        "roots",
    )

    def __init__(self, tag, m):
        self.tag = tag
        self.m = m
        self.half_omega = m is not None and m % 4 == 1
        self.r = 1 if m is None else 2 if m > 0 else 0
        self.omega_trace = int(self.half_omega)
        self.omega_norm = 0 if m is None else (1 - m) // 4 if self.half_omega else -m
        self.fundamental_unit = self.unit_norm_sign = None
        if m is not None:
            if m in (0, 1) or max(_factor_int(m).values(), default=1) > 1:
                raise DomainError("m must be a square-free integer other than 0 and 1")
            d_k = m if self.half_omega else 4 * m  # the discriminant of O_K
            h = _count_cycles(d_k) if m > 0 else len(_reduced_triples(d_k))
            if h != 1:
                raise DomainError(f"K must have narrow class number one, not {h}")
            if m > 0:
                # the unit (X + Y*sqrt(d_k))/2, over {1, w}
                X, Y, self.unit_norm_sign = fundamental_unit_xy(d_k)
                self.fundamental_unit = self((X - Y) // 2 if self.half_omega else X // 2, Y)
        z = self.omega if self.r == 0 and self.omega_norm == 1 else -self.one
        self.roots = (self.one,)
        while self.roots[-1] * z != self.one:
            self.roots += (self.roots[-1] * z,)

    @property
    def is_rational(self) -> bool:
        return self.m is None

    def __call__(self, c0, c1=0) -> "BaseElement":
        return BaseElement(self, c0, c1)

    @property
    def zero(self) -> "BaseElement":
        return self(0)

    @property
    def one(self) -> "BaseElement":
        return self(1)

    @property
    def omega(self) -> "BaseElement":
        if self.is_rational:
            raise ValueError("Q has no quadratic generator")
        return self(0, 1)

    def residues(self, n: int):
        """A complete residue system for O_K / n O_K."""
        if self.is_rational:
            return [self(a) for a in range(n)]
        return [self(a, b) for a, b in product(range(n), repeat=2)]

    def unit_with_signs(self, pattern) -> "BaseElement":
        """A unit whose embedding signs match `pattern` (exists: h+ = 1)."""
        pattern = tuple(pattern)
        if len(pattern) != self.r:
            raise ValueError("sign pattern has wrong length")
        eps = self.fundamental_unit
        for u in self.roots + (() if eps is None else (eps, -eps)):
            if u.signs() == pattern:
                return u
        raise DomainError("registry invariant violated: missing sign pattern")

    def __repr__(self):
        return f"Field({self.tag})"

    def __eq__(self, other):
        # m determines the field; the tag only names it
        return isinstance(other, Field) and other.m == self.m

    def __hash__(self):
        return hash(self.m)


class BaseElement:
    """An element (n0 + n1*w)/den of K.

    n0, n1 and den are integers with den > 0 and gcd(n0, n1, den) = 1, so
    equal elements have equal triples; c0 and c1 are the coordinates as
    Fractions.  Every operation works on the integers.
    """

    __slots__ = ("field", "n0", "n1", "den")

    def __init__(self, field: Field, c0, c1=0):
        for v in (c0, c1):
            if not isinstance(v, (int, Fraction)):
                raise TypeError(f"expected int or Fraction, got {type(v).__name__}")
        den = lcm(c0.denominator, c1.denominator)
        n0 = c0.numerator * (den // c0.denominator)
        n1 = c1.numerator * (den // c1.denominator)
        if field.is_rational and n1 != 0:
            raise ValueError("elements of Q have no w coordinate")
        _SET_FIELD(self, field)
        _SET_N0(self, n0)
        _SET_N1(self, n1)
        _SET_DEN(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("BaseElement is immutable")

    @property
    def c0(self) -> Fraction:
        return Fraction(self.n0, self.den)

    @property
    def c1(self) -> Fraction:
        return Fraction(self.n1, self.den)

    def _coerce(self, other):
        if isinstance(other, BaseElement):
            if other.field is not self.field:
                raise ValueError("elements of different base fields")
            return other
        if isinstance(other, (int, Fraction)):
            return _new(self.field, other.numerator, 0, other.denominator)
        return None

    def _norm_num(self) -> int:
        """(n0 + n1*w)*conj(n0 + n1*w), so that self*conj(self) is
        _norm_num() / den^2; this is the norm when K is quadratic."""
        f, n0, n1 = self.field, self.n0, self.n1
        return n0 * n0 + f.omega_trace * n0 * n1 + f.omega_norm * n1 * n1

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _elem(
            self.field,
            self.n0 * o.den + o.n0 * self.den,
            self.n1 * o.den + o.n1 * self.den,
            self.den * o.den,
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _elem(
            self.field,
            self.n0 * o.den - o.n0 * self.den,
            self.n1 * o.den - o.n1 * self.den,
            self.den * o.den,
        )

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return _new(self.field, -self.n0, -self.n1, self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        f = self.field
        # w^2 = trace*w - norm
        cross = self.n1 * o.n1
        return _elem(
            f,
            self.n0 * o.n0 - cross * f.omega_norm,
            self.n0 * o.n1 + self.n1 * o.n0 + cross * f.omega_trace,
            self.den * o.den,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise DivisionByZero("division by zero in K")
        f = self.field
        # x / y = x * conj(y) / (y * conj(y)); the numerators of y and
        # conj(y) leave den(y) over, and y * conj(y) has den(y)^2
        c0, c1 = o.n0 + o.n1 * f.omega_trace, -o.n1
        cross = self.n1 * c1
        return _elem(
            f,
            (self.n0 * c0 - cross * f.omega_norm) * o.den,
            (self.n0 * c1 + self.n1 * c0 + cross * f.omega_trace) * o.den,
            self.den * o._norm_num(),
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        if k < 0:
            return self.field.one / self ** (-k)
        out = self.field.one
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, BaseElement):
            return (
                other.field is self.field
                and self.n0 == other.n0
                and self.n1 == other.n1
                and self.den == other.den
            )
        if isinstance(other, (int, Fraction)):
            return (
                self.n1 == 0
                and self.n0 == other.numerator
                and self.den == other.denominator
            )
        return NotImplemented

    def __hash__(self):
        # a rational element hashes as the int or Fraction it equals
        if self.n1 == 0:
            return hash(self.n0 if self.den == 1 else self.c0)
        return hash((self.n0, self.n1, self.den))

    def __bool__(self):
        return not self.is_zero()

    # -- field structure ---------------------------------------------------

    def conj(self) -> "BaseElement":
        """The nontrivial automorphism of K/Q (identity on Q)."""
        f = self.field
        return _new(f, self.n0 + self.n1 * f.omega_trace, -self.n1, self.den)

    def norm(self) -> Fraction:
        """Norm down to Q."""
        if self.field.is_rational:
            return self.c0
        return Fraction(self._norm_num(), self.den * self.den)

    def trace(self) -> Fraction:
        """Trace down to Q."""
        if self.field.is_rational:
            return self.c0
        return Fraction(2 * self.n0 + self.field.omega_trace * self.n1, self.den)

    def is_zero(self) -> bool:
        return self.n0 == 0 and self.n1 == 0

    def is_integral(self) -> bool:
        return self.den == 1

    def is_unit(self) -> bool:
        return self.den == 1 and abs(self._norm_num()) == 1

    def denominator(self) -> int:
        return self.den

    def round_coords(self) -> "BaseElement":
        """Each coordinate rounded to the nearest integer, ties toward +inf;
        the offset is at most 1/2, which keeps the Euclidean remainders
        below norm 1 on every registry field."""
        den2 = 2 * self.den
        return _new(
            self.field,
            (2 * self.n0 + self.den) // den2,
            (2 * self.n1 + self.den) // den2,
            1,
        )

    # -- real embeddings ---------------------------------------------------

    def sign_at(self, i: int) -> int:
        """Exact sign of sigma_i(self); embeddings ordered with sqrt(m) > 0 first."""
        f = self.field
        if not 0 <= i < f.r:
            raise ValueError(f"field {f.tag} has {f.r} real embeddings")
        if f.is_rational:
            return _sign(self.n0)
        # 2*den*self = a + b*sqrt(m) under sigma_1, and den > 0
        if f.half_omega:
            a, b = 2 * self.n0 + self.n1, self.n1
        else:
            a, b = 2 * self.n0, 2 * self.n1
        if i == 1:
            b = -b
        return _sign_a_plus_b_sqrt(a, b, f.m)

    def signs(self) -> tuple:
        """Sign vector across real embeddings; empty for Q(i)."""
        if self.is_zero():
            raise ZeroArgument("sign vector of zero")
        return tuple(self.sign_at(i) for i in range(self.field.r))

    def is_totally_positive(self) -> bool:
        """Positive under every real embedding; vacuously true for Q(i)."""
        if self.is_zero():
            return False
        return all(s == 1 for s in self.signs())

    def __repr__(self):
        if self.n1 == 0:
            return str(self.c0)
        if self.n0 == 0:
            return f"{self.c1}w"
        sep = "+" if self.n1 > 0 else "-"
        return f"{self.c0}{sep}{abs(self.c1)}w"


# the slot setters, which BaseElement.__setattr__ does not reach
_SET_FIELD, _SET_N0, _SET_N1, _SET_DEN = (
    BaseElement.__dict__[name].__set__ for name in BaseElement.__slots__
)


def _new(field, n0, n1, den) -> BaseElement:
    """The element (n0 + n1*w)/den for a triple already in normal form."""
    x = object.__new__(BaseElement)
    _SET_FIELD(x, field)
    _SET_N0(x, n0)
    _SET_N1(x, n1)
    _SET_DEN(x, den)
    return x


def _elem(field, n0, n1, den) -> BaseElement:
    """The element (n0 + n1*w)/den for any den != 0, brought to normal form."""
    if den != 1:
        g = gcd(n0, n1, den)
        if den < 0:
            g = -g
        if g != 1:
            n0, n1, den = n0 // g, n1 // g, den // g
    return _new(field, n0, n1, den)


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def _sign_a_plus_b_sqrt(a: int, b: int, m: int) -> int:
    """Sign of a + b*sqrt(m) for m > 1 non-square, by squaring case analysis."""
    if b == 0:
        return _sign(a)
    if a == 0:
        return _sign(b)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # opposite signs; a^2 = b^2 m is impossible since m is not a square
    if a > 0:
        return 1 if a * a > b * b * m else -1
    return 1 if b * b * m > a * a else -1


# -- registry ----------------------------------------------------------------

REGISTRY: dict[str, Field] = {}

for _tag, _m in [
    ("q", None),
    ("q_i", -1),
    ("q_sqrt2", 2),
    ("q_sqrt5", 5),
    ("q_sqrt13", 13),
]:
    REGISTRY[_tag] = Field(_tag, _m)

Q = REGISTRY["q"]
QI = REGISTRY["q_i"]


def field(tag: str) -> Field:
    try:
        return REGISTRY[tag]
    except KeyError:
        raise KeyError(f"unknown base field {tag!r}; known: {sorted(REGISTRY)}")


def registry_config() -> dict:
    """The registry as plain data (name, m, generator kind, unit coords)."""
    out = {}
    for tag, f in REGISTRY.items():
        unit = f.fundamental_unit
        out[tag] = {
            "m": f.m,
            "omega_kind": "half" if f.half_omega else "sqrt",
            "real_embeddings": f.r,
            "fundamental_unit": None
            if unit is None
            else [str(unit.c0), str(unit.c1)],
            "unit_norm_sign": f.unit_norm_sign,
        }
    return out


# -- associates and units -----------------------------------------------------


def _abs_emb_cmp(u, v) -> int:
    """Compare |sigma_1(y)| with |sigma_2(z)| exactly, for u = (y, y*y) and
    v = (z, z*z): -1, 0 or +1.  Uses |sigma_1(y)|^2 = sigma_1(y^2) and
    sigma_2(x) = sigma_1(conj x).
    """
    d = u[1] - v[1].conj()
    if d.is_zero():
        return 0
    return d.sign_at(0)


def _times(u, unit):
    y = u[0] * unit
    return y, y * y


def _unit_slide(x: BaseElement, unit: BaseElement, unit_inv: BaseElement):
    """The multiples x * unit^k minimizing |sigma_1| + |sigma_2|: one, or
    two on a tie, in a fixed order.

    The sum is strictly convex in k; T(y*unit) < T(y) iff |sigma_1(y*unit)|
    < |sigma_2(y)|, so walk toward smaller sums first with unit, then with
    unit_inv, then compare with both neighbours, squaring each multiple once.
    """
    y = (x, x * x)
    up = _times(y, unit)
    while _abs_emb_cmp(up, y) < 0:
        y, up = up, _times(up, unit)
    down = _times(y, unit_inv)
    while _abs_emb_cmp(y, down) > 0:
        y, up, down = down, y, _times(down, unit_inv)
    candidates = [y[0]]
    if _abs_emb_cmp(up, y) == 0:
        candidates.append(up[0])
    if _abs_emb_cmp(y, down) == 0:
        candidates.append(down[0])
    return candidates


def _orbit_key(c: BaseElement):
    """(Re sigma_1(c) <= 0, Im sigma_1(c) < 0, n0, n1): sigma_1 is the first
    real embedding, or the complex one with Im w > 0."""
    if c.field.r:
        return c.sign_at(0) <= 0, False, c.n0, c.n1
    return 2 * c.n0 + c.field.omega_trace * c.n1 <= 0, c.n1 < 0, c.n0, c.n1


def _orbit_min(x: BaseElement, squares: bool = False) -> BaseElement:
    """The least element of mu_K * x * eps^Z by _orbit_key; with `squares`,
    of {z^2 : z in mu_K} * x * eps^(4Z), the orbit under the squares of the
    totally positive units.  Only the powers of eps that _unit_slide keeps
    compete; z * y is formed on coordinates, since the unit z keeps the
    denominator and content of y."""
    f, eps, slid = x.field, x.field.fundamental_unit, [x]
    if eps is not None and not x.is_zero():
        eps = eps ** 4 if squares else eps
        slid = _unit_slide(x, eps, f.one / eps)
    tr, nm = f.omega_trace, f.omega_norm
    return min(
        (_new(f, y.n0 * z.n0 - nm * y.n1 * z.n1,
              y.n0 * z.n1 + y.n1 * z.n0 + tr * y.n1 * z.n1, y.den)
         for y in slid for z in f.roots[:: 1 + squares]),
        key=_orbit_key,
    )


def canonical_associate(x: BaseElement) -> BaseElement:
    """The canonical unit multiple of x: the least of mu_K * x * eps^Z."""
    return _orbit_min(x)


# -- gcd, residues, fundamental elements --------------------------------------


def _gcd_core(x: BaseElement, y: BaseElement) -> BaseElement:
    """A gcd in O_K, up to a unit, by the norm-Euclidean algorithm.

    Coordinate rounding keeps |N(x/y - q)| < 1 on every registry field
    (worst case 13/16 on Q(sqrt 13)), so the loop terminates.
    """
    if x.field is not y.field:
        raise ValueError("elements of different base fields")
    if not (x.is_integral() and y.is_integral()):
        raise NotIntegral("gcd arguments must lie in O_K")
    if x.is_zero() and y.is_zero():
        raise ZeroArgument("gcd(0, 0)")
    while not y.is_zero():
        q = (x / y).round_coords()
        x, y = y, x - q * y
    return x


def gcd_k(x: BaseElement, y: BaseElement) -> BaseElement:
    """gcd in O_K, canonically normalized."""
    return canonical_associate(_gcd_core(x, y))


def sqrt_mod4(d: BaseElement):
    """The first t, by (|N(t)|, c0, c1) among the residues mod 2, with
    t^2 = d (mod 4) in O_K, or None.  Residues mod 2 suffice because
    (t + 2s)^2 = t^2 (mod 4)."""
    if not d.is_integral():
        raise NotIntegral("quadratic residue test requires an element of O_K")
    for t in sorted(d.field.residues(2), key=lambda t: (abs(t.norm()), t.c0, t.c1)):
        if ((t * t - d) / 4).is_integral():
            return t
    return None


def is_qr_mod4(d: BaseElement) -> bool:
    """Whether t^2 = d (mod 4) is solvable in O_K (see sqrt_mod4)."""
    return sqrt_mod4(d) is not None


def k_sqrt(x: BaseElement):
    """Exact square root of x in K, or None; of the two roots, the one with
    c1 > 0, or with c1 = 0 and c0 >= 0.

    Over a quadratic K a root y has norm n with n^2 = N(x) and trace t with
    t^2 = T(x) + 2n.  When t != 0, y = (x + n)/t, since y^2 - t*y + n = 0.
    A root of trace 0 is r*(2w - T(w)), which needs x rational and
    r^2 = x / (T(w)^2 - 4 N(w)).
    """
    f = x.field
    if f.is_rational:
        r = _rat_sqrt(x.c0)
        return None if r is None else f(r)
    y = None
    root_norm = _rat_sqrt(x.norm())
    if root_norm is not None:
        for n in (root_norm, -root_norm):
            t = _rat_sqrt(x.trace() + 2 * n)
            if t:
                y = f((x.c0 + n) / t, x.c1 / t)
                break
    if y is None and x.c1 == 0:
        tr = f.omega_trace
        r = _rat_sqrt(x.c0 / (tr * tr - 4 * f.omega_norm))
        if r is not None:
            y = f(-r * tr, 2 * r)
    if y is None:
        return None
    return y if y.c1 > 0 or (y.c1 == 0 and y.c0 >= 0) else -y


def primes_above(f: Field, ell: int) -> list[BaseElement]:
    """Generators of the prime ideals of O_K above the rational prime ell."""
    if f.is_rational:
        return [f(ell)]
    tr, nm = f.omega_trace, f.omega_norm
    # the roots a of a^2 - tr*a + nm mod ell, with (2a - tr)^2 = tr^2 - 4*nm
    s = None if ell == 2 else _sqrt_mod(tr * tr - 4 * nm, ell)
    half = (ell + 1) // 2
    cands = range(2) if s is None else {(tr + s) * half % ell, (tr - s) * half % ell}
    roots = sorted(a for a in cands if (a * a - tr * a + nm) % ell == 0)
    if not roots:
        return [f(ell)]  # inert
    return [gcd_k(f(ell), f.omega - f(a)) for a in roots]


def prime_divisors(d: BaseElement) -> list[BaseElement]:
    """One generator per prime of O_K dividing d (up to associates)."""
    if not d.is_integral():
        raise NotIntegral("prime divisors require an element of O_K")
    if d.is_zero():
        raise ZeroArgument("prime divisors of zero")
    out, seen = [], set()
    nrm = int(d.norm())
    for ell in _factor_int(nrm):
        for p in primes_above(d.field, ell):
            if (d / p).is_integral():
                key = canonical_associate(p)
                if key not in seen:
                    seen.add(key)
                    out.append(key)
    return out


def is_fundamental(d: BaseElement) -> bool:
    """The fundamental-element predicate on O_K.

    d must be a quadratic residue mod 4 and square-free except for prime
    squares dividing 2 whose removal breaks the residue property.  Over Q
    this is exactly the classical fundamental-discriminant test.
    """
    if not d.is_integral():
        raise NotIntegral("fundamentality requires an element of O_K")
    if d.is_zero() or k_sqrt(d) is not None:
        raise SquareInput("d must be nonzero and not a square in K")
    if not is_qr_mod4(d):
        return False
    two = d.field(2)
    for p in prime_divisors(d):
        quot = d / (p * p)
        if quot.is_integral():
            if not (two / p).is_integral():
                return False
            if is_qr_mod4(quot):
                return False
    return True
