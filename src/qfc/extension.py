"""The relative quadratic extension L = K(sqrt D) for a fundamental D.

The ring of integers of L is the free O_K-module [1, W] with
W = (-w + sqrt D)/2, where w is the smallest residue mod 2 with
w^2 = D (mod 4) and z = (w^2 - D)/4.  W is never stored as a radical:
every element of L is a pair (x, y) meaning x + y*sqrt(D), which keeps
conjugation trivial (negate y); conversion to {1, W} coordinates is an
explicit linear map.
"""

from fractions import Fraction
from math import lcm

from .base_field import BaseElement, Field, is_fundamental, sqrt_mod4
from .errors import DivisionByZero, DomainError, ExtensionMismatch, NotFundamental


class Extension:
    """Descriptor of L/K: base field, fundamental D, and (w, z) with
    D = w^2 - 4z.  The module generator W = (-w + sqrt D)/2 satisfies
    W^2 + w W + z = 0 and (W - conj W)^2 = D."""

    __slots__ = ("base", "d", "w", "z")

    def __init__(self, base: Field, d: BaseElement, w: BaseElement, z: BaseElement):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "z", z)

    def __setattr__(self, name, value):
        raise AttributeError("Extension is immutable")

    def element(self, x, y=0) -> "ExtElement":
        return ExtElement(self, x, y)

    def from_base(self, k) -> "ExtElement":
        return ExtElement(self, k, 0)

    def from_module_coords(self, s, t) -> "ExtElement":
        """The element s + t*W in sqrt(D) coordinates."""
        s = s if isinstance(s, BaseElement) else self.base(s)
        t = t if isinstance(t, BaseElement) else self.base(t)
        return ExtElement(self, s - t * self.w / 2, t / 2)

    @property
    def omega(self) -> "ExtElement":
        return ExtElement(self, -self.w / 2, Fraction(1, 2))

    @property
    def sqrt_d(self) -> "ExtElement":
        return ExtElement(self, 0, 1)

    @property
    def one(self) -> "ExtElement":
        return ExtElement(self, 1, 0)

    @property
    def zero(self) -> "ExtElement":
        return ExtElement(self, 0, 0)

    def totally_negative_d(self) -> bool:
        """D < 0 under every real embedding (vacuous for Q(i))."""
        return all(s == -1 for s in self.d.signs())

    def __eq__(self, other):
        return other is self or (
            isinstance(other, Extension)
            and other.base is self.base
            and other.d == self.d
            and other.w == self.w
        )

    def __hash__(self):
        return hash((self.base.m, self.d))

    def __repr__(self):
        return f"Extension({self.base.tag}, D={self.d})"


# make_extension's results by (m of the base, n0, n1, den of d); emptied
# when full
_EXTENSIONS: dict = {}
_EXTENSIONS_CAP = 256


def make_extension(base: Field, d) -> Extension:
    """The extension descriptor for a fundamental d, one instance per
    (m, d) while it stays in a bounded table; a second Field object of the
    same m replaces the entry, since elements check their field by
    identity.

    w is sqrt_mod4(d): the smallest residue mod 2 (by |norm|, then
    lexicographically on coordinates) with w^2 = d (mod 4); this makes the
    descriptor deterministic.
    """
    if not isinstance(d, BaseElement):
        d = base(d)
    if d.field is not base:
        raise ValueError("d from a different base field")
    key = (base.m, d.n0, d.n1, d.den)
    ext = _EXTENSIONS.get(key)
    if ext is not None and ext.base is base:
        return ext
    if not is_fundamental(d):
        raise NotFundamental(f"{d} is not fundamental over {base.tag}")
    w = sqrt_mod4(d)
    if w is None:
        raise DomainError("fundamental d is a residue mod 4 by definition")
    if len(_EXTENSIONS) >= _EXTENSIONS_CAP:
        _EXTENSIONS.clear()
    ext = _EXTENSIONS[key] = Extension(base, d, w, (w * w - d) / 4)
    return ext


class ExtElement:
    """An element x + y*sqrt(D) of L, with x, y in K."""

    __slots__ = ("ext", "x", "y")

    def __init__(self, ext: Extension, x, y=0):
        base = ext.base
        x = x if isinstance(x, BaseElement) else base(x)
        y = y if isinstance(y, BaseElement) else base(y)
        if x.field is not base or y.field is not base:
            raise ExtensionMismatch("coordinates from a different base field")
        object.__setattr__(self, "ext", ext)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __setattr__(self, name, value):
        raise AttributeError("ExtElement is immutable")

    def _coerce(self, other):
        if isinstance(other, ExtElement):
            if other.ext != self.ext:
                raise ExtensionMismatch("elements of different extensions")
            return other
        if isinstance(other, (int, Fraction, BaseElement)):
            return ExtElement(self.ext, other, 0)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExtElement(self.ext, self.x + o.x, self.y + o.y)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExtElement(self.ext, self.x - o.x, self.y - o.y)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return ExtElement(self.ext, -self.x, -self.y)

    def __mul__(self, other):
        if isinstance(other, BaseElement) and other.field is self.ext.base:
            # an element of K scales both coordinates
            return ExtElement(self.ext, self.x * other, self.y * other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self.ext.d
        return ExtElement(
            self.ext,
            self.x * o.x + self.y * o.y * d,
            self.x * o.y + self.y * o.x,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise DivisionByZero("division by zero in L")
        n = o.norm()  # nonzero: D is not a square in K
        c = o.conj()
        prod = self * c
        return ExtElement(self.ext, prod.x / n, prod.y / n)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        if k < 0:
            return self.ext.one / self ** (-k)
        out = self.ext.one
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, ExtElement):
            if other.ext != self.ext:
                return False
            return self.x == other.x and self.y == other.y
        if isinstance(other, (int, Fraction, BaseElement)):
            return self.y.is_zero() and self.x == other
        return NotImplemented

    def __hash__(self):
        return hash((self.ext, self.x, self.y))

    def __bool__(self):
        return not self.is_zero()

    def is_zero(self) -> bool:
        return self.x.is_zero() and self.y.is_zero()

    def conj(self) -> "ExtElement":
        """The nontrivial automorphism of L/K."""
        return ExtElement(self.ext, self.x, -self.y)

    def norm(self) -> BaseElement:
        """Relative norm down to K: self * conj(self) = x^2 - y^2 D."""
        return self.x * self.x - self.y * self.y * self.ext.d

    def trace(self) -> BaseElement:
        return self.x + self.x

    def im_part(self) -> BaseElement:
        """The sqrt(D) coordinate."""
        return self.y

    def module_coords(self) -> tuple[BaseElement, BaseElement]:
        """(s, t) with self = s + t*W."""
        t = self.y + self.y
        s = self.x + self.y * self.ext.w
        return s, t

    def is_integral(self) -> bool:
        """Membership in O_L = [1, W]."""
        s, t = self.module_coords()
        return s.is_integral() and t.is_integral()

    def is_unit(self) -> bool:
        return self.is_integral() and self.norm().is_unit()

    def denominator(self) -> int:
        return lcm(self.x.denominator(), self.y.denominator())

    def __repr__(self):
        return f"({self.x}) + ({self.y})*sqrt({self.ext.d})"
