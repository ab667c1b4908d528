"""JSON and CLI-text encodings.

Rationals serialize as decimal strings "p/q" (plain "p" when integral) so
no consumer ever loses precision.  Canonical JSON is compact with sorted
keys; encode(decode(encode(x))) == encode(x) byte-identically.

CLI text syntax for forms is "a,b,c" where each coordinate uses the
"c0+c1w" shape, e.g. "2,1,3" over Q or "1+2w,0,3-1w" over a quadratic base.
"""

import json
import re
import sys
from fractions import Fraction

from .base_field import BaseElement, Field
from .errors import OutputTooLarge, ParseError
from .extension import Extension, ExtElement
from .forms import QuadraticForm
from .ideals import IdealBasis, OrientedIdeal


def _too_large() -> OutputTooLarge:
    """The error for an int-to-text conversion refused by Python's limit,
    the only ValueError that str() of a Fraction raises."""
    limit = sys.get_int_max_str_digits()
    return OutputTooLarge(f"the result has an integer of more than {limit} digits")


def rational_to_str(f: Fraction) -> str:
    try:
        return str(f)
    except ValueError as exc:
        raise _too_large() from exc


def rational_from_str(s: str) -> Fraction:
    if not isinstance(s, str):
        raise ParseError(f"rational must be a string 'p/q', got {type(s).__name__}")
    try:
        return Fraction(s.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {s!r}") from exc


def kelement_to_json(x: BaseElement) -> dict:
    return {"c0": rational_to_str(x.c0), "c1": rational_to_str(x.c1)}


def kelement_from_json(f: Field, obj) -> BaseElement:
    if not isinstance(obj, dict) or "c0" not in obj:
        raise ParseError("K element must be an object with c0 (and c1)")
    c0 = rational_from_str(obj["c0"])
    c1 = rational_from_str(obj.get("c1", "0"))
    try:
        return f(c0, c1)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def lelement_to_json(a: ExtElement) -> dict:
    return {"x": kelement_to_json(a.x), "y": kelement_to_json(a.y)}


def lelement_from_json(ext: Extension, obj) -> ExtElement:
    if not isinstance(obj, dict) or "x" not in obj or "y" not in obj:
        raise ParseError("L element must be an object with x and y")
    return ext.element(
        kelement_from_json(ext.base, obj["x"]),
        kelement_from_json(ext.base, obj["y"]),
    )


def extension_to_json(ext: Extension) -> dict:
    return {
        "base": ext.base.tag,
        "D": kelement_to_json(ext.d),
        "w": kelement_to_json(ext.w),
        "z": kelement_to_json(ext.z),
    }


def form_to_json(q: QuadraticForm) -> dict:
    return {
        "a": kelement_to_json(q.a),
        "b": kelement_to_json(q.b),
        "c": kelement_to_json(q.c),
    }


def form_from_json(f: Field, obj) -> QuadraticForm:
    if not isinstance(obj, dict) or not all(k in obj for k in ("a", "b", "c")):
        raise ParseError("form must be an object with a, b, c")
    return QuadraticForm(
        f, *(kelement_from_json(f, obj[k]) for k in ("a", "b", "c"))
    )


def ideal_to_json(a: OrientedIdeal) -> dict:
    return {
        "alpha": lelement_to_json(a.basis.alpha),
        "beta": lelement_to_json(a.basis.beta),
        "eps": list(a.eps),
    }


def ideal_from_json(ext: Extension, obj) -> OrientedIdeal:
    if not isinstance(obj, dict) or not all(
        k in obj for k in ("alpha", "beta", "eps")
    ):
        raise ParseError("ideal must be an object with alpha, beta, eps")
    eps = obj["eps"]
    if not isinstance(eps, list) or any(
        type(e) is not int or e not in (1, -1) for e in eps
    ):
        raise ParseError("eps must be a list of +-1")
    alpha = lelement_from_json(ext, obj["alpha"])
    beta = lelement_from_json(ext, obj["beta"])
    try:
        basis = IdealBasis(alpha, beta)
        return OrientedIdeal(basis, tuple(eps))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# -- CLI text coordinates ------------------------------------------------------

_TERM = re.compile(r"^([+-]?)([0-9]+(?:/[0-9]+)?)?(w?)$")


def parse_k_coord(f: Field, text: str) -> BaseElement:
    """Parse "c0+c1w" (either part optional, rationals allowed)."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ParseError("empty coordinate")
    # split into signed terms
    terms, cur = [], ""
    for ch in s:
        if ch in "+-" and cur and cur[-1] not in "+-":
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    terms.append(cur)
    c0, c1 = Fraction(0), Fraction(0)
    for term in terms:
        m = _TERM.match(term)
        if not m or (not m.group(2) and not m.group(3)):
            raise ParseError(f"bad coordinate term {term!r} in {text!r}")
        sign = -1 if m.group(1) == "-" else 1
        mag = rational_from_str(m.group(2)) if m.group(2) else Fraction(1)
        if m.group(3):
            c1 += sign * mag
        else:
            c0 += sign * mag
    try:
        return f(c0, c1)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def parse_form_text(f: Field, text: str) -> QuadraticForm:
    parts = text.split(",")
    if len(parts) != 3:
        raise ParseError(f"form must be 'a,b,c', got {text!r}")
    try:
        return QuadraticForm(f, *(parse_k_coord(f, p) for p in parts))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def form_to_text(q: QuadraticForm) -> str:
    try:
        return ",".join(repr(v) for v in (q.a, q.b, q.c))
    except ValueError as exc:
        raise _too_large() from exc
