"""Source-level rules for the library."""

import ast
import sys
from pathlib import Path

from qfc import REGISTRY

SRC = Path(__file__).resolve().parent.parent / "src" / "qfc"


def _trees():
    """(file name, module AST) for every module of the library."""
    for path in sorted(SRC.rglob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _nodes():
    """(file name, node) for every AST node of the library."""
    for name, tree in _trees():
        for node in ast.walk(tree):
            yield name, node


def test_no_assert_statements():
    # python -O strips asserts, and AssertionError bypasses the CLI's error
    # contract; invariants raise DomainError instead
    found = [
        f"{name}:{node.lineno}"
        for name, node in _nodes()
        if isinstance(node, ast.Assert)
        or (isinstance(node, ast.Name) and node.id == "AssertionError")
    ]
    assert found == []


def test_standard_library_only():
    # every import is relative or from the standard library
    found = []
    for name, node in _nodes():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [
            f"{name}:{node.lineno}:{module}"
            for module in modules
            if module.split(".")[0] not in sys.stdlib_module_names
        ]
    assert found == []


def test_no_unused_imports():
    # a name a module imports and never reads is left over from a deletion;
    # __init__.py imports only to re-export
    found = []
    for name, tree in _trees():
        if name == "__init__.py":
            continue
        imported, used = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    imported[bound] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
        found += [
            f"{name}:{line}:{bound}"
            for bound, line in imported.items()
            if bound not in used
        ]
    assert found == []


def _reads_field_identity(node):
    return (isinstance(node, ast.Attribute) and node.attr in ("tag", "m")) or (
        isinstance(node, ast.Constant) and node.value in REGISTRY
    )


def test_no_field_specific_branches():
    # what is particular to a base field lives in base_field.Field, which
    # derives it from m and the unit; elsewhere no comparison reads a field's
    # tag or m, or names a registry tag
    found = [
        f"{name}:{node.lineno}:{ast.unparse(node)}"
        for name, node in _nodes()
        if name != "base_field.py"
        and isinstance(node, ast.Compare)
        and any(_reads_field_identity(sub) for sub in ast.walk(node))
    ]
    assert found == []


# math functions that return floats; isqrt and the integer helpers stay allowed
FLOAT_MATH = {"sqrt", "cbrt", "exp", "exp2", "expm1", "log", "log1p", "log2", "log10", "pow"}


def test_no_floating_point():
    # arithmetic is exact: no float or complex literal, no float(...) call,
    # and no float-valued math function, imported or called as math.f
    found = []
    for name, node in _nodes():
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{name}:{node.lineno}:{node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"{name}:{node.lineno}:float")
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr in FLOAT_MATH
        ):
            found.append(f"{name}:{node.lineno}:math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [
                f"{name}:{node.lineno}:math.{alias.name}"
                for alias in node.names
                if alias.name in FLOAT_MATH
            ]
    assert found == []


def test_no_name_defined_twice():
    # a top-level function or class is defined in one module, which the
    # others import by name; two definitions of one name drift apart
    where = {}
    for name, tree in _trees():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                where.setdefault(node.name, []).append(name)
    assert {k: v for k, v in where.items() if len(v) > 1} == {}


# the library's modules from the bottom up: each imports only modules listed
# before it, and errors and lattice import nothing from the library
LAYERS = [
    "errors",
    "contfrac",
    "base_field",
    "extension",
    "forms",
    "lattice",
    "ideals",
    "correspondence",
    "serialize",
    "cli",
]
LEAVES = {"errors", "lattice"}


def _library_imports(tree):
    """(line, module) for every import of a library module in the AST; an
    import of the package itself reads as __init__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "qfc":
                    yield node.lineno, rest.split(".")[0] or "__init__"
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                path = node.module or ""
            elif (node.module or "").split(".")[0] == "qfc":
                path = node.module.partition(".")[2]
            else:
                continue
            if path:
                yield node.lineno, path.split(".")[0]
            else:
                # from . import serialize: the names are modules
                for alias in node.names:
                    yield node.lineno, alias.name


def test_module_layers():
    # __init__ only re-exports; every other module has a place in LAYERS
    modules = {name[:-3] for name, _ in _trees() if name != "__init__.py"}
    assert modules == set(LAYERS)
    found = []
    for name, tree in _trees():
        module = name[:-3]
        if module == "__init__":
            continue
        below = set() if module in LEAVES else set(LAYERS[: LAYERS.index(module)])
        found += [
            f"{name}:{line}:{target}"
            for line, target in _library_imports(tree)
            if target not in below
        ]
    assert found == []
