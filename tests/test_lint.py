"""Source-level rules for the library."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qfc"


def _nodes():
    """(file name, node) for every AST node of the library."""
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            yield path.name, node


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
