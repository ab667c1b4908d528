"""Source-level rules for the library."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qfc"


def test_no_assert_statements():
    # python -O strips asserts, and AssertionError bypasses the CLI's error
    # contract; invariants raise DomainError instead
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
            or (isinstance(node, ast.Name) and node.id == "AssertionError")
        ]
    assert found == []
