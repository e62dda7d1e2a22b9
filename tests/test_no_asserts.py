"""No invariant of the library relies on ``assert``: ``python -O`` strips
assert statements."""

import ast
from pathlib import Path

SOURCES = Path(__file__).resolve().parent.parent / "src" / "netsup"


def test_library_has_no_assert_statements():
    paths = sorted(SOURCES.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
