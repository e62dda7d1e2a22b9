"""The runtime stays standard-library only: every import in the library is
relative to the package or names a standard-library module."""

import ast
import sys
from pathlib import Path

SOURCES = Path(__file__).resolve().parent.parent / "src" / "netsup"


def external_imports(tree: ast.Module) -> list[tuple[str, int]]:
    """The top-level module names of the absolute imports anywhere in
    ``tree``, with their line numbers; ``__future__`` counts as stdlib."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(alias.name.split(".")[0], node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.module.split(".")[0], node.lineno))
    return found


def test_library_imports_only_the_standard_library():
    offenders = [
        f"{path.name}:{line}: {name}"
        for path in sorted(SOURCES.glob("*.py"))
        for name, line in external_imports(ast.parse(path.read_text(encoding="utf-8")))
        if name != "netsup" and name not in sys.stdlib_module_names
    ]
    assert offenders == []


def test_the_guard_sees_a_third_party_import():
    tree = ast.parse("import os\nfrom . import comm\nfrom numpy.linalg import norm\ndef f():\n    import yaml\n")
    names = [name for name, _ in external_imports(tree)]
    assert names == ["os", "numpy", "yaml"]
    assert [n for n in names if n not in sys.stdlib_module_names] == ["numpy", "yaml"]
