"""Every exception class ``errors`` defines is referenced by name in some
other library module, so no error type outlives the code that raised it."""

import ast
from pathlib import Path

SOURCES = Path(__file__).resolve().parent.parent / "src" / "netsup"


def referenced_names(tree: ast.Module) -> set[str]:
    """Names read in the module, bare (``ModelError``) or as an attribute
    (``errors.ModelError``)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def test_every_error_type_is_used():
    errors = ast.parse((SOURCES / "errors.py").read_text(encoding="utf-8"))
    defined = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    assert defined
    referenced = set()
    for path in SOURCES.glob("*.py"):
        if path.name != "errors.py":
            referenced |= referenced_names(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(defined - referenced) == []
