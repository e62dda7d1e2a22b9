"""Every name a library module imports at module level is used in that
module, or re-exported from it by the package ``__init__``."""

import ast
from pathlib import Path

SOURCES = Path(__file__).resolve().parent.parent / "src" / "netsup"


def imported_names(tree: ast.Module) -> dict[str, int]:
    """The names the module-level imports bind, with their line numbers."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                found[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                found[alias.asname or alias.name] = node.lineno
    return found


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, forward references written as
    strings in annotations (``Optional["EventTable"]``) included."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    quoted = [
        ast.parse(node.value, mode="eval")
        for annotation in annotations
        for node in ast.walk(annotation)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]
    return {node.id for root in [tree, *quoted] for node in ast.walk(root) if isinstance(node, ast.Name)}


def reexports() -> dict[str, set[str]]:
    """Per module, the names ``__init__`` imports from it."""
    out: dict[str, set[str]] = {}
    tree = ast.parse((SOURCES / "__init__.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            out.setdefault(node.module, set()).update(alias.name for alias in node.names)
    return out


def test_library_has_no_unused_imports():
    paths = sorted(path for path in SOURCES.glob("*.py") if path.name != "__init__.py")
    assert paths
    exported = reexports()
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        kept = used_names(tree) | exported.get(path.stem, set())
        unused += [f"{path.name}:{line} {name}" for name, line in imported_names(tree).items() if name not in kept]
    assert unused == []
