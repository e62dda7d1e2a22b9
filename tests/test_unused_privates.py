"""Every private module-level name a library module defines (a function,
class or assignment whose name starts with ``_``) is read somewhere in that
module, so no dead helper is left behind."""

import ast
from pathlib import Path

SOURCES = Path(__file__).resolve().parent.parent / "src" / "netsup"


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """The private names the module body defines, with their line numbers."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [name.id for target in node.targets for name in ast.walk(target) if isinstance(name, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                found.setdefault(name, node.lineno)
    return found


def read_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, forward references written as
    strings in annotations (``Optional["_Rows"]``) included."""
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
    return {
        node.id
        for root in [tree, *quoted]
        for node in ast.walk(root)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def test_every_private_name_is_read():
    paths = sorted(SOURCES.glob("*.py"))
    assert paths
    dead = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = read_names(tree)
        dead += [f"{path.name}:{line} {name}" for name, line in private_definitions(tree).items() if name not in read]
    assert dead == []


def test_a_dead_helper_is_found():
    tree = ast.parse("def _used(): pass\ndef _dead(): pass\n_LIMIT = 3\nx: '_used' = _LIMIT\n")
    assert set(private_definitions(tree)) - read_names(tree) == {"_dead"}
