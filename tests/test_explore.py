"""The breadth-first state-space kernel, and that it is the only code that
enforces a state budget."""

import ast
from pathlib import Path

import pytest

from netsup.errors import ResourceLimitError
from netsup.explore import PathSpace, StateSpace

SOURCES = Path(__file__).resolve().parent.parent / "src" / "netsup"

# a small graph: 0 -a-> 1, 0 -b-> 2, 1 -c-> 3, 2 -d-> 3, 3 -e-> 0
GRAPH = {0: [("a", 1), ("b", 2)], 1: [("c", 3)], 2: [("d", 3)], 3: [("e", 0)]}


def explore(space, root=0):
    """Breadth-first walk of GRAPH the way the constructions walk: hits are
    looked up in ``index``, the kernel is called for new states only."""
    space.add(root)
    for sid, node in enumerate(space.keys):
        for label, dst in GRAPH[node]:
            if dst not in space.index:
                if isinstance(space, PathSpace):
                    space.add(dst, sid, label)
                else:
                    space.add(dst)
    return space


@pytest.mark.parametrize("kind", [StateSpace, PathSpace])
def test_ids_follow_discovery_order(kind):
    space = explore(kind("graph", 10))
    assert space.keys == [0, 1, 2, 3]
    assert space.index == {0: 0, 1: 1, 2: 2, 3: 3}
    space = explore(kind("graph", 10), root=2)
    assert space.keys == [2, 3, 0, 1]
    assert space.index == {key: sid for sid, key in enumerate(space.keys)}


@pytest.mark.parametrize("kind", [StateSpace, PathSpace])
def test_budget_of_the_final_size_passes_and_one_less_raises(kind):
    assert len(explore(kind("graph", 4)).keys) == 4
    with pytest.raises(ResourceLimitError) as excinfo:
        explore(kind("toy graph", 3))
    assert str(excinfo.value) == "toy graph exceeds 3 states"


def test_path_returns_the_labels_from_the_initial_state():
    space = explore(PathSpace("graph", 10))
    assert [space.path(space.index[node]) for node in range(4)] == [
        [], ["a"], ["b"], ["a", "c"],
    ]
    assert space.parent == [-1, 0, 0, 1]


def test_only_the_kernel_raises_budget_errors():
    paths = sorted(SOURCES.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        if path.name != "explore.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "ResourceLimitError"
    ]
    assert found == []
