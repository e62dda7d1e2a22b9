"""The breadth-first state-space kernel, and that it is the only code that
enforces a state budget."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import netsup
from netsup.errors import ResourceLimitError
from netsup.explore import MAX_STATES, PathSpace, StateSpace

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


def test_every_budget_defaults_to_max_states():
    """Every public function or method with a ``max_states`` default uses
    the one default budget."""
    defaults = {}
    for info in pkgutil.iter_modules(netsup.__path__):
        module = importlib.import_module(f"netsup.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                functions = {name: obj}
            elif inspect.isclass(obj):
                functions = {
                    f"{name}.{attr}": value for attr, value in vars(obj).items()
                    if inspect.isfunction(value) and not attr.startswith("_")
                }
            else:
                continue
            for qualname, function in functions.items():
                param = inspect.signature(function).parameters.get("max_states")
                if param is not None and param.default is not param.empty:
                    defaults[qualname] = param.default
    assert {
        "build_comm_automaton", "CommAutomaton.observer", "build_observer",
        "build_twin_product", "check_network_joint_observability", "synthesize_supervisor",
        "closed_loop", "language_equal", "check_admissibility", "solve_control_problem",
    } <= defaults.keys()
    assert {name: default for name, default in defaults.items() if default != MAX_STATES} == {}
