"""The breadth-first state-space kernel every construction builds on.

A construction walks ``keys`` while it grows, looks each successor key up in
``index`` itself and calls ``add`` only for a key it found missing, so the
kernel runs once per state, not once per edge.  Ids are dense and follow
discovery order, which makes the walk breadth-first and state numbering
reproducible; ``add`` enforces the construction's state budget.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Sequence

from .errors import ResourceLimitError

MAX_STATES = 500_000  # the default state budget of every construction


def budget_error(stage: str, max_states: int) -> ResourceLimitError:
    """The error a construction named ``stage`` raises past ``max_states``."""
    return ResourceLimitError(f"{stage} exceeds {max_states} states")


class StateSpace:
    """States in discovery order under a state budget.

    ``keys[s]`` is the key of state ``s`` and ``index`` maps each key to its
    id.  ``stage`` names the construction in the budget error.
    """

    __slots__ = ("stage", "max_states", "keys", "index")

    def __init__(self, stage: str, max_states: int) -> None:
        self.stage = stage
        self.max_states = max_states
        self.keys: list = []
        self.index: dict = {}

    def add(self, key: Hashable) -> int:
        """Give ``key``, which must not be in ``index`` yet, the next id;
        raises ResourceLimitError when that would exceed ``max_states``."""
        sid = len(self.keys)
        if sid >= self.max_states:
            raise budget_error(self.stage, self.max_states)
        self.index[key] = sid
        self.keys.append(key)
        return sid


class PathSpace(StateSpace):
    """A StateSpace that also records how each state was first reached:
    ``parent[s]`` (-1 for a root) and the ``label`` of the move from it.
    In a breadth-first walk ``path`` is then a shortest path."""

    __slots__ = ("parent", "label")

    def __init__(self, stage: str, max_states: int) -> None:
        super().__init__(stage, max_states)
        self.parent: list[int] = []
        self.label: list = []

    def add(self, key: Hashable, parent: int = -1, label=None) -> int:
        sid = len(self.keys)  # StateSpace.add inlined: one frame per state
        if sid >= self.max_states:
            raise budget_error(self.stage, self.max_states)
        self.index[key] = sid
        self.keys.append(key)
        self.parent.append(parent)
        self.label.append(label)
        return sid

    def path(self, sid: int) -> list:
        """The labels of the moves from a root to state ``sid``."""
        out = []
        while self.parent[sid] >= 0:
            out.append(self.label[sid])
            sid = self.parent[sid]
        out.reverse()
        return out


def closure(
    seeds: Iterable[Hashable], successors: Sequence[Iterable[int]] | Mapping[Hashable, Iterable[Hashable]]
) -> frozenset:
    """The keys reachable from ``seeds`` in zero or more steps, where
    ``successors[k]`` holds the keys one step from ``k`` (a sequence for int
    keys, a mapping for any hashable ones): the one closure walk, which the
    observers' unobservable closures (and the tests' projection check) and
    ``automata.is_nonblocking``'s backward walk share."""
    out = set(seeds)
    stack = list(out)
    while stack:
        for nxt in successors[stack.pop()]:
            if nxt not in out:
                out.add(nxt)
                stack.append(nxt)
    return frozenset(out)
