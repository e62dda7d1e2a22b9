"""Graphviz DOT rendering of every automaton-like structure.

Output is deterministic byte for byte: states appear in their dense id
order and edges in each state's canonical event order.
"""

from __future__ import annotations

from typing import Callable, Hashable, Sequence

from .automata import TimedAutomaton
from .comm import CommAutomaton, Observer, render_event
from .synthesis import ClosedLoop


def _quote(label: str) -> str:
    """A DOT quoted string: backslashes first, so an escaped quote stays one."""
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _shape(marked: bool) -> str:
    return "shape=doublecircle" if marked else "shape=circle"


def _frame(states: Sequence, initial: Hashable, node: Callable, moves: Callable, name: Callable = str) -> str:
    """The one DOT frame: ``states`` numbered n0, n1, ... in their order,
    each drawn with the (label, attributes) pair ``node`` gives it, an
    ``init`` arrow to ``initial``, then each state's ``moves``, (event,
    target) pairs, labelled ``name(event)``."""
    number = {state: k for k, state in enumerate(states)}
    lines = ["digraph {", "  rankdir=LR;"]
    for state in states:
        label, attributes = node(state)
        lines.append(f"  n{number[state]} [label={_quote(label)} {attributes}];")
    lines.append(f"  init [shape=point]; init -> n{number[initial]};")
    for state in states:
        for event, target in moves(state):
            lines.append(f"  n{number[state]} -> n{number[target]} [label={_quote(name(event))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def timed_automaton_dot(auto: TimedAutomaton) -> str:
    return _frame(auto.states, auto.initial, lambda q: (q, _shape(auto.is_marked(q))), auto.moves)


def comm_automaton_dot(comm: CommAutomaton) -> str:
    """States outside the specification are drawn dashed; marked states are
    double-circled."""
    def node(sid: int) -> tuple[str, str]:
        return comm.render_state(sid), _shape(comm.marked[sid]) + ("" if comm.in_spec[sid] else " style=dashed")

    return _frame(range(comm.num_states), comm.initial, node, comm.moves, render_event)


def observer_dot(observer: Observer, comm: CommAutomaton) -> str:
    def node(t: int) -> tuple[str, str]:
        # a code is 2 * state + flag, so sorting codes sorts (state, flag) pairs
        elements = (
            comm.render_state(code >> 1) + ("" if code & 1 else "!") for code in sorted(observer.codes[t])
        )
        return "{" + ",".join(elements) + "}", "shape=box"

    return _frame(
        range(observer.num_states), observer.initial, node, lambda t: sorted(observer.transitions[t].items())
    )


def closed_loop_dot(loop: ClosedLoop) -> str:
    def node(sid: int) -> tuple[str, str]:
        x, obs = loop.state(sid)
        return loop.comm.render_state(x) + "/" + ",".join(str(t) for t in obs), _shape(loop.is_marked(sid))

    return _frame(range(loop.num_states), loop.initial, node, loop.moves, render_event)
