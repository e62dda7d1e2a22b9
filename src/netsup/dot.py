"""Graphviz DOT rendering of every automaton-like structure.

Output is deterministic byte for byte: states appear in their dense id
order and edges in each state's canonical event order.
"""

from __future__ import annotations

from .automata import TimedAutomaton
from .comm import CommAutomaton, Observer, render_event
from .synthesis import ClosedLoop


def _quote(label: str) -> str:
    """A DOT quoted string: backslashes first, so an escaped quote stays one."""
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def timed_automaton_dot(auto: TimedAutomaton) -> str:
    lines = ["digraph {", "  rankdir=LR;"]
    number = {q: i for i, q in enumerate(auto.states)}
    for q in auto.states:
        shape = "doublecircle" if q in auto.marked else "circle"
        lines.append(f"  n{number[q]} [label={_quote(q)} shape={shape}];")
    lines.append(f"  init [shape=point]; init -> n{number[auto.initial]};")
    for q in auto.states:
        for event, target in auto.moves(q):
            lines.append(f"  n{number[q]} -> n{number[target]} [label={_quote(event)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def comm_automaton_dot(comm: CommAutomaton) -> str:
    """States outside the specification are drawn dashed; marked states are
    double-circled."""
    lines = ["digraph {", "  rankdir=LR;"]
    for sid in range(comm.num_states):
        shape = "doublecircle" if comm.marked[sid] else "circle"
        style = "" if comm.in_spec[sid] else " style=dashed"
        lines.append(
            f"  n{sid} [label={_quote(comm.render_state(sid))} shape={shape}{style}];"
        )
    lines.append(f"  init [shape=point]; init -> n{comm.initial};")
    for sid in range(comm.num_states):
        for event, target in comm.moves(sid):
            lines.append(
                f"  n{sid} -> n{target} [label={_quote(render_event(event))}];"
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


def observer_dot(observer: Observer, comm: CommAutomaton) -> str:
    lines = ["digraph {", "  rankdir=LR;"]
    for t, codes in enumerate(observer.codes):
        # a code is 2 * state + flag, so sorting codes sorts (state, flag) pairs
        label = "{" + ",".join(
            comm.render_state(code >> 1) + ("" if code & 1 else "!") for code in sorted(codes)
        ) + "}"
        lines.append(f"  n{t} [label={_quote(label)} shape=box];")
    lines.append(f"  init [shape=point]; init -> n{observer.initial};")
    for t in range(observer.num_states):
        for symbol, target in sorted(observer.transitions[t].items()):
            lines.append(f"  n{t} -> n{target} [label={_quote(symbol)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def closed_loop_dot(loop: ClosedLoop) -> str:
    lines = ["digraph {", "  rankdir=LR;"]
    for sid in range(loop.num_states):
        x, obs = loop.state(sid)
        label = loop.comm.render_state(x) + "/" + ",".join(str(t) for t in obs)
        shape = "doublecircle" if loop.is_marked(sid) else "circle"
        lines.append(f"  n{sid} [label={_quote(label)} shape={shape}];")
    lines.append(f"  init [shape=point]; init -> n{loop.initial};")
    for sid in range(loop.num_states):
        for event, target in loop.moves(sid):
            lines.append(
                f"  n{sid} -> n{target} [label={_quote(render_event(event))}];"
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
