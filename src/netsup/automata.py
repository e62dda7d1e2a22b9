"""Deterministic timed automata and the operations the rest of the package builds on.

A timed automaton is an ordinary finite automaton whose alphabet contains the
reserved clock event ``tick``; every other event is instantaneous and time
advances only on ticks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from .errors import CompositionError, DeterminismError, ModelError, SchemaError, UnknownNameError
from .explore import MAX_STATES, StateSpace, closure

TICK = "tick"


def event_order(event: str) -> tuple[int, str]:
    """Canonical event ordering: tick first, then lexicographic."""
    return (0 if event == TICK else 1, event)


@dataclass(frozen=True)
class TimedAutomaton:
    """Deterministic automaton over an alphabet containing ``tick``.

    ``states`` keeps declaration order so that derived artifacts (DOT output,
    dense numbering) are reproducible.  ``transitions`` maps each state to an
    event->target mapping whose iteration order is canonical (tick first).
    Instances are immutable after construction; all operations return new
    automata.
    """

    name: str
    states: tuple[str, ...]
    alphabet: frozenset[str]
    transitions: Mapping[str, Mapping[str, str]]
    initial: str
    marked: frozenset[str]

    @classmethod
    def build(
        cls,
        name: str,
        states: Iterable[str],
        alphabet: Iterable[str],
        transitions: Iterable[tuple[str, str, str]],
        initial: str,
        marked: Iterable[str],
    ) -> "TimedAutomaton":
        """Validate and normalize raw automaton data.

        Raises DeterminismError on duplicate (state, event) pairs,
        UnknownNameError on undeclared states/events, SchemaError on a
        missing tick event or duplicate state names.
        """
        state_list = list(states)
        if len(set(state_list)) != len(state_list):
            raise SchemaError(f"{name}: duplicate state names")
        state_set = set(state_list)
        alpha = frozenset(alphabet)
        if TICK not in alpha:
            raise SchemaError(f"{name}: alphabet must contain {TICK!r}")
        if initial not in state_set:
            raise UnknownNameError(f"{name}: initial state {initial!r} not declared")
        marked_list = list(marked)
        for m in marked_list:
            if m not in state_set:
                raise UnknownNameError(f"{name}: marked state {m!r} not declared")
        raw: dict[str, dict[str, str]] = {q: {} for q in state_list}
        for src, event, dst in transitions:
            if src not in state_set:
                raise UnknownNameError(f"{name}: transition from unknown state {src!r}")
            if dst not in state_set:
                raise UnknownNameError(f"{name}: transition to unknown state {dst!r}")
            if event not in alpha:
                raise UnknownNameError(f"{name}: transition on unknown event {event!r}")
            if event in raw[src]:
                raise DeterminismError(f"{name}: duplicate transition ({src!r}, {event!r})")
            raw[src][event] = dst
        normalized = {
            q: {e: raw[q][e] for e in sorted(raw[q], key=event_order)} for q in state_list
        }
        return cls(name, tuple(state_list), alpha, normalized, initial, frozenset(marked_list))

    def target(self, state: str, event: str) -> Optional[str]:
        return self.transitions[state].get(event)

    def run(self, string: Iterable[str], start: Optional[str] = None) -> Optional[str]:
        """State reached from ``start`` (default initial) on ``string``, or None."""
        state = self.initial if start is None else start
        for event in string:
            nxt = self.transitions[state].get(event)
            if nxt is None:
                return None
            state = nxt
        return state

    # the moves protocol shared with the channel-level structures
    @property
    def initial_state(self) -> str:
        return self.initial

    def moves(self, state: str) -> Iterable[tuple[str, str]]:
        """The (event, target) pairs of ``state``, in canonical order."""
        return self.transitions[state].items()

    def is_marked(self, state: str) -> bool:
        return state in self.marked


def accessible(auto: TimedAutomaton) -> TimedAutomaton:
    """Restriction to states reachable from the initial state.

    Declaration order of surviving states is preserved, so an already
    accessible automaton comes back unchanged.
    """
    reached = _reachable(auto)
    if len(reached) == len(auto.states):
        return auto
    return remove_states(auto, [q for q in auto.states if q not in reached])


def remove_states(auto: TimedAutomaton, removed: Iterable[str], name: Optional[str] = None) -> TimedAutomaton:
    """Induced automaton on the complement of ``removed`` (marking inherited);
    the first unknown state in ``removed`` raises UnknownNameError."""
    gone = list(removed)
    keep = set(auto.states)
    for q in gone:
        if q not in keep:
            raise UnknownNameError(f"cannot remove unknown state {q!r}")
    if auto.initial in gone:
        raise SchemaError("cannot remove the initial state")
    keep.difference_update(gone)
    states = tuple(q for q in auto.states if q in keep)
    transitions = {
        q: {e: t for e, t in auto.transitions[q].items() if t in keep} for q in states
    }
    return TimedAutomaton(
        name or auto.name,
        states,
        auto.alphabet,
        transitions,
        auto.initial,
        frozenset(m for m in auto.marked if m in keep),
    )


def parallel_compose(a: TimedAutomaton, b: TimedAutomaton) -> TimedAutomaton:
    """Synchronous product: tick synchronizes, private events interleave.

    The component alphabets must intersect exactly in {tick}.  The result is
    accessible by construction, its states named ``(qa,qb)`` in breadth-first
    discovery order; a pair is marked iff both components are.  Raises
    CompositionError when two pairs get the same name (component state names
    with commas can collide) and ResourceLimitError past ``MAX_STATES``
    pairs.
    """
    shared = a.alphabet & b.alphabet
    if shared != {TICK}:
        extra = sorted(shared - {TICK})
        raise CompositionError(
            f"alphabets of {a.name!r} and {b.name!r} overlap beyond {TICK!r}: {extra}"
        )
    space = StateSpace("plant composition", MAX_STATES)
    space.add((a.initial, b.initial))
    index = space.index
    names: list[str] = []
    transitions: dict[str, dict[str, str]] = {}
    for pa, pb in space.keys:  # space.keys grows: breadth-first
        moves: list[tuple[str, tuple[str, str]]] = []
        ta = a.transitions[pa].get(TICK)
        tb = b.transitions[pb].get(TICK)
        if ta is not None and tb is not None:
            moves.append((TICK, (ta, tb)))
        private = [(e, (t, pb)) for e, t in a.transitions[pa].items() if e != TICK]
        private += [(e, (pa, t)) for e, t in b.transitions[pb].items() if e != TICK]
        moves.extend(sorted(private, key=lambda m: m[0]))
        for _event, dst in moves:
            if dst not in index:
                space.add(dst)
        name = f"({pa},{pb})"
        if name in transitions:
            first = space.keys[names.index(name)]
            raise CompositionError(
                f"composing {a.name!r} and {b.name!r}: state pairs {first} and {(pa, pb)} are both named {name!r}"
            )
        names.append(name)
        transitions[name] = {event: f"({qa},{qb})" for event, (qa, qb) in moves}
    marked = frozenset(
        name for name, (pa, pb) in zip(names, space.keys) if pa in a.marked and pb in b.marked
    )
    return TimedAutomaton(
        f"({a.name}||{b.name})",
        tuple(names),
        a.alphabet | b.alphabet,
        transitions,
        names[0],
        marked,
    )


def subautomaton_defect(sub: TimedAutomaton, auto: TimedAutomaton) -> Optional[str]:
    """Why ``sub`` is not ``auto`` with some states (and incident transitions)
    removed, or None when it is.

    Requires the same alphabet and initial state, transitions exactly induced
    by the retained states, and a marking within the inherited one (the
    parent's marking restricted to the retained states).
    """
    keep = set(sub.states)
    if not keep <= set(auto.states):
        return "states must be a subset of the plant's states"
    if sub.initial != auto.initial:
        return "initial state must match the plant's"
    if sub.alphabet != auto.alphabet:
        return "alphabet must match the plant's"
    for q in sub.states:
        induced = {e: t for e, t in auto.transitions[q].items() if t in keep}
        if dict(sub.transitions[q]) != induced:
            return (
                f"transitions at state {q!r} must be exactly the plant's,"
                " restricted to the retained states"
            )
    if not sub.marked <= auto.marked & keep:
        return "marked set must be a subset of the inherited one"
    return None


def _reachable(machine) -> dict:
    """Each state reachable in ``machine`` (anything with ``initial_state``
    and ``moves``), in breadth-first discovery order, mapped to the sources
    of its incoming moves."""
    sources = {machine.initial_state: []}
    reached = list(sources)
    for state in reached:  # reached grows while it is walked
        for _event, dst in machine.moves(state):
            if dst not in sources:
                sources[dst] = []
                reached.append(dst)
            sources[dst].append(state)
    return sources


def is_nonblocking(machine) -> bool:
    """True iff every reachable state of ``machine`` can reach a marked state.

    ``machine`` is anything with ``initial_state``, ``moves`` and
    ``is_marked``: a TimedAutomaton, a CommAutomaton, a SpecView or a
    ClosedLoop.  A forward walk records each state's sources, then the
    closure of the marked states over those sources is the coreachable set.
    """
    sources = _reachable(machine)
    return len(closure([state for state in sources if machine.is_marked(state)], sources)) == len(sources)


@dataclass(frozen=True)
class AssumptionVerdict:
    """Outcome of the three timed-model well-formedness checks.

    ``condition`` is 1, 2 or 3 for the first violated check (None when all
    hold); the witness is a cycle of (state, event) pairs for condition 1 and
    a single state name for the others.
    """

    ok: bool
    condition: Optional[int] = None
    witness_cycle: tuple[tuple[str, str], ...] = field(default=())
    witness_state: Optional[str] = None
    message: str = ""


def _find_nontick_cycle(auto: TimedAutomaton) -> Optional[list[tuple[str, str]]]:
    """A cycle using only non-tick events, or None.  Iterative DFS, roots in
    declaration order; ``path[k]`` is the move taken from the state at
    ``stack[k]``, and ``depth`` maps each state on the stack to its ``k``."""

    def nontick(q: str):
        return ((e, t) for e, t in auto.transitions[q].items() if e != TICK)

    done: set[str] = set()
    for root in auto.states:
        if root in done:
            continue
        stack = [(root, nontick(root))]
        path: list[tuple[str, str]] = []
        depth = {root: 0}
        while stack:
            state, edges = stack[-1]
            for event, target in edges:
                if target in depth:
                    return path[depth[target]:] + [(state, event)]
                if target not in done:
                    depth[target] = len(stack)
                    path.append((state, event))
                    stack.append((target, nontick(target)))
                    break
            else:
                stack.pop()
                del path[-1:]
                del depth[state]
                done.add(state)
    return None


def validate_timed_assumptions(auto: TimedAutomaton, net) -> AssumptionVerdict:
    """Check the three structural assumptions a timed plant must satisfy.

    1. no cycle of non-tick events (only finitely many events per time unit);
    2. every state has at least one active event (time never stops);
    3. a state with no active tick has an active enforceable event.

    ``net`` is a NetworkConfig or a bare set of enforceable events.  Returns
    the first violated condition with a witness.
    """
    enforceable = getattr(net, "enforceable", net)
    cycle = _find_nontick_cycle(auto)
    if cycle is not None:
        return AssumptionVerdict(
            False,
            1,
            witness_cycle=tuple(cycle),
            message="cycle of non-tick events: " + " ".join(f"{q} -{e}->" for q, e in cycle),
        )
    for q in auto.states:
        if not auto.transitions[q]:
            return AssumptionVerdict(
                False, 2, witness_state=q, message=f"state {q!r} has no active event"
            )
    for q in auto.states:
        if TICK in auto.transitions[q]:
            continue
        if not any(e in enforceable for e in auto.transitions[q]):
            return AssumptionVerdict(
                False,
                3,
                witness_state=q,
                message=f"state {q!r} disables tick but activates no enforceable event",
            )
    return AssumptionVerdict(True)


def prepare(plant: TimedAutomaton, spec: TimedAutomaton, net) -> tuple[TimedAutomaton, TimedAutomaton]:
    """The control problem every pipeline solves: the plant's accessible
    part, the specification restricted to the states it kept, after the
    plant passed ``validate_timed_assumptions`` (ModelError otherwise).
    ``comm.build_comm_automaton`` runs it first, so no caller has to."""
    reachable = accessible(plant)
    # only states the plant lost: a state foreign to the plant stays, for the
    # subautomaton check to reject
    unreachable = set(spec.states).intersection(plant.states).difference(reachable.states)
    if unreachable:
        spec = remove_states(spec, unreachable, name=spec.name)
    plant = reachable
    assumptions = validate_timed_assumptions(plant, net)
    if not assumptions.ok:
        raise ModelError(f"plant violates timed assumption {assumptions.condition}: {assumptions.message}")
    return plant, spec
