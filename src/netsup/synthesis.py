"""Supervisor synthesis and closed-loop analysis.

Each supervisor is realized as a deterministic observer over its observation
alphabet (subset construction over the channel-augmented automaton) plus an
enable-set per observer state.  An observer state collects every (state,
stayed-in-spec) pair reachable under some run with the observed string; the
enable-set keeps a controllable event unless some in-spec element can exit
the specification on it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .automata import TICK, TimedAutomaton, is_nonblocking, prepare
from .comm import (
    PLANT_TICK,
    CommAutomaton,
    CommEvent,
    EventTable,
    Plant,
    build_comm_automaton,
    event_key,
    observation_of,
)
from .explore import PathSpace, StateSpace
from .network import NetworkConfig
from .verification import (
    Condition,
    Verdict,
    Witness,
    check_lm_closure,
    check_network_controllability,
    check_network_joint_observability,
    tick_preemptable,
)

ObserverElement = tuple[int, bool]  # (state id, run stayed in spec)


@dataclass
class Observer:
    """Deterministic observer for one supervisor.

    ``elements[t]`` is the set of (state, in-spec) pairs compatible with the
    observation string leading to observer state ``t``.
    """

    supervisor: int
    obs_alphabet: tuple[str, ...]
    elements: list[frozenset[ObserverElement]]
    transitions: list[dict[str, int]]
    initial: int = 0

    @property
    def num_states(self) -> int:
        return len(self.elements)

    def run(self, symbols: Iterable[str]) -> Optional[int]:
        state = self.initial
        for symbol in symbols:
            nxt = self.transitions[state].get(symbol)
            if nxt is None:
                return None
            state = nxt
        return state


def build_observer(
    comm: CommAutomaton, supervisor: int, *, max_states: int = 100_000
) -> Observer:
    """Subset construction over one supervisor's observation mapping.

    Unobserved moves are closed over silently; an element's flag survives a
    move only while the run stays within in_spec states.
    """
    obs_alphabet = comm.net.observation_alphabet(supervisor)
    table = comm.observation_table(supervisor)

    def closure(elements: Iterable[ObserverElement]) -> frozenset[ObserverElement]:
        out = set(elements)
        queue = deque(out)
        while queue:
            sid, flag = queue.popleft()
            for _event, dst in table.silent[sid]:
                nxt = (dst, flag and comm.in_spec[dst])
                if nxt not in out:
                    out.add(nxt)
                    queue.append(nxt)
        return frozenset(out)

    space = StateSpace(f"observer for supervisor {supervisor + 1}", max_states)
    space.add(closure([(comm.initial, comm.in_spec[comm.initial])]))
    index = space.index
    transitions: list[dict[str, int]] = []
    for element_set in space.keys:  # space.keys grows: breadth-first
        here: dict[str, int] = {}
        transitions.append(here)
        for symbol in obs_alphabet:
            moved = set()
            for sid, flag in element_set:
                for _event, dst in table.observed[sid].get(symbol, ()):
                    moved.add((dst, flag and comm.in_spec[dst]))
            if not moved:
                continue
            closed = closure(moved)
            nxt = index.get(closed)
            here[symbol] = space.add(closed) if nxt is None else nxt
    return Observer(supervisor, obs_alphabet, space.keys, transitions)


@dataclass
class SupervisorMap:
    """An observer together with the set of events enabled at each of its
    states.  Uncontrollable events of the supervisor are always enabled."""

    supervisor: int
    observer: Observer
    enable: tuple[frozenset[str], ...]

    def command(self, observation: Iterable[str]) -> frozenset[str]:
        """Enable-set after an observation string (must be one the observer
        accepts)."""
        state = self.observer.run(observation)
        if state is None:
            raise ValueError("observation string not generated by any run")
        return self.enable[state]


def synthesize_supervisor(
    comm: CommAutomaton, supervisor: int, *, max_states: int = 100_000
) -> SupervisorMap:
    """Enable-sets from the observer: disable a controllable event exactly
    where some in-spec element of the observer state can exit the
    specification on it.  ``max_states`` bounds the observer."""
    net = comm.net
    observer = build_observer(comm, supervisor, max_states=max_states)
    controllable = net.controllable[supervisor]
    uncontrollable = net.alphabets[supervisor] - controllable
    # per comm state, the controllable events whose move leaves the specification
    table = comm.event_table()
    names = [
        event.event if isinstance(event, Plant) and event.event in controllable else None
        for event in table.events
    ]
    exits: dict[int, set[str]] = {}
    for sid, (row, dsts) in enumerate(zip(table.ids, table.targets)):
        for e, dst in zip(row, dsts):
            if names[e] is not None and not comm.in_spec[dst]:
                exits.setdefault(sid, set()).add(names[e])
    enable: list[frozenset[str]] = []
    for element_set in observer.elements:
        disabled: set[str] = set()
        for sid, flag in element_set:
            if flag and sid in exits:
                disabled |= exits[sid]
        enable.append(frozenset(uncontrollable | (controllable - disabled)))
    return SupervisorMap(supervisor, observer, tuple(enable))


@dataclass
class ClosedLoop:
    """Synchronous product of the channel-augmented automaton with all
    observers; a controllable event needs every controlling supervisor's
    enable, deliveries and losses always pass.

    ``table`` holds the moves over the channel-augmented automaton's event
    ids; ``moves`` reads one state's row as events.
    """

    comm: CommAutomaton
    supervisors: Sequence[SupervisorMap]
    keys: list[tuple[int, tuple[int, ...]]]
    table: EventTable
    initial: int = 0

    @property
    def num_states(self) -> int:
        return len(self.keys)

    @property
    def initial_state(self) -> int:
        return self.initial

    def event_table(self) -> EventTable:
        return self.table

    def moves(self, sid: int) -> list[tuple[CommEvent, int]]:
        """The (event, target) pairs of ``sid``, in event id order."""
        events = self.table.events
        return [(events[e], t) for e, t in zip(self.table.ids[sid], self.table.targets[sid])]

    def is_marked(self, sid: int) -> bool:
        return self.comm.marked[self.keys[sid][0]]

    def comm_state(self, sid: int) -> int:
        return self.keys[sid][0]


Watchers = tuple[tuple[int, str], ...]  # (supervisor, observed symbol) pairs


def _watchers(events: tuple[CommEvent, ...], net: NetworkConfig) -> list[Watchers]:
    """Per event id, the supervisors that observe the event and as what."""
    return [
        tuple((i, s) for i in range(net.n) if (s := observation_of(event, i, net)) is not None)
        for event in events
    ]


def _step(
    steps: list[list[dict[str, int]]], obs_states: tuple[int, ...], watchers: Watchers
) -> tuple[int, ...]:
    """Every observer's state after a move, ``steps[i]`` being observer
    ``i``'s transitions; raises ValueError when an observer has no move for
    a symbol its supervisor observes."""
    advanced = list(obs_states)
    for i, symbol in watchers:
        nxt = steps[i][obs_states[i]].get(symbol)
        if nxt is None:
            raise _uncovered(i, symbol, obs_states[i])
        advanced[i] = nxt
    return tuple(advanced)


def _uncovered(i: int, symbol: str, t: int) -> ValueError:
    """Observer ``i`` has no move on ``symbol`` from its state ``t``."""
    return ValueError(
        f"observer of supervisor {i + 1} does not cover every run: no move on {symbol!r} from its state {t}"
    )


def closed_loop(
    comm: CommAutomaton, supervisors: Sequence[SupervisorMap], *, max_states: int = 500_000
) -> ClosedLoop:
    """Build the controlled behavior under a supervisor set; ``max_states``
    bounds it."""
    net = comm.net
    if len(supervisors) != net.n:
        raise ValueError(f"expected {net.n} supervisors, got {len(supervisors)}")
    table = comm.event_table()
    ids, targets = table.ids, table.targets
    watch = _watchers(table.events, net)
    steps = [sup.observer.transitions for sup in supervisors]
    # for each supervisor that disables something: per observer state, the
    # ids of the events it must enable (controllable plant events it
    # controls) but does not
    disabling = []
    for i, sup in enumerate(supervisors):
        own = [
            (e, event.event) for e, event in enumerate(table.events)
            if isinstance(event, Plant) and event.event in net.globally_controllable
            and i in net.controllers(event.event)
        ]
        disabled = [frozenset(e for e, name in own if name not in enable) for enable in sup.enable]
        if any(disabled):
            disabling.append((i, disabled))
    space = StateSpace("closed loop", max_states)
    space.add((comm.initial, tuple(sup.observer.initial for sup in supervisors)))
    index, keys = space.index, space.keys
    loop_ids: list[tuple[int, ...]] = []
    loop_targets: list[tuple[int, ...]] = []
    for x, obs_states in keys:  # keys grows while it is walked: breadth-first
        blocked: frozenset[int] = frozenset()
        for i, disabled in disabling:
            blocked = blocked | disabled[obs_states[i]]
        row: list[int] = []
        dsts: list[int] = []
        for e, dst in zip(ids[x], targets[x]):
            if e in blocked:
                continue
            watchers = watch[e]
            key = (dst, _step(steps, obs_states, watchers) if watchers else obs_states)
            tid = index.get(key)
            row.append(e)
            dsts.append(space.add(key) if tid is None else tid)
        loop_ids.append(tuple(row))
        loop_targets.append(tuple(dsts))
    return ClosedLoop(comm, list(supervisors), keys, EventTable(table.events, loop_ids, loop_targets))


@dataclass(frozen=True)
class LanguageVerdict:
    """Outcome of an exact two-automaton language comparison."""

    generated_equal: bool
    marked_equal: bool
    diff_generated: Optional[tuple[CommEvent, ...]] = None
    diff_marked: Optional[tuple[CommEvent, ...]] = None

    @property
    def equal(self) -> bool:
        return self.generated_equal and self.marked_equal


def language_equal(a, b, *, max_states: int = 500_000) -> LanguageVerdict:
    """Exact equality of generated and marked languages of two deterministic
    structures over channel-augmented events: a CommAutomaton, its
    SpecView or a ClosedLoop (anything with ``event_table``,
    ``initial_state`` and ``is_marked``).

    Walks the synchronized product, following one-sided continuations so a
    generated-language difference cannot mask a marked-language difference.
    Distinguishing strings are shortest (BFS, ties broken by event id);
    ``max_states`` bounds the product.
    """
    table_a, table_b = a.event_table(), b.event_table()
    events = table_a.events
    if table_b.events is not events and table_b.events != events:
        events = tuple(sorted(set(events) | set(table_b.events), key=event_key))
        table_a, table_b = table_a.over(events), table_b.over(events)
    ids_a, targets_a, ids_b, targets_b = table_a.ids, table_a.targets, table_b.ids, table_b.targets
    # a pair (sa, sb), -1 for a side that has left its language, has the key
    # (sa + 1) * width + sb + 1 and is labelled with the event id it was
    # discovered on
    width = len(ids_b) + 1
    space = PathSpace("language comparison product", max_states)
    space.add((a.initial_state + 1) * width + b.initial_state + 1)
    index = space.index
    diff_generated: Optional[tuple[int, int]] = None  # (pair, event id)
    diff_marked: Optional[int] = None  # pair
    for k, key in enumerate(space.keys):  # space.keys grows: breadth-first
        sa, sb = key // width - 1, key % width - 1
        if diff_marked is None and (sa >= 0 and a.is_marked(sa)) != (sb >= 0 and b.is_marked(sb)):
            diff_marked = k
        row_a, dsts_a = (ids_a[sa], targets_a[sa]) if sa >= 0 else ((), ())
        row_b, dsts_b = (ids_b[sb], targets_b[sb]) if sb >= 0 else ((), ())
        if row_a == row_b:
            moves: Iterable[tuple[int, int, int]] = zip(row_a, dsts_a, dsts_b)
        else:
            to_a, to_b = dict(zip(row_a, dsts_a)), dict(zip(row_b, dsts_b))
            moves = [(e, to_a.get(e, -1), to_b.get(e, -1)) for e in sorted(to_a.keys() | to_b.keys())]
            if diff_generated is None and sa >= 0 and sb >= 0:
                # one-sided definedness seen from a common prefix
                diff_generated = next((k, e) for e, ta, tb in moves if ta < 0 or tb < 0)
        for e, ta, tb in moves:
            pair = (ta + 1) * width + tb + 1
            if pair not in index:
                space.add(pair, k, e)
        if diff_generated is not None and diff_marked is not None:
            break
    return LanguageVerdict(
        diff_generated is None,
        diff_marked is None,
        None if diff_generated is None
        else tuple(events[e] for e in space.path(diff_generated[0]) + [diff_generated[1]]),
        None if diff_marked is None else tuple(events[e] for e in space.path(diff_marked)),
    )


def check_admissibility(
    supervisors: Sequence[SupervisorMap], comm: CommAutomaton, *, max_states: int = 500_000
) -> Verdict:
    """A supervisor set is admissible iff, along every in-spec run, each
    supervisor

    1. never disables one of its uncontrollable events, and
    2. keeps tick enabled where tick is possible and not ``tick_preemptable``.

    Both concern one supervisor at a time, so each supervisor's observer is
    walked alone, in index order, breadth-first over the (state, observer
    state) pairs in-spec runs reach: silent moves first, then observed
    symbols in alphabet order.  The first violating pair gives the witness, a
    shortest run reaching it.  ``max_states`` bounds each walk.
    """
    net, in_spec = comm.net, comm.in_spec
    for i, sup in enumerate(supervisors):
        table = comm.observation_table(i)
        steps, enable = sup.observer.transitions, sup.enable
        uncontrollable = net.alphabets[i] - net.controllable[i]
        # per observer state, the first uncontrollable event it disables
        disabled = [min(uncontrollable - allowed, default=None) for allowed in enable]
        width = sup.observer.num_states  # the pair (x, t) has the key x * width + t
        space = PathSpace("admissibility product", max_states)
        space.add(comm.initial * width + sup.observer.initial)
        index, add = space.index, space.add
        for k, key in enumerate(space.keys):  # space.keys grows: breadth-first
            x, t = divmod(key, width)
            if disabled[t] is not None:
                witness = Witness(tuple(space.path(k)), disabled[t], supervisor=i)
                detail = f"supervisor {i + 1} disables uncontrollable {disabled[t]!r}"
                return Verdict(Condition.ADM_UNCONTROLLABLE, False, witness, detail)
            if TICK not in enable[t] and PLANT_TICK in comm.transitions[x] and not tick_preemptable(comm, x):
                witness = Witness(tuple(space.path(k)), TICK, supervisor=i)
                detail = f"supervisor {i + 1} disables tick with no enforceable event available"
                return Verdict(Condition.ADM_TICK, False, witness, detail)
            for event, dst in table.silent[x]:
                pair = dst * width + t
                if in_spec[dst] and pair not in index:
                    add(pair, k, event)
            for symbol, moves in table.observed[x].items():
                nxt = steps[t].get(symbol)
                for event, dst in moves:
                    if in_spec[dst]:
                        if nxt is None:
                            raise _uncovered(i, symbol, t)
                        pair = dst * width + nxt
                        if pair not in index:
                            add(pair, k, event)
    return Verdict(Condition.ADM_UNCONTROLLABLE, True)


def spec_nonblocking(comm: CommAutomaton) -> bool:
    """True iff every state of the specification restriction can reach a
    specification-marked state inside the restriction."""
    return is_nonblocking(comm.spec_view())


@dataclass
class SolveReport:
    """Everything the full pipeline produced: the three existence verdicts,
    and (when solvable, or on request for diagnosis) the synthesized
    supervisors with their admissibility, exact closed-loop comparison and
    nonblocking sanity check."""

    solvable: bool
    controllability: Verdict
    observability: Verdict
    closure: Verdict
    sizes: dict[str, int]
    comm: CommAutomaton
    supervisors: Optional[list[SupervisorMap]] = None
    admissibility: Optional[Verdict] = None
    language: Optional[LanguageVerdict] = None
    loop: Optional[ClosedLoop] = None
    nonblocking: Optional[bool] = None
    diagnostic: bool = False

    @property
    def verified(self) -> bool:
        """Solvable and every post-synthesis check confirmed."""
        return bool(
            self.solvable
            and self.admissibility is not None
            and self.admissibility.holds
            and self.language is not None
            and self.language.equal
        )


def solve_control_problem(
    plant: TimedAutomaton,
    spec: TimedAutomaton,
    net: NetworkConfig,
    *,
    diagnostic: bool = False,
    max_states: int = 500_000,
) -> SolveReport:
    """Full pipeline: validate, build the channel-augmented automaton, decide
    the three existence conditions, and on success synthesize and verify the
    supervisor set.

    With ``diagnostic`` the supervisors are synthesized and compared even when
    a condition fails (their enable-sets carry no guarantee then).
    """
    plant, spec = prepare(plant, spec, net)
    comm = build_comm_automaton(plant, spec, net, max_states=max_states)
    controllability = check_network_controllability(comm)
    observability = check_network_joint_observability(comm, max_states=max_states)
    closure = check_lm_closure(comm)
    solvable = controllability.holds and observability.holds and closure.holds
    sizes = {
        "comm_states": comm.num_states,
        "spec_states": sum(comm.spec_reachable),
    }
    report = SolveReport(
        solvable=solvable,
        controllability=controllability,
        observability=observability,
        closure=closure,
        sizes=sizes,
        comm=comm,
        diagnostic=diagnostic and not solvable,
    )
    if solvable or diagnostic:
        supervisors = [
            synthesize_supervisor(comm, i, max_states=max_states) for i in range(net.n)
        ]
        loop = closed_loop(comm, supervisors, max_states=max_states)
        report.supervisors = supervisors
        report.admissibility = check_admissibility(supervisors, comm, max_states=max_states)
        report.language = language_equal(loop, comm.spec_view(), max_states=max_states)
        report.loop = loop
        report.nonblocking = spec_nonblocking(comm)
        for i, sup in enumerate(supervisors):
            sizes[f"observer_{i + 1}_states"] = sup.observer.num_states
        sizes["closed_loop_states"] = loop.num_states
    return report
