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

from .automata import (
    TICK,
    TimedAutomaton,
    accessible,
    remove_states,
    validate_timed_assumptions,
)
from .comm import (
    CommAutomaton,
    CommEvent,
    Plant,
    build_comm_automaton,
    event_key,
)
from .errors import ModelError, ResourceLimitError
from .network import NetworkConfig
from .verification import (
    Condition,
    Verdict,
    Witness,
    check_lm_closure,
    check_network_controllability,
    check_network_joint_observability,
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

    def step(self, state: int, symbol: str) -> Optional[int]:
        return self.transitions[state].get(symbol)

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

    initial = closure([(comm.initial, comm.in_spec[comm.initial])])
    index: dict[frozenset[ObserverElement], int] = {initial: 0}
    elements = [initial]
    transitions: list[dict[str, int]] = [{}]
    queue = deque([0])
    while queue:
        t = queue.popleft()
        for symbol in obs_alphabet:
            moved = set()
            for sid, flag in elements[t]:
                for _event, dst in table.observed[sid].get(symbol, ()):
                    moved.add((dst, flag and comm.in_spec[dst]))
            if not moved:
                continue
            closed = closure(moved)
            nxt = index.get(closed)
            if nxt is None:
                nxt = len(elements)
                if nxt >= max_states:
                    raise ResourceLimitError(
                        f"observer for supervisor {supervisor + 1} exceeds {max_states} states"
                    )
                index[closed] = nxt
                elements.append(closed)
                transitions.append({})
                queue.append(nxt)
            transitions[t][symbol] = nxt
    return Observer(supervisor, obs_alphabet, elements, transitions)


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


def synthesize_supervisor(comm: CommAutomaton, supervisor: int) -> SupervisorMap:
    """Enable-sets from the observer: disable a controllable event exactly
    where some in-spec element of the observer state can exit the
    specification on it."""
    net = comm.net
    observer = build_observer(comm, supervisor)
    own = net.alphabets[supervisor]
    uncontrollable = own - net.controllable[supervisor]
    enable: list[frozenset[str]] = []
    for element_set in observer.elements:
        disabled = set()
        for event in net.controllable[supervisor]:
            for sid, flag in element_set:
                if not flag:
                    continue
                dst = comm.target(sid, Plant(event))
                if dst is not None and not comm.in_spec[dst]:
                    disabled.add(event)
                    break
        enable.append(frozenset(uncontrollable | (net.controllable[supervisor] - disabled)))
    return SupervisorMap(supervisor, observer, tuple(enable))


@dataclass
class ClosedLoop:
    """Synchronous product of the channel-augmented automaton with all
    observers; a controllable event needs every controlling supervisor's
    enable, deliveries and losses always pass."""

    comm: CommAutomaton
    supervisors: Sequence[SupervisorMap]
    keys: list[tuple[int, tuple[int, ...]]]
    transitions: list[dict[CommEvent, int]]
    initial: int = 0

    @property
    def num_states(self) -> int:
        return len(self.keys)

    @property
    def initial_state(self) -> int:
        return self.initial

    def events_at(self, sid: int) -> tuple[CommEvent, ...]:
        return tuple(self.transitions[sid])

    def target(self, sid: int, event: CommEvent) -> Optional[int]:
        return self.transitions[sid].get(event)

    def is_marked(self, sid: int) -> bool:
        return self.comm.marked[self.keys[sid][0]]

    def comm_state(self, sid: int) -> int:
        return self.keys[sid][0]


Watchers = tuple[tuple[int, str], ...]  # (supervisor, observed symbol) per move


def _watchers(comm: CommAutomaton) -> list[tuple[Watchers, ...]]:
    """Per state, aligned with its transitions: which supervisors observe
    each move, and as what symbol."""
    tables = [comm.observation_table(i) for i in range(comm.net.n)]
    return [
        tuple(
            tuple((i, t.symbols[event]) for i, t in enumerate(tables) if t.symbols[event] is not None)
            for event in moves
        )
        for moves in comm.transitions
    ]


def _advance(
    supervisors: Sequence[SupervisorMap], obs_states: tuple[int, ...], watchers: Watchers
) -> tuple[int, ...]:
    """Every observer's state after a move; raises ValueError when an
    observer has no move for a symbol its supervisor observes."""
    advanced = list(obs_states)
    for i, symbol in watchers:
        nxt = supervisors[i].observer.step(obs_states[i], symbol)
        if nxt is None:
            raise ValueError(
                f"observer of supervisor {i + 1} does not cover every run:"
                f" no move on {symbol!r} from its state {obs_states[i]}"
            )
        advanced[i] = nxt
    return tuple(advanced)


def closed_loop(comm: CommAutomaton, supervisors: Sequence[SupervisorMap]) -> ClosedLoop:
    """Build the controlled behavior under a supervisor set."""
    net = comm.net
    if len(supervisors) != net.n:
        raise ValueError(f"expected {net.n} supervisors, got {len(supervisors)}")
    watch = _watchers(comm)
    controllable = net.globally_controllable
    initial_key = (comm.initial, tuple(s.observer.initial for s in supervisors))
    index = {initial_key: 0}
    keys = [initial_key]
    transitions: list[dict[CommEvent, int]] = [{}]
    queue = deque([0])
    while queue:
        sid = queue.popleft()
        x, obs_states = keys[sid]
        for (event, dst), watchers in zip(comm.transitions[x].items(), watch[x]):
            if isinstance(event, Plant) and event.event in controllable:
                controllers = net.controllers(event.event)
                if not all(
                    event.event in supervisors[i].enable[obs_states[i]] for i in controllers
                ):
                    continue
            advanced = _advance(supervisors, obs_states, watchers) if watchers else obs_states
            key = (dst, advanced)
            tid = index.get(key)
            if tid is None:
                tid = len(keys)
                index[key] = tid
                keys.append(key)
                transitions.append({})
                queue.append(tid)
            transitions[sid][event] = tid
    return ClosedLoop(comm, list(supervisors), keys, transitions)


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


def language_equal(a, b) -> LanguageVerdict:
    """Exact equality of generated and marked languages of two deterministic
    structures sharing a label universe.

    Walks the synchronized product, following one-sided continuations so a
    generated-language difference cannot mask a marked-language difference.
    Distinguishing strings are shortest (BFS).
    """
    DEAD = -1
    start = (a.initial_state, b.initial_state)
    seen = {start}
    queue: deque[tuple[tuple[int, int], tuple[CommEvent, ...]]] = deque([(start, ())])
    diff_generated: Optional[tuple[CommEvent, ...]] = None
    diff_marked: Optional[tuple[CommEvent, ...]] = None
    while queue:
        (sa, sb), string = queue.popleft()
        marked_a = sa != DEAD and a.is_marked(sa)
        marked_b = sb != DEAD and b.is_marked(sb)
        if marked_a != marked_b and diff_marked is None:
            diff_marked = string
        events_a = set(a.events_at(sa)) if sa != DEAD else set()
        events_b = set(b.events_at(sb)) if sb != DEAD else set()
        for event in sorted(events_a | events_b, key=event_key):
            ta = a.target(sa, event) if sa != DEAD else None
            tb = b.target(sb, event) if sb != DEAD else None
            if (ta is None) != (tb is None) and diff_generated is None and DEAD not in (sa, sb):
                # one-sided definedness seen from a common prefix
                pass_string = string + (event,)
                diff_generated = pass_string
            nxt = (ta if ta is not None else DEAD, tb if tb is not None else DEAD)
            if nxt == (DEAD, DEAD):
                continue
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, string + (event,)))
        if diff_generated is not None and diff_marked is not None:
            break
    return LanguageVerdict(
        diff_generated is None, diff_marked is None, diff_generated, diff_marked
    )


def check_admissibility(
    supervisors: Sequence[SupervisorMap], comm: CommAutomaton
) -> Verdict:
    """A supervisor set is admissible iff, along every in-spec run:

    1. no supervisor ever disables one of its uncontrollable events;
    2. when tick is possible and no enforceable event is active inside the
       specification, every supervisor keeps tick enabled.
    """
    net = comm.net
    watch = _watchers(comm)
    strings = comm.shortest_strings(within_spec=True)
    initial_key = (comm.initial, tuple(s.observer.initial for s in supervisors))
    index = {initial_key: 0}
    keys = [initial_key]
    queue = deque([0])
    while queue:
        sid = queue.popleft()
        x, obs_states = keys[sid]
        for i, sup in enumerate(supervisors):
            missing = (net.alphabets[i] - net.controllable[i]) - sup.enable[obs_states[i]]
            if missing:
                event = sorted(missing)[0]
                return Verdict(
                    Condition.ADM_UNCONTROLLABLE,
                    False,
                    Witness(mu=strings[x], sigma=event, supervisor=i),
                    detail=f"supervisor {i + 1} disables uncontrollable {event!r}",
                )
        tick_possible = comm.target(x, Plant(TICK)) is not None
        enforceable_active = any(
            isinstance(ev, Plant) and ev.event in net.enforceable and comm.in_spec[t]
            for ev, t in comm.transitions[x].items()
        )
        if tick_possible and not enforceable_active:
            for i, sup in enumerate(supervisors):
                if TICK not in sup.enable[obs_states[i]]:
                    return Verdict(
                        Condition.ADM_TICK,
                        False,
                        Witness(mu=strings[x], sigma=TICK, supervisor=i),
                        detail=f"supervisor {i + 1} disables tick with no enforceable"
                        " event available",
                    )
        # explore in-spec runs only
        for dst, watchers in zip(comm.transitions[x].values(), watch[x]):
            if not comm.in_spec[dst]:
                continue
            advanced = _advance(supervisors, obs_states, watchers) if watchers else obs_states
            key = (dst, advanced)
            if key not in index:
                index[key] = len(keys)
                keys.append(key)
                queue.append(index[key])
    return Verdict(Condition.ADM_UNCONTROLLABLE, True)


def spec_nonblocking(comm: CommAutomaton) -> bool:
    """True iff every state of the specification restriction can reach a
    specification-marked state inside the restriction."""
    spec_states = [s for s in range(comm.num_states) if comm.spec_reachable[s]]
    co = {s for s in spec_states if comm.spec_marked[s]}
    grew = True
    while grew:
        grew = False
        for s in spec_states:
            if s in co:
                continue
            for event, t in comm.transitions[s].items():
                if comm.in_spec[t] and t in co:
                    co.add(s)
                    grew = True
                    break
    return all(s in co for s in spec_states)


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
    plant = accessible(plant)
    unreachable = set(spec.states) - set(plant.states)
    if unreachable:
        spec = remove_states(spec, unreachable, name=spec.name)
    assumptions = validate_timed_assumptions(plant, net)
    if not assumptions.ok:
        raise ModelError(f"plant violates timed assumption {assumptions.condition}: {assumptions.message}")
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
        supervisors = [synthesize_supervisor(comm, i) for i in range(net.n)]
        loop = closed_loop(comm, supervisors)
        report.supervisors = supervisors
        report.admissibility = check_admissibility(supervisors, comm)
        report.language = language_equal(loop, comm.spec_view())
        report.loop = loop
        report.nonblocking = spec_nonblocking(comm)
        for i, sup in enumerate(supervisors):
            sizes[f"observer_{i + 1}_states"] = sup.observer.num_states
        sizes["closed_loop_states"] = loop.num_states
    return report
