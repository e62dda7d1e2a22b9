"""Supervisor synthesis and closed-loop analysis.

Each supervisor is realized as a deterministic observer over its observation
alphabet (subset construction over the channel-augmented automaton, read off
its event table) plus an enable-set per observer state.  An observer state
collects every element reachable under some run with the observed string: a
state id and whether the run stayed in spec, coded as one int.  The
enable-set keeps a controllable event unless some in-spec element can exit
the specification on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .automata import TICK, TimedAutomaton, event_order, is_nonblocking
from .comm import (  # Observer and build_observer are importable from here too
    CommAutomaton,
    CommEvent,
    EventTable,
    InSpecRows,
    Observer,
    Plant,
    SpecView,
    build_comm_automaton,
    build_observer,
    event_key,
    observation_symbols,
)
from .explore import MAX_STATES, PathSpace, StateSpace
from .network import NetworkConfig
from .verification import (
    Condition,
    Verdict,
    Witness,
    check_lm_closure,
    check_network_controllability,
    check_network_joint_observability,
)

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
    comm: CommAutomaton, supervisor: int, *, max_states: int = MAX_STATES
) -> SupervisorMap:
    """Enable-sets from the observer: disable a controllable event exactly
    where some in-spec element of the observer state can exit the
    specification on it, as the state's ``exits`` summary says.  The
    observer is ``comm``'s cached one; ``max_states`` bounds it."""
    net = comm.net
    observer = comm.observer(supervisor, max_states)
    controllable = net.controllable[supervisor]
    uncontrollable = net.alphabets[supervisor] - controllable
    return SupervisorMap(
        supervisor, observer, tuple(uncontrollable | (controllable - exits) for exits in observer.exits)
    )


@dataclass
class ClosedLoop:
    """Synchronous product of the channel-augmented automaton with all
    observers; a controllable event needs every controlling supervisor's
    enable, deliveries and losses always pass.

    A state is packed into one int, its code ``x * radix + sum(t_i * w_i)``:
    ``x`` is the automaton's state, ``t_i`` observer ``i``'s state and
    ``w_i`` the product of the sizes of the observers before ``i``, so
    ``radix`` is the product of all their sizes.  ``codes[sid]`` is the
    code of state ``sid``, ``comm_state`` and ``state`` unpack it.
    ``table`` holds the moves over the channel-augmented automaton's event
    ids; ``moves`` reads one state's row as events.  ``closed_loop`` builds
    this product; ``language_equal`` and ``check_admissibility`` build no
    other one unless a check fails.
    """

    comm: CommAutomaton
    supervisors: Sequence[SupervisorMap]
    codes: list[int]
    radix: int
    table: EventTable
    initial: int = 0

    @property
    def num_states(self) -> int:
        return len(self.codes)

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
        return self.comm.marked[self.codes[sid] // self.radix]

    def comm_state(self, sid: int) -> int:
        return self.codes[sid] // self.radix

    def state(self, sid: int) -> tuple[int, tuple[int, ...]]:
        """The automaton's state and every observer's state at ``sid``."""
        x, rest = divmod(self.codes[sid], self.radix)
        obs = []
        for sup in self.supervisors:
            rest, t = divmod(rest, sup.observer.num_states)
            obs.append(t)
        return x, tuple(obs)


def _check_count(comm: CommAutomaton, supervisors: Sequence[SupervisorMap]) -> None:
    """Raise ValueError unless there is one supervisor per ``comm.net.n``,
    supervisor ``i`` at position ``i``."""
    if len(supervisors) != comm.net.n:
        raise ValueError(f"expected {comm.net.n} supervisors, got {len(supervisors)}")
    for i, sup in enumerate(supervisors):
        if sup.supervisor != i:
            raise ValueError(f"supervisor {sup.supervisor + 1} is at position {i + 1}")


def _uncovered(i: int, symbol: str, t: int) -> ValueError:
    """Observer ``i`` has no move on ``symbol`` from its state ``t``."""
    return ValueError(
        f"observer of supervisor {i + 1} does not cover every run: no move on {symbol!r} from its state {t}"
    )


_BLOCKED = None  # step-table marker: the supervisor disables the event here
_UNCOVERED = object()  # step-table marker: its observer has no move here


def _step_tables(
    comm: CommAutomaton, supervisors: Sequence[SupervisorMap], weights: list[int]
) -> list[tuple[tuple, ...]]:
    """Per event id, one entry ``(weight, size, steps, i, symbol)`` for each
    supervisor ``i``, in index order, that observes the event (as
    ``symbol``) or may disable it.  ``steps[t]`` is, at observer
    state ``t``, the code delta ``(next(t) - t) * weight`` of the move,
    ``_BLOCKED`` where the supervisor controls the event and ``enable[t]``
    lacks it (this wins over a missing move), or ``_UNCOVERED`` where the
    observer has no move.  Equal (supervisor, symbol, guarded event) share
    one table."""
    net = comm.net
    symbols = [observation_symbols(comm, i) for i in range(len(supervisors))]
    shared: dict[tuple[int, Optional[str], Optional[str]], list] = {}
    out = []
    for e, event in enumerate(comm.event_table().events):
        entries = []
        name = event.event if isinstance(event, Plant) and event.event in net.globally_controllable else None
        for i, (sup, w) in enumerate(zip(supervisors, weights)):
            symbol = symbols[i][e]
            # the event's name when this supervisor controls it and disables
            # it somewhere
            guard = (
                name if name is not None and i in net.controllers(name) and any(name not in on for on in sup.enable)
                else None
            )
            if symbol is None and guard is None:
                continue
            steps = shared.get((i, symbol, guard))
            if steps is None:
                steps = shared[i, symbol, guard] = [
                    _BLOCKED if guard is not None and guard not in on
                    else 0 if symbol is None
                    else _UNCOVERED if symbol not in step
                    else (step[symbol] - t) * w
                    for t, (on, step) in enumerate(zip(sup.enable, sup.observer.transitions))
                ]
            entries.append((w, sup.observer.num_states, steps, i, symbol))
        out.append(tuple(entries))
    return out


def closed_loop(
    comm: CommAutomaton, supervisors: Sequence[SupervisorMap], *, max_states: int = MAX_STATES
) -> ClosedLoop:
    """Build the controlled behavior under a supervisor set, breadth-first
    over packed state codes (see ``ClosedLoop``) and per-event step tables
    (see ``_step_tables``); ``max_states`` bounds it.  Raises ValueError
    when an observer has no move for a symbol its supervisor observes, on a
    move no supervisor disables; it names the lowest-index such observer."""
    _check_count(comm, supervisors)
    table = comm.event_table()
    ids, targets = table.ids, table.targets
    weights = []
    radix = 1
    for sup in supervisors:
        weights.append(radix)
        radix *= sup.observer.num_states
    steps_of = _step_tables(comm, supervisors, weights)
    # per automaton state, built on first visit: (event id, target code
    # with every observer at 0, entries) for each of its moves
    moves: list[Optional[tuple]] = [None] * comm.num_states
    space = StateSpace("closed loop", max_states)
    space.add(comm.initial * radix + sum(sup.observer.initial * w for sup, w in zip(supervisors, weights)))
    index, codes = space.index, space.keys
    loop_ids: list[tuple[int, ...]] = []
    loop_targets: list[tuple[int, ...]] = []
    for code in codes:  # codes grows while it is walked: breadth-first
        x, obs = divmod(code, radix)
        here = moves[x]
        if here is None:
            here = moves[x] = tuple(
                (e, dst * radix, steps_of[e]) for e, dst in zip(ids[x], targets[x])
            )
        blocked = []
        dsts: list[int] = []
        for e, key, entries in here:
            key += obs
            missing = None
            for w, size, steps, i, symbol in entries:
                t = obs // w % size
                step = steps[t]
                if step is _BLOCKED:
                    blocked.append(e)
                    break
                if step is _UNCOVERED:
                    missing = missing or (i, symbol, t)
                else:
                    key += step
            else:
                if missing:
                    raise _uncovered(*missing)
                tid = index.get(key)
                dsts.append(space.add(key) if tid is None else tid)
        # the row is shared with the automaton unless a move is blocked
        loop_ids.append(tuple(e for e in ids[x] if e not in blocked) if blocked else ids[x])
        loop_targets.append(tuple(dsts))
    return ClosedLoop(comm, list(supervisors), codes, radix, EventTable(table.events, loop_ids, loop_targets))


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


def _same_language(loop: ClosedLoop, b, rows: list[tuple[int, ...]]) -> bool:
    """True when ``b`` is the loop's automaton or its SpecView and, at every
    loop state, the loop's row and marking equal ``b``'s (``rows``, from
    ``b``'s event table) at the automaton state the loop is in.  Every
    string to a loop state leads ``b`` to that automaton state, so this
    holds exactly when the languages are equal."""
    comm = loop.comm
    if b is comm:
        marked = comm.marked
    elif isinstance(b, SpecView) and b.comm is comm:
        marked = comm.spec_marked
    else:
        return False
    radix, loop_marked = loop.radix, comm.marked
    for row, code in zip(loop.table.ids, loop.codes):
        x = code // radix
        if row != rows[x] or marked[x] != loop_marked[x]:
            return False
    return True


def language_equal(a, b, *, max_states: int = MAX_STATES) -> LanguageVerdict:
    """Exact equality of generated and marked languages of two deterministic
    structures over channel-augmented events: a CommAutomaton, its
    SpecView or a ClosedLoop (anything with ``event_table``,
    ``initial_state`` and ``is_marked``).

    A ClosedLoop ``a`` compared with its own automaton or that automaton's
    SpecView is decided in one pass over the loop (``_same_language``),
    which builds nothing when the languages are equal.  Otherwise, and
    whenever they differ, the synchronized product is walked, following
    one-sided continuations so a generated-language difference cannot mask
    a marked-language difference.  Distinguishing strings are shortest (BFS,
    ties broken by event id); ``max_states`` bounds the product.
    """
    table_a, table_b = a.event_table(), b.event_table()
    if isinstance(a, ClosedLoop) and _same_language(a, b, table_b.ids):
        return LanguageVerdict(True, True)
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
    supervisors: Sequence[SupervisorMap], comm: CommAutomaton, *, max_states: int = MAX_STATES
) -> Verdict:
    """A supervisor set is admissible iff, along every in-spec run, each
    supervisor

    1. never disables one of its uncontrollable events, and
    2. keeps tick enabled where the exit table says ``tick_critical``.

    Both concern one supervisor at a time, so the supervisors, one per
    ``comm.net.n`` (else ValueError), are checked alone, in index order.  A
    supervisor whose observer is ``comm``'s own passes without a walk when
    no state ``t`` of it that in-spec runs reach shows a violation in its
    summary: the walk visits exactly the pairs ``(x, t)`` with the flagged
    code ``2 * x + 1`` in ``codes[t]``, and that observer moves on every
    symbol it meets.  Otherwise its observer (a copy or an edited one too)
    is walked breadth-first over the (state, observer state) pairs in-spec
    runs reach, on the supervisor's ``InSpecRows``: silent moves first,
    then observed symbols in alphabet order.  The first violating pair
    gives the witness, a shortest run reaching it, and its ``sigma`` is
    the first disabled uncontrollable event in ``event_order``.  A walked
    observer with no move on the symbol of an in-spec move raises
    ValueError.  ``max_states`` bounds each walk; a supervisor that passes
    builds none.
    """
    _check_count(comm, supervisors)
    net, tick_critical = comm.net, comm.tick_critical
    for i, sup in enumerate(supervisors):
        observer, enable = sup.observer, sup.enable
        uncontrollable = net.alphabets[i] - net.controllable[i]
        # per observer state, the first uncontrollable event it disables
        disabled = [min(uncontrollable - allowed, default=None, key=event_order) for allowed in enable]
        if comm.owns_observer(i, observer) and not any(
            reached and (bad is not None or (critical and TICK not in allowed))
            for reached, critical, bad, allowed in zip(observer.in_spec, observer.tick_critical, disabled, enable)
        ):
            continue
        rows, steps = InSpecRows(comm, i), observer.transitions
        width = observer.num_states  # the pair (x, t) has the key x * width + t
        space = PathSpace("admissibility product", max_states)
        space.add(comm.initial * width + observer.initial)
        index, add = space.index, space.add
        for k, key in enumerate(space.keys):  # space.keys grows: breadth-first
            x, t = divmod(key, width)
            if disabled[t] is not None:
                witness = Witness(tuple(space.path(k)), disabled[t], supervisor=i)
                detail = f"supervisor {i + 1} disables uncontrollable {disabled[t]!r}"
                return Verdict(Condition.ADM_UNCONTROLLABLE, False, witness, detail)
            if TICK not in enable[t] and tick_critical[x]:
                witness = Witness(tuple(space.path(k)), TICK, supervisor=i)
                detail = f"supervisor {i + 1} disables tick with no enforceable event available"
                return Verdict(Condition.ADM_TICK, False, witness, detail)
            silent, observed = rows[x]
            for event, dst in silent:
                pair = dst * width + t
                if pair not in index:
                    add(pair, k, event)
            for symbol, moves in observed.items():
                nxt = steps[t].get(symbol)
                if nxt is None:
                    raise _uncovered(i, symbol, t)
                for event, dst in moves:
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
    max_states: int = MAX_STATES,
) -> SolveReport:
    """Full pipeline: validate, build the channel-augmented automaton, decide
    the three existence conditions, and on success synthesize and verify the
    supervisor set.

    With ``diagnostic`` the supervisors are synthesized and compared even when
    a condition fails (their enable-sets carry no guarantee then).
    """
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
