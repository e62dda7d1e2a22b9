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

from array import array
from dataclasses import dataclass
from typing import ClassVar, Iterable, Optional, Sequence

from .automata import TICK, TimedAutomaton, event_order, is_nonblocking
from .comm import (
    CommAutomaton,
    CommEvent,
    EventTable,
    InSpecRows,
    Observer,
    PackedRows,
    Plant,
    SpecView,
    build_problem_automaton,
    event_key,
    observation_of,
    observation_symbols,
)
from .explore import MAX_STATES, PathSpace, StateSpace
from .network import NetworkConfig
from .verification import (
    Condition,
    Verdict,
    Witness,
    existence_checks,
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
    ids: its ``ids`` rows are shared with the automaton's at every state
    where no move is dropped, and its ``targets`` are ``PackedRows``, 4 B
    per move; ``moves`` reads one state's row as events.  ``closed_loop``
    builds this product; ``language_equal`` and ``check_admissibility``
    build no other one unless a check fails.  Compared with its own
    automaton's SpecView, the loop is read straight from ``table`` and the
    automaton's markings (``_loop_language``), and a product pair that both
    sides reach is keyed by its loop state alone.
    """

    comm: CommAutomaton
    supervisors: Sequence[SupervisorMap]
    codes: list[int]
    radix: int
    table: EventTable
    initial: ClassVar[int] = 0  # the breadth-first build numbers its start state 0

    @property
    def num_states(self) -> int:
        return len(self.codes)

    def moves(self, sid: int) -> list[tuple[CommEvent, int]]:
        """The (event, target) pairs of ``sid``, in event id order."""
        return self.table.moves(sid)

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


def check_supervisor_list(comm: CommAutomaton, supervisors: Sequence[SupervisorMap]) -> None:
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


def _step_tables(
    comm: CommAutomaton, supervisors: Sequence[SupervisorMap], weights: list[int]
) -> tuple[list[tuple[tuple, ...]], list[tuple[tuple, ...]]]:
    """Per event id, the step tables and the guards ``closed_loop`` reads.

    A step-table entry ``(weight, size, steps)`` stands for one supervisor,
    in index order, that observes the event or may disable it: ``steps[t]``
    is, at its observer state ``t``, the code delta ``(next(t) - t) *
    weight`` of the move, or None where the move cannot pass there, because
    the supervisor disables the event or its observer has no move; no other
    event has its symbol (``comm.observation_symbols``).  A guard ``(weight,
    size, enable, name)`` stands for one supervisor, in index order, that
    controls the event ``name`` and disables it somewhere."""
    net = comm.net
    symbols = [observation_symbols(comm, i) for i in range(len(supervisors))]
    steps_of, guards_of = [], []
    for e, event in enumerate(comm.table.events):
        entries, guards = [], []
        name = event.event if isinstance(event, Plant) and event.event in net.globally_controllable else None
        for i, (sup, w) in enumerate(zip(supervisors, weights)):
            symbol, size = symbols[i][e], sup.observer.num_states
            guard = name if name in net.controllable[i] and any(name not in on for on in sup.enable) else None
            if guard is not None:
                guards.append((w, size, sup.enable, guard))
            elif symbol is None:
                continue
            entries.append((w, size, [
                None if guard is not None and guard not in on or symbol is not None and symbol not in step
                else 0 if symbol is None
                else (step[symbol] - t) * w
                for t, (on, step) in enumerate(zip(sup.enable, sup.observer.transitions))
            ]))
        steps_of.append(tuple(entries))
        guards_of.append(tuple(guards))
    return steps_of, guards_of


def _first_uncovered(
    comm: CommAutomaton, supervisors: Sequence[SupervisorMap], event: CommEvent, obs: int
) -> ValueError:
    """``_uncovered`` for the lowest-index observer with no move on its
    symbol of ``event`` at its state in ``obs``, the observer part of a
    loop code: a stopped move that no supervisor disables has one."""
    for i, sup in enumerate(supervisors):
        obs, t = divmod(obs, sup.observer.num_states)
        symbol = observation_of(event, i, comm.net)
        if symbol is not None and symbol not in sup.observer.transitions[t]:
            break
    return _uncovered(i, symbol, t)


def _loop_start(
    comm: CommAutomaton, supervisors: Sequence[SupervisorMap], max_states: int
) -> tuple[int, list[tuple[tuple, ...]], list[tuple[tuple, ...]], StateSpace]:
    """The set-up of a walk over the closed loop's packed codes (see
    ``ClosedLoop``): its ``radix``, the step tables and guards of
    ``_step_tables``, and a ``"closed loop"`` StateSpace under
    ``max_states`` that holds the initial code.  Raises ValueError unless
    the supervisor list is one per ``comm.net.n``."""
    check_supervisor_list(comm, supervisors)
    weights = []
    radix = 1
    for sup in supervisors:
        weights.append(radix)
        radix *= sup.observer.num_states
    steps_of, guards_of = _step_tables(comm, supervisors, weights)
    space = StateSpace("closed loop", max_states)
    space.add(comm.initial * radix + sum(sup.observer.initial * w for sup, w in zip(supervisors, weights)))
    return radix, steps_of, guards_of, space


def closed_loop(
    comm: CommAutomaton, supervisors: Sequence[SupervisorMap], *, max_states: int = MAX_STATES
) -> ClosedLoop:
    """Build the controlled behavior under a supervisor set, breadth-first
    over packed state codes (see ``ClosedLoop``); ``max_states`` bounds it.

    A move adds the deltas of its event's step tables (``_step_tables``) to
    the code and stops at the first None.  Only a stopped move reads its
    event's guards: it is dropped when some supervisor disables the event
    there, whatever its index; otherwise ValueError names the lowest-index
    observer with no move for a symbol its supervisor observes."""
    table = comm.table
    ids, targets = table.ids, table.targets
    radix, steps_of, guards_of, space = _loop_start(comm, supervisors, max_states)
    # per automaton state, built on first visit: (event id, target code
    # with every observer at 0, step tables) for each of its moves
    moves: list[Optional[tuple]] = [None] * comm.num_states
    lookup, add, codes = space.index.get, space.add, space.keys
    loop_ids: list[tuple[int, ...]] = []
    # each move's target appended straight to one array, so no id int
    # outlives the index; ends[s + 1] closes row s
    flat, ends = array("i"), array("i", [0])
    put, close = flat.append, ends.append
    for code in codes:  # codes grows while it is walked: breadth-first
        x, obs = divmod(code, radix)
        here = moves[x]
        if here is None:
            here = moves[x] = tuple(
                (e, dst * radix, steps_of[e]) for e, dst in zip(ids[x], targets[x])
            )
        blocked: tuple[int, ...] = ()
        for e, key, entries in here:
            key += obs
            for w, size, steps in entries:
                step = steps[obs // w % size]
                if step is None:
                    break
                key += step
            else:
                tid = lookup(key)
                put(add(key) if tid is None else tid)
                continue
            # a stopped move: dropped if any supervisor disables it here
            if not any(name not in enable[obs // w % size] for w, size, enable, name in guards_of[e]):
                raise _first_uncovered(comm, supervisors, table.events[e], obs)
            blocked += (e,)
        # the row is shared with the automaton unless a move is blocked
        loop_ids.append(tuple(e for e in ids[x] if e not in blocked) if blocked else ids[x])
        close(len(flat))
    return ClosedLoop(comm, list(supervisors), codes, radix, EventTable(table.events, loop_ids, PackedRows(flat, ends)))


@dataclass(frozen=True, kw_only=True)
class LanguageVerdict:
    """Outcome of an exact two-automaton language comparison: a language is
    equal on both sides exactly when no string distinguishes it."""

    diff_generated: Optional[tuple[CommEvent, ...]] = None
    diff_marked: Optional[tuple[CommEvent, ...]] = None

    @property
    def generated_equal(self) -> bool:
        return self.diff_generated is None

    @property
    def marked_equal(self) -> bool:
        return self.diff_marked is None

    @property
    def equal(self) -> bool:
        return self.generated_equal and self.marked_equal


def _loop_language(loop: ClosedLoop, max_states: int) -> LanguageVerdict:
    """``language_equal`` of ``loop`` and its own automaton's SpecView.

    Every string to a loop state ``s`` leads the SpecView, if anywhere, to
    the automaton state ``x`` the loop is in, so one pass decides equality:
    at every loop state the loop's row and marking must equal the
    SpecView's at ``x``.  Otherwise the product is walked as
    ``language_equal`` walks it, in the same order under the same budget.
    A pair defined on both sides is ``(s, x)``, so with ``L`` loop states
    it is keyed ``s``; a pair defined on the loop's side alone is keyed
    ``L + s``, and one on the SpecView's side alone ``2L + x``.  The loop's
    targets are read from its packed rows, the markings from the
    automaton's arrays."""
    comm = loop.comm
    ids, targets, in_spec = comm.table.ids, comm.table.targets, comm.in_spec
    marked, spec_marked = comm.marked, comm.spec_marked
    # the SpecView's rows: the automaton's moves that stay in the specification
    spec_ids = [tuple([e for e, t in zip(row, dsts) if in_spec[t]]) for row, dsts in zip(ids, targets)]
    radix, loop_ids = loop.radix, loop.table.ids
    for row, code in zip(loop_ids, loop.codes):
        x = code // radix
        if row != spec_ids[x] or spec_marked[x] != marked[x]:
            break
    else:
        return LanguageVerdict()
    flat, ends = loop.table.targets.flat, loop.table.targets.ends
    comm_state = [code // radix for code in loop.codes]
    loop_only = len(comm_state)  # the key offsets of the one-sided pairs
    spec_only = 2 * loop_only
    space = PathSpace("language comparison product", max_states)
    space.add(0)
    index, add = space.index, space.add
    diff_generated: Optional[tuple[int, int]] = None  # (pair, event id)
    diff_marked: Optional[int] = None  # pair
    for k, key in enumerate(space.keys):  # space.keys grows: breadth-first
        if key >= spec_only:
            x = key - spec_only
            if diff_marked is None and spec_marked[x]:
                diff_marked = k
            for e, t in zip(ids[x], targets[x]):
                if in_spec[t] and spec_only + t not in index:
                    add(spec_only + t, k, e)
        elif key >= loop_only:
            s = key - loop_only
            if diff_marked is None and marked[comm_state[s]]:
                diff_marked = k
            for e, ta in zip(loop_ids[s], flat[ends[s]:ends[s + 1]]):
                if loop_only + ta not in index:
                    add(loop_only + ta, k, e)
        else:
            x = comm_state[key]
            if diff_marked is None and marked[x] != spec_marked[x]:
                diff_marked = k
            row, dsts = loop_ids[key], flat[ends[key]:ends[key + 1]]
            if row == spec_ids[x]:
                moves: Iterable[tuple[int, int]] = zip(row, dsts)
            else:
                # both rows are parts of the automaton's row: walking it in
                # id order merges them
                to_loop = dict(zip(row, dsts))
                moves = []
                for e, t in zip(ids[x], targets[x]):
                    ta = to_loop.get(e)
                    if ta is not None:
                        moves.append((e, ta if in_spec[t] else loop_only + ta))
                    elif in_spec[t]:
                        moves.append((e, spec_only + t))
                if diff_generated is None:
                    # one-sided definedness seen from a common prefix
                    diff_generated = next((k, e) for e, pair in moves if pair >= loop_only)
            for e, pair in moves:
                if pair not in index:
                    add(pair, k, e)
        if diff_generated is not None and diff_marked is not None:
            break
    events = loop.table.events
    return LanguageVerdict(
        diff_generated=None if diff_generated is None
        else tuple(events[e] for e in space.path(diff_generated[0]) + [diff_generated[1]]),
        diff_marked=None if diff_marked is None else tuple(events[e] for e in space.path(diff_marked)),
    )


def language_equal(a, b, *, max_states: int = MAX_STATES) -> LanguageVerdict:
    """Exact equality of generated and marked languages of two deterministic
    structures over channel-augmented events, each read through
    ``initial``, ``moves`` and ``is_marked``: a CommAutomaton, its SpecView
    or a ClosedLoop.

    The synchronized product is walked, following one-sided continuations
    so a generated-language difference cannot mask a marked-language
    difference.  A pair is ``(sa, sb)``, with None for a side that has left
    its language, and its two rows are merged in ``event_key`` order, the
    id order of an event table, so an empty row merges as the other one.
    Distinguishing strings are shortest (BFS, ties broken by
    ``event_key``); ``max_states`` bounds the product.  A ClosedLoop ``a``
    compared with its own automaton's SpecView, the pair ``solve``
    compares, goes to ``_loop_language``: one pass over the loop, which
    builds nothing when the languages are equal, and otherwise the same
    walk on the loop's packed rows.
    """
    if isinstance(a, ClosedLoop) and isinstance(b, SpecView) and b.comm is a.comm:
        return _loop_language(a, max_states)
    space = PathSpace("language comparison product", max_states)
    space.add((a.initial, b.initial))
    index = space.index
    diff_generated: Optional[tuple[CommEvent, ...]] = None
    diff_marked: Optional[tuple[CommEvent, ...]] = None
    for k, (sa, sb) in enumerate(space.keys):  # space.keys grows: breadth-first
        if diff_marked is None and (sa is not None and a.is_marked(sa)) != (sb is not None and b.is_marked(sb)):
            diff_marked = tuple(space.path(k))
        to_a = {} if sa is None else dict(a.moves(sa))
        to_b = {} if sb is None else dict(b.moves(sb))
        if diff_generated is None and to_a.keys() != to_b.keys():
            # one-sided definedness seen from a common prefix (a pair with
            # a None side comes after the first one)
            diff_generated = (*space.path(k), min(to_a.keys() ^ to_b.keys(), key=event_key))
        for e in sorted(to_a.keys() | to_b.keys(), key=event_key):
            pair = (to_a.get(e), to_b.get(e))
            if pair not in index:
                space.add(pair, k, e)
        if diff_generated is not None and diff_marked is not None:
            break
    return LanguageVerdict(diff_generated=diff_generated, diff_marked=diff_marked)


def exact_loop_states(
    comm: CommAutomaton, supervisors: Sequence[SupervisorMap], *, max_states: int = MAX_STATES
) -> Optional[int]:
    """The closed loop's number of states if it generates and marks exactly
    the languages of ``comm``'s SpecView, else None; no move is stored.

    One breadth-first pass over the loop's packed codes, the states
    ``closed_loop`` builds in the same order under the same budget, runs
    ``_loop_language``'s one-pass test at each loop state over automaton
    state ``x``: the moves it drops must be exactly ``x``'s moves that leave
    the specification, and ``marked[x]`` must equal ``spec_marked[x]``.
    Every string to a loop state leads the SpecView, if anywhere, to ``x``,
    so the test holds at every loop state exactly when the languages are
    equal.  The pass stops with None at the first state that differs; up
    to there it raises what ``closed_loop`` raises."""
    table = comm.table
    ids, targets, in_spec = table.ids, table.targets, comm.in_spec
    marked, spec_marked = comm.marked, comm.spec_marked
    radix, steps_of, guards_of, space = _loop_start(comm, supervisors, max_states)
    # per automaton state, built on first visit: (event id, target code
    # with every observer at 0, step tables, whether the move stays in the
    # specification) for each of its moves
    moves: list[Optional[tuple]] = [None] * comm.num_states
    index, add, codes = space.index, space.add, space.keys
    for code in codes:  # codes grows while it is walked: breadth-first
        x, obs = divmod(code, radix)
        here = moves[x]
        if here is None:
            if marked[x] != spec_marked[x]:
                return None
            here = moves[x] = tuple(
                (e, dst * radix, steps_of[e], in_spec[dst]) for e, dst in zip(ids[x], targets[x])
            )
        for e, key, entries, stays in here:
            key += obs
            for w, size, steps in entries:
                step = steps[obs // w % size]
                if step is None:
                    break
                key += step
            else:
                if not stays:
                    return None
                if key not in index:
                    add(key)
                continue
            if stays:
                return None
            if not any(name not in enable[obs // w % size] for w, size, enable, name in guards_of[e]):
                raise _first_uncovered(comm, supervisors, table.events[e], obs)
    return len(codes)


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
    then the one move of each observed symbol in alphabet order.  The
    first violating pair gives the witness, a shortest run reaching it,
    and its ``sigma`` is the first disabled uncontrollable event in
    ``event_order``.  A walked observer with no move on the symbol of an
    in-spec move raises ValueError.  ``max_states`` bounds each walk; a
    supervisor that passes builds none.
    """
    check_supervisor_list(comm, supervisors)
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
                return Verdict(Condition.ADM_UNCONTROLLABLE, witness=witness, detail=detail)
            if TICK not in enable[t] and tick_critical[x]:
                witness = Witness(tuple(space.path(k)), TICK, supervisor=i)
                detail = f"supervisor {i + 1} disables tick with no enforceable event available"
                return Verdict(Condition.ADM_TICK, witness=witness, detail=detail)
            silent, observed = rows[x]
            for event, dst in silent:
                pair = dst * width + t
                if pair not in index:
                    add(pair, k, event)
            for symbol, (event, dst) in observed.items():
                nxt = steps[t].get(symbol)
                if nxt is None:
                    raise _uncovered(i, symbol, t)
                pair = dst * width + nxt
                if pair not in index:
                    add(pair, k, event)
    return Verdict(Condition.ADM_UNCONTROLLABLE)


def spec_nonblocking(comm: CommAutomaton) -> bool:
    """True iff every state of the specification restriction can reach a
    specification-marked state inside the restriction: for perfbench's
    traced runs; ``SolveReport.nonblocking`` reads the verdicts."""
    return is_nonblocking(comm.spec_view())


def decide(
    plant: TimedAutomaton, spec: TimedAutomaton, net: NetworkConfig, *, max_states: int = MAX_STATES
) -> tuple[CommAutomaton, tuple[Verdict, ...]]:
    """Decide the nonblocking control problem: a closed loop that marks
    exactly ``K``, the specification's marked language, and generates its
    prefixes.  Returns the automaton ``comm.build_problem_automaton`` builds
    and its ``existence_checks`` (``max_states`` bounds each construction).
    An empty ``K``, where no ``spec_tree`` state is ``spec_marked``, adds a
    failed ``Condition.NONBLOCKING``, whose witness is the empty string: it
    is in every closed loop's language."""
    comm = build_problem_automaton(plant, spec, net, max_states=max_states)
    checks = existence_checks(comm, max_states=max_states)
    if not any(comm.spec_marked[sid] for sid in comm.spec_tree.keys):
        detail = "the specification marks no string reachable from its initial state"
        checks += (Verdict(Condition.NONBLOCKING, witness=Witness(mu=()), detail=detail),)
    return comm, checks


@dataclass
class SolveReport:
    """Everything the full pipeline produced: the existence verdicts of
    ``decide``, and (when solvable, or on request for diagnosis) the
    synthesized supervisors with their admissibility and exact closed-loop
    comparison.  The loop is not kept: ``closed_loop(report.comm,
    report.supervisors)`` builds it for a caller that walks it."""

    checks: tuple[Verdict, ...]
    sizes: dict[str, int]
    comm: CommAutomaton
    supervisors: Optional[list[SupervisorMap]] = None
    admissibility: Optional[Verdict] = None
    language: Optional[LanguageVerdict] = None

    @property
    def diagnostic(self) -> bool:
        """Synthesized although a verdict fails: the enable-sets carry no guarantee."""
        return self.supervisors is not None and not self.solvable

    @property
    def nonblocking(self) -> bool:
        """``K`` is not empty, so the trimmed specification is nonblocking:
        no ``Condition.NONBLOCKING`` verdict in ``checks`` fails."""
        return not any(v.condition is Condition.NONBLOCKING and not v.holds for v in self.checks)

    @property
    def solvable(self) -> bool:
        """Every existence verdict holds."""
        return all(v.holds for v in self.checks)

    @property
    def verified(self) -> bool:
        """Solvable and every post-synthesis check confirmed."""
        return self.solvable and self.supervisors is not None and self.admissibility.holds and self.language.equal


def solve_control_problem(
    plant: TimedAutomaton,
    spec: TimedAutomaton,
    net: NetworkConfig,
    *,
    diagnostic: bool = False,
    max_states: int = MAX_STATES,
) -> SolveReport:
    """Full pipeline: ``decide``, and on success synthesize and verify the
    supervisor set on the automaton it built.

    With ``diagnostic`` the supervisors are synthesized and compared even when
    a condition fails (their enable-sets carry no guarantee then).

    A solvable problem's set is verified by ``exact_loop_states``, one pass
    over the closed loop that stores no moves and gives the verdict,
    ``closed_loop_states`` and budget error that building the loop would.
    Where it finds a state that differs, and for an unsolvable problem's
    set, which it would not pass, the loop is built, compared with
    ``language_equal`` for the distinguishing strings, and dropped.
    """
    comm, checks = decide(plant, spec, net, max_states=max_states)
    sizes = {"comm_states": comm.num_states, "spec_states": len(comm.spec_tree.keys)}
    report = SolveReport(checks, sizes, comm)
    if report.solvable or diagnostic:
        supervisors = [
            synthesize_supervisor(comm, i, max_states=max_states) for i in range(net.n)
        ]
        states = exact_loop_states(comm, supervisors, max_states=max_states) if report.solvable else None
        loop = None if states is not None else closed_loop(comm, supervisors, max_states=max_states)
        report.supervisors = supervisors
        report.admissibility = check_admissibility(supervisors, comm, max_states=max_states)
        report.language = (
            LanguageVerdict() if loop is None
            else language_equal(loop, comm.spec_view(), max_states=max_states)
        )
        for i, sup in enumerate(supervisors):
            sizes[f"observer_{i + 1}_states"] = sup.observer.num_states
        sizes["closed_loop_states"] = states if loop is None else loop.num_states
    return report
