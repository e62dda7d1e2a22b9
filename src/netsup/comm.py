"""The channel-augmented automaton: plant states paired with channel queues.

States are pairs (plant state, channel state).  Besides the plant's own
events, the automaton moves on delivery events (the receiving supervisor sees
a queued event) and loss events (a lossy queued entry silently disappears).
Both leave the plant component untouched.  Every channel update is one of
the per-queue operators of ``channels`` (``age`` for tick, ``enqueue`` for a
carried plant event, ``pop`` for a delivery, ``drops`` for a loss), applied
to the queue it changes.

Exploration order is fixed -- tick, plant events lexicographically, deliveries
by channel, losses by (channel, position) -- so state numbering is
reproducible across runs.

Each supervisor's observer, the subset construction over what it observes of
the automaton, is built here too and cached on the automaton, so the
joint-observability check and synthesis share it.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, Optional

from . import channels as ch
from .automata import TICK, TimedAutomaton, follow, prepare
from .channels import ChannelQueue, ChannelState
from .explore import MAX_STATES, PathSpace, StateSpace, budget_error, closure
from .network import ChannelLink, NetworkConfig


class Plant(NamedTuple):
    """A plant event occurring in the system (tick included).

    Events are named tuples, so hashing and equality run in C; like any
    tuple, an event equals a plain tuple with the same fields.
    """

    event: str


class Deliver(NamedTuple):
    """Channel (sender, receiver) hands its front event to the receiver.

    Equals a plain tuple with the same fields, like every event.
    """

    sender: int
    receiver: int
    event: str


class Lose(NamedTuple):
    """The ``position``-th entry (1-based) of channel (sender, receiver) is lost.

    Equals a plain tuple with the same fields, like every event.
    """

    sender: int
    receiver: int
    position: int


# A PEP 604 union: typing.Union caches its arguments, which would pin every
# imported copy of this module (and all it references) for good.
CommEvent = Plant | Deliver | Lose

PLANT_TICK = Plant(TICK)


def event_key(event: CommEvent) -> tuple:
    """Total order over channel-automaton events; matches exploration order:
    tick, plant events lexicographically, deliveries, losses."""
    if isinstance(event, Plant):
        return (0, "") if event.event == TICK else (1, event.event)
    if isinstance(event, Deliver):
        return (2, event.sender, event.receiver, event.event)
    return (3, event.sender, event.receiver, event.position)


def render_event(event: CommEvent) -> str:
    """Human-readable event names; channel indices are 1-based as in files,
    with a comma between them where either has two digits: f1,11 vs f11,1."""
    if isinstance(event, Plant):
        return event.event
    i, j = event.sender + 1, event.receiver + 1
    link = f"{i}{j}" if i < 10 and j < 10 else f"{i},{j}"
    if isinstance(event, Deliver):
        return f"f{link}({event.event})"
    return f"g{link}({event.position})"


@dataclass
class CommAutomaton:
    """Deterministic, accessible automaton over plant/delivery/loss events.

    Parallel arrays indexed by dense state id (discovery order):
    ``keys`` holds the (plant state, channel state) pair, ``in_spec`` whether
    the plant component survives in the specification subautomaton,
    ``marked`` / ``spec_marked`` the plant-level markings.  ``spec_tree`` is
    the breadth-first walk through in_spec states only, keyed by state id:
    its keys are the states of the specification's channel-augmented
    automaton, and ``spec_path`` reads its links.  ``exits`` / ``stays`` hold the
    exit table: the plant event names (tick included) whose move from the
    state leaves the specification, and those whose move stays inside it;
    ``tick_critical``, whether tick is possible there and no enforceable
    event's move stays inside to preempt it.  The other checks read the
    table through each observer's summary (see ``Observer``).

    ``table`` is the one store of the moves (see ``EventTable``).  Each
    supervisor's observer is built on first use and cached; ``transitions``,
    a by-event dict per state for lookups by event, is derived from the
    table on first use.
    """

    net: NetworkConfig
    keys: list[tuple[str, ChannelState]]
    table: "EventTable"
    in_spec: list[bool]
    marked: list[bool]
    spec_marked: list[bool]
    exits: list[frozenset[str]]
    stays: list[frozenset[str]]
    tick_critical: list[bool]
    spec_tree: PathSpace = field(repr=False, compare=False)
    initial: int = 0
    _observers: dict[int, "Observer"] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __getstate__(self) -> dict:
        # a copy (a deep one included) builds its own observers
        return {**self.__dict__, "_observers": {}}

    # -- basic accessors -------------------------------------------------
    @property
    def num_states(self) -> int:
        return len(self.keys)

    def plant_of(self, sid: int) -> str:
        return self.keys[sid][0]

    def channels_of(self, sid: int) -> ChannelState:
        return self.keys[sid][1]

    def moves(self, sid: int) -> list[tuple[CommEvent, int]]:
        """The (event, target) pairs of ``sid``, in event id order."""
        return self.table.moves(sid)

    @cached_property
    def transitions(self) -> list[dict[CommEvent, int]]:
        """Per state, its moves as a dict from event to target, derived from
        the table on first use: for the lookups by event of ``target``,
        ``run`` and ``string_in_spec``, and of the string-level oracle."""
        return [dict(self.table.moves(sid)) for sid in range(self.num_states)]

    def target(self, sid: int, event: CommEvent) -> Optional[int]:
        return self.transitions[sid].get(event)

    def is_marked(self, sid: int) -> bool:
        return self.marked[sid]

    @property
    def spec_reachable(self) -> list[bool]:
        """Per state, whether it is in ``spec_tree``: for perfbench's traced runs."""
        return [sid in self.spec_tree.index for sid in range(self.num_states)]

    def render_state(self, sid: int) -> str:
        plant, chans = self.keys[sid]
        suffix = ch.render_state(chans)
        return f"({plant},{suffix})" if suffix else f"({plant})"

    def observer(self, i: int, max_states: int = MAX_STATES) -> "Observer":
        """Supervisor ``i``'s observer, built on first use and cached; every
        caller gets the same object, which must not change.  A cached
        observer with more than ``max_states`` states raises the
        ResourceLimitError a fresh build would; a build that breaks its
        budget caches nothing."""
        observer = self._observers.get(i)
        if observer is None:
            observer = self._observers[i] = build_observer(self, i, max_states=max_states)
        elif observer.num_states > max_states:
            raise budget_error(_observer_stage(i), max_states)
        return observer

    def owns_observer(self, i: int, observer: "Observer") -> bool:
        """True when ``observer`` is the one ``observer(i)`` built and
        cached, so its codes and transitions are the subset construction
        over this automaton."""
        return self._observers.get(i) is observer

    def spec_view(self) -> "SpecView":
        return SpecView(self)

    def run(self, string: Iterable[CommEvent]) -> Optional[int]:
        return follow(self.transitions, self.initial, string)

    def string_in_spec(self, string: Iterable[CommEvent]) -> bool:
        """True iff the string stays within in_spec states throughout."""
        sid = self.initial
        if not self.in_spec[sid]:
            return False
        for event in string:
            nxt = self.transitions[sid].get(event)
            if nxt is None or not self.in_spec[nxt]:
                return False
            sid = nxt
        return True

    def spec_path(self, sid: int) -> tuple[CommEvent, ...]:
        """A shortest string to ``sid`` through in_spec states only, ties
        broken by exploration order; ``sid`` must be in ``spec_tree``."""
        return tuple(self.spec_tree.path(self.spec_tree.index[sid]))


@dataclass
class SpecView:
    """The specification's channel-augmented automaton, as a read-only
    restriction of the full one (in_spec states, induced transitions,
    specification marking)."""

    comm: CommAutomaton

    @property
    def initial(self) -> int:
        return self.comm.initial

    def moves(self, sid: int) -> list[tuple[CommEvent, int]]:
        """The automaton's moves of ``sid`` that stay in the specification."""
        in_spec = self.comm.in_spec
        return [(e, t) for e, t in self.comm.table.moves(sid) if in_spec[t]]

    def is_marked(self, sid: int) -> bool:
        return self.comm.spec_marked[sid]

    @cached_property
    def table(self) -> "EventTable":
        """The automaton's event table without the moves that leave the
        specification, built on first use."""
        table = self.comm.table
        in_spec = self.comm.in_spec
        return EventTable(
            table.events,
            [tuple(e for e, t in zip(row, dsts) if in_spec[t]) for row, dsts in zip(table.ids, table.targets)],
            [tuple(t for t in dsts if in_spec[t]) for dsts in table.targets],
        )


@dataclass(frozen=True)
class PackedRows(Sequence):
    """Rows of ints packed into two ``array("i")``, 4 B per entry and no
    object per row: row ``s`` is ``flat[ends[s]:ends[s + 1]]``, and
    ``ends`` starts with a 0.  Read-only: ``len`` is the row count,
    ``[s]`` copies row ``s`` out as an array, and rows packed into equal
    arrays compare equal."""

    flat: array
    ends: array

    def __len__(self) -> int:
        return len(self.ends) - 1

    def __getitem__(self, s: int) -> array:
        if s < 0:
            s = range(len(self))[s]  # IndexError before the first row
        ends = self.ends
        return self.flat[ends[s]:ends[s + 1]]


@dataclass(frozen=True)
class EventTable:
    """Moves over dense event ids: the one move store of a
    ``CommAutomaton``, and the moves of a closed loop and of a
    specification restriction, which share their automaton's ``events``.

    ``events[k]`` is the event with id ``k``.  Ids follow ``event_key``, the
    order in which ``build_comm_automaton`` writes each state's moves, so
    ``ids[s]`` and ``targets[s]`` list the moves of state ``s`` in id order,
    which is exploration order: a walk by id breaks BFS ties as the build
    does.  The automaton and its restriction keep one tuple per row; a
    closed loop, far larger, packs its targets into ``PackedRows``, 4 B per
    move, and shares its ``ids`` rows with its automaton's.
    """

    events: tuple[CommEvent, ...]
    ids: list[tuple[int, ...]]
    targets: Sequence[Sequence[int]]

    def moves(self, sid: int) -> list[tuple[CommEvent, int]]:
        """The (event, target) pairs of ``sid``, in event id order."""
        events = self.events
        return [(events[e], t) for e, t in zip(self.ids[sid], self.targets[sid])]


Move = tuple[CommEvent, int]  # (event, target state)


def build_event_table(rows: list[list[Move]]) -> EventTable:
    """Number the events of ``rows``, one list of moves per state, in
    ``event_key`` order and read each row as it stands: every row must
    already be in that order, as ``build_comm_automaton`` writes them."""
    events = tuple(sorted({event for row in rows for event, _ in row}, key=event_key))
    index = {event: k for k, event in enumerate(events)}
    return EventTable(
        events,
        [tuple([index[event] for event, _ in row]) for row in rows],
        [tuple([dst for _, dst in row]) for row in rows],
    )


class _QueueMoves(dict):
    """Per queue of one channel (sender, receiver), computed on its first
    lookup in one build: the queue one tick later (None where the channel
    blocks tick), its delivery as an (event, rest) pair (None when empty)
    and its losses as (event, rest) pairs by position."""

    __slots__ = ("sender", "receiver", "link")

    def __init__(self, sender: int, receiver: int, link: ChannelLink) -> None:
        self.sender, self.receiver, self.link = sender, receiver, link

    def __missing__(self, queue: ChannelQueue) -> tuple:
        i, j = self.sender, self.receiver
        popped = ch.pop(queue)
        delivery = None if popped is None else (Deliver(i, j, popped[0]), popped[1])
        losses = tuple((Lose(i, j, d), rest) for d, rest in ch.drops(queue, self.link.lossy))
        self[queue] = moves = (ch.age(queue, self.link.delay_bound), delivery, losses)
        return moves


def build_comm_automaton(
    plant: TimedAutomaton,
    spec: TimedAutomaton,
    net: NetworkConfig,
    *,
    max_states: int = MAX_STATES,
) -> CommAutomaton:
    """Breadth-first construction of the channel-augmented automaton.

    The problem first passes ``automata.prepare``, the one gate to a
    validated problem (ModelError otherwise).  With no cycle of non-tick
    events, at most L <= |plant states| - 1 plant events fire between two
    ticks, so no channel queue holds more than (delay_bound + 1) * L entries
    and the construction is finite.

    The queue calculus runs once per distinct queue of each channel (see
    ``_QueueMoves``), and each plant state's moves are read once, so a
    successor key rebuilds only the queues that change.
    """
    plant, spec = prepare(plant, spec, net)
    return _build_prepared(plant, spec, net, max_states=max_states)


def _build_prepared(
    plant: TimedAutomaton, spec: TimedAutomaton, net: NetworkConfig, *, max_states: int
) -> CommAutomaton:
    """``build_comm_automaton`` of a problem ``prepare`` returned: for
    ``synthesis.decide``, which trims the specification in between."""
    spec_states = set(spec.states)
    spec_marked_states = set(spec.marked)

    space = StateSpace("channel-augmented automaton", max_states)
    space.add((plant.initial, ((),) * len(net.channel_keys)))
    keys, index = space.keys, space.index
    rows: list[list[Move]] = []
    # a state's exit table depends only on its plant state and on whether
    # the channels let tick pass, so each plant state is split both ways once
    splits: dict[tuple[str, bool], tuple[frozenset[str], frozenset[str], bool]] = {}
    for q in plant.states:
        for tick in (False, True):
            moves = [(e, dst) for e, dst in plant.moves(q) if tick or e != TICK]
            staying = frozenset(e for e, dst in moves if dst in spec_states)
            splits[q, tick] = (
                frozenset(e for e, dst in moves if dst not in spec_states),
                staying,
                tick and plant.target(q, TICK) is not None and staying.isdisjoint(net.enforceable),
            )
    # per plant state: its tick target and its other moves, each with the
    # channels that carry its event and the one-entry queue a push appends
    links = [net.channels[key] for key in net.channel_keys]
    plant_rows = {
        q: (plant.target(q, TICK), [
            (Plant(e), dst, ch.enqueue((), e), [k for k, link in enumerate(links) if e in link.events])
            for e, dst in plant.moves(q) if e != TICK
        ])
        for q in plant.states
    }
    queue_moves = [_QueueMoves(i, j, link) for (i, j), link in zip(net.channel_keys, links)]
    exits: list[frozenset[str]] = []
    stays: list[frozenset[str]] = []
    tick_critical: list[bool] = []

    def intern(key: tuple[str, ChannelState]) -> int:
        sid = index.get(key)
        return space.add(key) if sid is None else sid

    for q, theta in keys:  # keys grows while it is walked: breadth-first
        here: list[Move] = []
        rows.append(here)
        per_queue = [memo[queue] for memo, queue in zip(queue_moves, theta)]
        # tick: plant and every channel must both allow it
        tick_target, plant_moves = plant_rows[q]
        aged = None
        if tick_target is not None:
            aged = tuple([queue for queue, _, _ in per_queue])
            if None in aged:
                aged = None
            else:
                here.append((PLANT_TICK, intern((tick_target, aged))))
        # plant events, lexicographic; only the channels that carry one change
        for event, dst, entry, carriers in plant_moves:
            if carriers:
                pushed = list(theta)
                for k in carriers:
                    pushed[k] += entry
                here.append((event, intern((dst, tuple(pushed)))))
            else:
                here.append((event, intern((dst, theta))))
        # deliveries: at most the front entry of each channel
        for k, (_, delivery, _) in enumerate(per_queue):
            if delivery is not None:
                event, rest = delivery
                here.append((event, intern((q, theta[:k] + (rest,) + theta[k + 1:]))))
        # losses: every lossy position of each channel
        for k, (_, _, losses) in enumerate(per_queue):
            for event, rest in losses:
                here.append((event, intern((q, theta[:k] + (rest,) + theta[k + 1:]))))
        leaving, staying, critical = splits[q, aged is not None]
        exits.append(leaving)
        stays.append(staying)
        tick_critical.append(critical)

    in_spec = [k[0] in spec_states for k in keys]
    marked = [k[0] in plant.marked for k in keys]
    spec_marked = [k[0] in spec_marked_states for k in keys]

    # the specification shares the plant's initial state, so the walk starts at 0
    spec_tree = PathSpace("specification restriction", max_states)
    spec_tree.add(0)
    for tid, sid in enumerate(spec_tree.keys):
        for event, dst in rows[sid]:
            if in_spec[dst] and dst not in spec_tree.index:
                spec_tree.add(dst, tid, event)

    return CommAutomaton(
        net=net,
        keys=keys,
        table=build_event_table(rows),
        in_spec=in_spec,
        marked=marked,
        spec_marked=spec_marked,
        exits=exits,
        stays=stays,
        tick_critical=tick_critical,
        spec_tree=spec_tree,
    )


def project_observation(string: Iterable[CommEvent], i: int, net: NetworkConfig) -> tuple[str, ...]:
    """What supervisor ``i`` observes of a run: its own observable plant
    events as they happen, plus each event delivered to it over a channel."""
    out: list[str] = []
    for e in string:
        if isinstance(e, Plant):
            if e.event in net.observable[i]:
                out.append(e.event)
        elif isinstance(e, Deliver) and e.receiver == i:
            out.append(e.event)
    return tuple(out)


def observation_of(event: CommEvent, i: int, net: NetworkConfig) -> Optional[str]:
    """Per-event form of project_observation; None for unobserved events."""
    seen = project_observation((event,), i, net)
    return seen[0] if seen else None


def observation_symbols(comm: CommAutomaton, i: int) -> list[Optional[str]]:
    """``observation_of`` for supervisor ``i`` per event id of ``comm``'s
    event table; no symbol but None occurs twice.  The rules
    ``NetworkConfig.validate`` enforces (``automata.prepare`` runs it) make
    each the symbol of one event: alphabets share only tick, tick is never
    sent, and a channel carries only events its sender observes."""
    return [observation_of(event, i, comm.net) for event in comm.table.events]


class InSpecRows(dict):
    """Per state id, read off the event table on its first lookup for one
    supervisor: the state's moves into in_spec states, as its silent moves
    and a dict from each observed symbol to its one move (see
    ``observation_symbols``) in ``net.observation_alphabet`` order.  Each
    witness walk reads its own, so only the rows it visits are built."""

    __slots__ = ("events", "ids", "targets", "in_spec", "symbols", "rank")

    def __init__(self, comm: CommAutomaton, supervisor: int) -> None:
        table = comm.table
        self.events, self.ids, self.targets, self.in_spec = table.events, table.ids, table.targets, comm.in_spec
        self.symbols = observation_symbols(comm, supervisor)
        self.rank = {symbol: k for k, symbol in enumerate(comm.net.observation_alphabet(supervisor))}

    def __missing__(self, sid: int) -> tuple[tuple[Move, ...], dict[str, Move]]:
        events, symbols, in_spec = self.events, self.symbols, self.in_spec
        silent: list[Move] = []
        observed: dict[str, Move] = {}
        for e, dst in zip(self.ids[sid], self.targets[sid]):
            if in_spec[dst]:
                symbol = symbols[e]
                if symbol is None:
                    silent.append((events[e], dst))
                else:
                    observed[symbol] = (events[e], dst)
        self[sid] = row = (tuple(silent), {s: observed[s] for s in sorted(observed, key=self.rank.__getitem__)})
        return row


@dataclass
class Observer:
    """Deterministic observer for one supervisor.

    ``codes[t]`` is the set of elements compatible with the observation
    string leading to observer state ``t``; an element is a state id ``x``
    and whether its run stayed in spec, coded as the int ``2 * x + flag``,
    so codes sort as their (state, flag) pairs do.  The other lists
    summarize the automaton's exit table over its flagged elements (states
    that in-spec runs reach): whether it has one, the unions of their
    ``exits`` / ``stays``, and whether one is ``tick_critical``.
    """

    obs_alphabet: tuple[str, ...]
    codes: list[frozenset[int]]
    transitions: list[dict[str, int]]
    in_spec: list[bool]
    exits: list[frozenset[str]]
    stays: list[frozenset[str]]
    tick_critical: list[bool]
    initial: int = 0

    @property
    def num_states(self) -> int:
        return len(self.codes)

    def run(self, symbols: Iterable[str]) -> Optional[int]:
        return follow(self.transitions, self.initial, symbols)


def _observer_stage(supervisor: int) -> str:
    return f"observer for supervisor {supervisor + 1}"


class _ElementRows(dict):
    """Per observer element code, read off the event table on its first
    lookup for one supervisor: the code's silent successor codes.  The same
    lookup stores its (observed symbol, successor code) pairs, one per
    symbol, in ``observed``.  A successor keeps the flag only while it is in_spec."""

    __slots__ = ("ids", "targets", "flags", "symbols", "observed")

    def __init__(self, comm: CommAutomaton, supervisor: int) -> None:
        table = comm.table
        self.ids, self.targets, self.flags = table.ids, table.targets, comm.in_spec
        self.symbols = observation_symbols(comm, supervisor)
        self.observed: dict[int, tuple[tuple[str, int], ...]] = {}

    def __missing__(self, code: int) -> tuple[int, ...]:
        sid, flag = code >> 1, code & 1
        symbols, flags = self.symbols, self.flags
        quiet: list[int] = []
        moved: list[tuple[str, int]] = []
        for e, dst in zip(self.ids[sid], self.targets[sid]):
            symbol = symbols[e]
            if symbol is None:
                quiet.append(2 * dst + (flag & flags[dst]))
            else:
                moved.append((symbol, 2 * dst + (flag & flags[dst])))
        self.observed[code] = tuple(moved)
        self[code] = row = tuple(quiet)
        return row


def build_observer(
    comm: CommAutomaton, supervisor: int, *, max_states: int = MAX_STATES
) -> Observer:
    """Subset construction over one supervisor's observation mapping.

    Unobserved moves are closed over silently; an element's flag survives a
    move only while the run stays within in_spec states.  Each element
    code's successors are read off the event table when the code is first
    visited: its silent successor codes, and per observed symbol the one
    code it moves to.  The pass over a state's codes that buckets their
    moves also summarizes its flagged elements (see ``Observer``).
    """
    obs_alphabet = comm.net.observation_alphabet(supervisor)
    silent = _ElementRows(comm, supervisor)
    observed = silent.observed
    space = StateSpace(_observer_stage(supervisor), max_states)
    space.add(closure([2 * comm.initial + comm.in_spec[comm.initial]], silent))
    index = space.index
    # each bucket met so far, mapped to the state its closure is
    target_of: dict[frozenset[int], int] = {}
    transitions: list[dict[str, int]] = []
    # equal unions share one frozenset, as the exit table's rows do
    unions: dict[frozenset[str], frozenset[str]] = {}
    in_spec: list[bool] = []
    exits: list[frozenset[str]] = []
    stays: list[frozenset[str]] = []
    tick_critical: list[bool] = []
    for codes in space.keys:  # space.keys grows: breadth-first
        here: dict[str, int] = {}
        transitions.append(here)
        # each element's observed moves are read once, bucketed by symbol;
        # the buckets are then closed in alphabet order.  The closure that
        # made ``codes`` built every element's rows.
        buckets: defaultdict[str, set[int]] = defaultdict(set)
        leaving, staying = set(), set()
        reached = critical = False
        for code in codes:
            if code & 1:
                x = code >> 1
                reached = True
                leaving |= comm.exits[x]
                staying |= comm.stays[x]
                critical = critical or comm.tick_critical[x]
            for symbol, dst in observed[code]:
                buckets[symbol].add(dst)
        for symbol in obs_alphabet:
            bucket = buckets.get(symbol)
            if bucket is None:
                continue
            moved = frozenset(bucket)
            nxt = target_of.get(moved)
            if nxt is None:
                closed = closure(moved, silent)
                nxt = index.get(closed)
                nxt = target_of[moved] = space.add(closed) if nxt is None else nxt
            here[symbol] = nxt
        out, inside = frozenset(leaving), frozenset(staying)
        in_spec.append(reached)
        exits.append(unions.setdefault(out, out))
        stays.append(unions.setdefault(inside, inside))
        tick_critical.append(critical)
    return Observer(obs_alphabet, space.keys, transitions, in_spec, exits, stays, tick_critical)
