"""The channel-augmented automaton: plant states paired with channel queues.

States are pairs (plant state, channel state).  Besides the plant's own
events, the automaton moves on delivery events (the receiving supervisor sees
a queued event) and loss events (a lossy queued entry silently disappears).
Both leave the plant component untouched.

Exploration order is fixed -- tick, plant events lexicographically, deliveries
by channel, losses by (channel, position) -- so state numbering is
reproducible across runs.

Each supervisor's observer, the subset construction over what it observes of
the automaton, is built here too and cached on the automaton, so the
joint-observability check and synthesis share it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, Optional

from . import channels as ch
from .automata import TICK, TimedAutomaton, prepare, subautomaton_defect
from .channels import ChannelState
from .errors import ModelError
from .explore import MAX_STATES, PathSpace, StateSpace, budget_error, closure
from .network import NetworkConfig


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
    """Human-readable event names; channel indices are 1-based as in files."""
    if isinstance(event, Plant):
        return event.event
    if isinstance(event, Deliver):
        return f"f{event.sender + 1}{event.receiver + 1}({event.event})"
    return f"g{event.sender + 1}{event.receiver + 1}({event.position})"


@dataclass
class CommAutomaton:
    """Deterministic, accessible automaton over plant/delivery/loss events.

    Parallel arrays indexed by dense state id (discovery order):
    ``keys`` holds the (plant state, channel state) pair, ``in_spec`` whether
    the plant component survives in the specification subautomaton,
    ``marked`` / ``spec_marked`` the plant-level markings, and
    ``spec_reachable`` whether the state is reachable through in_spec states
    only (i.e. belongs to the specification's channel-augmented automaton).
    ``spec_tree`` is the breadth-first walk that found those states, keyed by
    state id; ``spec_path`` reads its links.  ``exits`` / ``stays`` hold the
    exit table: the plant event names (tick included) whose move from the
    state leaves the specification, and those whose move stays inside it;
    ``tick_critical``, whether tick is possible there and no enforceable
    event's move stays inside to preempt it.  The other checks read the
    table through each observer's summary (see ``Observer``).

    Two derived structures are built on first use and cached: the event
    table and each supervisor's observer.
    """

    net: NetworkConfig
    keys: list[tuple[str, ChannelState]]
    transitions: list[dict[CommEvent, int]]
    in_spec: list[bool]
    marked: list[bool]
    spec_marked: list[bool]
    spec_reachable: list[bool]
    exits: list[frozenset[str]]
    stays: list[frozenset[str]]
    tick_critical: list[bool]
    spec_tree: PathSpace = field(repr=False, compare=False)
    initial: int = 0
    _event_table: Optional["EventTable"] = field(
        default=None, init=False, repr=False, compare=False
    )
    _observers: dict[int, "Observer"] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __getstate__(self) -> dict:
        # a copy (a deep one included) rebuilds the derived tables from its
        # own transitions, so editing the copy's transitions is safe
        return {**self.__dict__, "_event_table": None, "_observers": {}}

    # -- basic accessors -------------------------------------------------
    @property
    def num_states(self) -> int:
        return len(self.keys)

    def plant_of(self, sid: int) -> str:
        return self.keys[sid][0]

    def channels_of(self, sid: int) -> ChannelState:
        return self.keys[sid][1]

    def moves(self, sid: int) -> Iterable[tuple[CommEvent, int]]:
        """The (event, target) pairs of ``sid``, in event id order."""
        return self.transitions[sid].items()

    def target(self, sid: int, event: CommEvent) -> Optional[int]:
        return self.transitions[sid].get(event)

    def is_marked(self, sid: int) -> bool:
        return self.marked[sid]

    @property
    def initial_state(self) -> int:
        return self.initial

    def render_state(self, sid: int) -> str:
        plant, chans = self.keys[sid]
        suffix = ch.render_state(chans)
        return f"({plant},{suffix})" if suffix else f"({plant})"

    def state_labels(self) -> list[str]:
        return [self.render_state(s) for s in range(self.num_states)]

    def event_table(self) -> "EventTable":
        """The transitions over dense event ids, built on first use and
        cached; the transitions must not change afterwards."""
        if self._event_table is None:
            self._event_table = build_event_table(self.transitions)
        return self._event_table

    def observer(self, i: int, max_states: int = MAX_STATES) -> "Observer":
        """Supervisor ``i``'s observer, built on first use and cached like
        ``event_table``; every caller gets the same object, which must not
        change.  A cached observer with more than ``max_states`` states
        raises the ResourceLimitError a fresh build would; a build that
        breaks its budget caches nothing."""
        observer = self._observers.get(i)
        if observer is None:
            observer = self._observers[i] = build_observer(self, i, max_states=max_states)
        elif observer.num_states > max_states:
            raise budget_error(_observer_stage(i), max_states)
        return observer

    def owns_observer(self, i: int, observer: "Observer") -> bool:
        """True when ``observer`` is the one ``observer(i)`` built and
        cached, so its elements and transitions are the subset construction
        over this automaton."""
        return self._observers.get(i) is observer

    def spec_view(self) -> "SpecView":
        return SpecView(self)

    def run(self, string: Iterable[CommEvent], start: Optional[int] = None) -> Optional[int]:
        sid = self.initial if start is None else start
        for event in string:
            nxt = self.transitions[sid].get(event)
            if nxt is None:
                return None
            sid = nxt
        return sid

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
        broken by exploration order; ``sid`` must be spec_reachable."""
        return tuple(self.spec_tree.path(self.spec_tree.index[sid]))


@dataclass
class SpecView:
    """The specification's channel-augmented automaton, as a read-only
    restriction of the full one (in_spec states, induced transitions,
    specification marking)."""

    comm: CommAutomaton

    @property
    def initial_state(self) -> int:
        return self.comm.initial

    def moves(self, sid: int) -> list[tuple[CommEvent, int]]:
        """The automaton's moves of ``sid`` that stay in the specification."""
        in_spec = self.comm.in_spec
        return [(e, t) for e, t in self.comm.transitions[sid].items() if in_spec[t]]

    def is_marked(self, sid: int) -> bool:
        return self.comm.spec_marked[sid]

    def event_table(self) -> "EventTable":
        """The automaton's event table without the moves that leave the
        specification."""
        table = self.comm.event_table()
        in_spec = self.comm.in_spec
        return EventTable.of(table.events, [
            [(e, t) for e, t in zip(row, dsts) if in_spec[t]]
            for row, dsts in zip(table.ids, table.targets)
        ])


@dataclass(frozen=True)
class EventTable:
    """Moves over dense event ids.

    ``events[k]`` is the event with id ``k``.  Ids follow ``event_key``, the
    order in which ``build_comm_automaton`` explores a state's moves, so a
    walk over a state's moves by id breaks BFS ties as a walk over its
    ``transitions`` does.  ``ids[s]`` and ``targets[s]`` hold the moves of
    state ``s`` in id order.  A closed loop and a specification restriction
    share their automaton's ``events``.
    """

    events: tuple[CommEvent, ...]
    ids: list[tuple[int, ...]]
    targets: list[tuple[int, ...]]

    @classmethod
    def of(cls, events: tuple[CommEvent, ...], moves: list[list[tuple[int, int]]]) -> "EventTable":
        """From each state's (event id, target) pairs in id order."""
        return cls(events, [tuple(e for e, _ in m) for m in moves], [tuple(t for _, t in m) for m in moves])

    def over(self, events: tuple[CommEvent, ...]) -> "EventTable":
        """The same moves with ids into ``events``, a superset of this
        table's events in ``event_key`` order."""
        index = {event: k for k, event in enumerate(events)}
        rename = [index[event] for event in self.events]
        return EventTable(events, [tuple(rename[e] for e in row) for row in self.ids], self.targets)


def build_event_table(transitions: list[dict[CommEvent, int]]) -> EventTable:
    """Intern the events of ``transitions`` in ``event_key`` order."""
    found: dict[CommEvent, int] = {}  # event -> order of first occurrence
    moves = [[(found.setdefault(e, len(found)), t) for e, t in m.items()] for m in transitions]
    events = tuple(sorted(found, key=event_key))
    rank = [0] * len(events)
    for k, event in enumerate(events):
        rank[found[event]] = k
    return EventTable.of(events, [sorted((rank[e], t) for e, t in m) for m in moves])


def build_comm_automaton(
    plant: TimedAutomaton,
    spec: TimedAutomaton,
    net: NetworkConfig,
    *,
    max_states: int = MAX_STATES,
) -> CommAutomaton:
    """Breadth-first construction of the channel-augmented automaton.

    The one gate to a validated problem: the plant is first reduced to its
    accessible part and the specification to the states it kept, and the
    plant must pass ``validate_timed_assumptions`` (``automata.prepare``;
    ModelError otherwise).  ``spec`` must then be a subautomaton of the plant
    (same initial state; marking may be an explicit subset of the inherited
    one).  With no cycle of non-tick events, at most L <= |plant states| - 1
    plant events fire between two ticks, so no channel queue holds more than
    (delay_bound + 1) * L entries and the construction is finite.
    """
    plant, spec = prepare(plant, spec, net)
    defect = subautomaton_defect(spec, plant)
    if defect is not None:
        raise ModelError(f"{spec.name!r} is not a subautomaton of {plant.name!r}: {defect}")
    spec_states = set(spec.states)
    spec_marked_states = set(spec.marked)

    space = StateSpace("channel-augmented automaton", max_states)
    space.add((plant.initial, ((),) * len(net.channel_keys)))
    keys, index = space.keys, space.index
    transitions: list[dict[CommEvent, int]] = []
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
    exits: list[frozenset[str]] = []
    stays: list[frozenset[str]] = []
    tick_critical: list[bool] = []

    def intern(key: tuple[str, ChannelState]) -> int:
        sid = index.get(key)
        return space.add(key) if sid is None else sid

    for sid, (q, theta) in enumerate(keys):  # keys grows while it is walked: breadth-first
        here: dict[CommEvent, int] = {}
        transitions.append(here)
        # tick: plant and every channel must both allow it
        tick_target = plant.target(q, TICK)
        if tick_target is not None:
            aged = ch.time_step(theta, net)
            if aged is not None:
                here[PLANT_TICK] = intern((tick_target, aged))
        # plant events, lexicographic
        for event, dst in plant.moves(q):
            if event != TICK:
                here[Plant(event)] = intern((dst, ch.push(theta, event, net)))
        # deliveries: at most the front entry of each channel
        for k, ((i, j), queue) in enumerate(zip(net.channel_keys, theta)):
            if queue:
                event = queue[0].event
                here[Deliver(i, j, event)] = intern((q, ch.deliver(theta, k, event)))
        # losses: every lossy position of each channel
        for k, ((i, j), queue) in enumerate(zip(net.channel_keys, theta)):
            for d in range(1, len(queue) + 1):
                lost = ch.lose(theta, k, d, net)
                if lost is not None:
                    here[Lose(i, j, d)] = intern((q, lost))
        leaving, staying, critical = splits[q, PLANT_TICK in here]
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
        for event, dst in transitions[sid].items():
            if in_spec[dst] and dst not in spec_tree.index:
                spec_tree.add(dst, tid, event)
    spec_reachable = [False] * len(keys)
    for sid in spec_tree.keys:
        spec_reachable[sid] = True

    return CommAutomaton(
        net=net,
        keys=keys,
        transitions=transitions,
        in_spec=in_spec,
        marked=marked,
        spec_marked=spec_marked,
        spec_reachable=spec_reachable,
        exits=exits,
        stays=stays,
        tick_critical=tick_critical,
        spec_tree=spec_tree,
    )


def project_plant(string: Iterable[CommEvent]) -> tuple[str, ...]:
    """Keep plant events in order, drop deliveries and losses."""
    return tuple(e.event for e in string if isinstance(e, Plant))


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


Move = tuple[CommEvent, int]  # (event, target state)


def observation_symbols(comm: CommAutomaton, i: int) -> list[Optional[str]]:
    """``observation_of`` for supervisor ``i`` per event id of ``comm``'s
    event table."""
    return [observation_of(event, i, comm.net) for event in comm.event_table().events]


class InSpecRows(dict):
    """Per state id, read off the event table on its first lookup for one
    supervisor: the state's moves into in_spec states, as its silent moves
    and a dict from each observed symbol to its moves, symbols in
    ``net.observation_alphabet`` order and moves in event id order.  Each
    witness walk reads its own, so only the rows it visits are built."""

    __slots__ = ("events", "ids", "targets", "in_spec", "symbols", "rank")

    def __init__(self, comm: CommAutomaton, supervisor: int) -> None:
        table = comm.event_table()
        self.events, self.ids, self.targets, self.in_spec = table.events, table.ids, table.targets, comm.in_spec
        self.symbols = observation_symbols(comm, supervisor)
        self.rank = {symbol: k for k, symbol in enumerate(comm.net.observation_alphabet(supervisor))}

    def __missing__(self, sid: int) -> tuple[tuple[Move, ...], dict[str, tuple[Move, ...]]]:
        events, symbols, in_spec = self.events, self.symbols, self.in_spec
        silent: list[Move] = []
        observed: dict[str, list[Move]] = {}
        for e, dst in zip(self.ids[sid], self.targets[sid]):
            if in_spec[dst]:
                symbol = symbols[e]
                if symbol is None:
                    silent.append((events[e], dst))
                else:
                    observed.setdefault(symbol, []).append((events[e], dst))
        self[sid] = row = (
            tuple(silent), {s: tuple(observed[s]) for s in sorted(observed, key=self.rank.__getitem__)}
        )
        return row


ObserverElement = tuple[int, bool]  # (state id, run stayed in spec): a decoded element code


@dataclass
class Observer:
    """Deterministic observer for one supervisor.

    ``codes[t]`` is the set of elements compatible with the observation
    string leading to observer state ``t``; an element is a state id ``x``
    and whether its run stayed in spec, coded as the int ``2 * x + flag``.
    ``elements[t]`` decodes it into (state, in-spec) pairs.  The other lists
    summarize the automaton's exit table over its flagged elements (states
    that in-spec runs reach): whether it has one, the unions of their
    ``exits`` / ``stays``, and whether one is ``tick_critical``.
    """

    supervisor: int
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

    @cached_property
    def elements(self) -> tuple[frozenset[ObserverElement], ...]:
        """Per observer state, its element codes decoded into (state,
        in-spec) pairs; decoded on first access."""
        return tuple(frozenset((code >> 1, bool(code & 1)) for code in codes) for codes in self.codes)

    def run(self, symbols: Iterable[str]) -> Optional[int]:
        state = self.initial
        for symbol in symbols:
            nxt = self.transitions[state].get(symbol)
            if nxt is None:
                return None
            state = nxt
        return state


def _observer_stage(supervisor: int) -> str:
    return f"observer for supervisor {supervisor + 1}"


class _ElementRows(dict):
    """Per observer element code, read off the event table on its first
    lookup for one supervisor: the code's silent successor codes.  The same
    lookup stores its (observed symbol, successor codes) pairs in
    ``observed``.  A successor keeps the flag only while it is in_spec."""

    __slots__ = ("ids", "targets", "flags", "symbols", "observed")

    def __init__(self, comm: CommAutomaton, supervisor: int) -> None:
        table = comm.event_table()
        self.ids, self.targets, self.flags = table.ids, table.targets, comm.in_spec
        self.symbols = observation_symbols(comm, supervisor)
        self.observed: dict[int, tuple[tuple[str, tuple[int, ...]], ...]] = {}

    def __missing__(self, code: int) -> tuple[int, ...]:
        sid, flag = code >> 1, code & 1
        symbols, flags = self.symbols, self.flags
        quiet: list[int] = []
        moved: dict[str, list[int]] = {}
        for e, dst in zip(self.ids[sid], self.targets[sid]):
            symbol = symbols[e]
            if symbol is None:
                quiet.append(2 * dst + (flag & flags[dst]))
            else:
                moved.setdefault(symbol, []).append(2 * dst + (flag & flags[dst]))
        self.observed[code] = tuple((symbol, tuple(dsts)) for symbol, dsts in moved.items())
        self[code] = row = tuple(quiet)
        return row


def build_observer(
    comm: CommAutomaton, supervisor: int, *, max_states: int = MAX_STATES
) -> Observer:
    """Subset construction over one supervisor's observation mapping.

    Unobserved moves are closed over silently; an element's flag survives a
    move only while the run stays within in_spec states.  Each element
    code's successors are read off the event table when the code is first
    visited: its silent successor codes, and per observed symbol the codes
    it moves to.  Each state's flagged elements are then summarized once
    (see ``Observer``).
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
    for codes in space.keys:  # space.keys grows: breadth-first
        here: dict[str, int] = {}
        transitions.append(here)
        # each element's observed moves are read once, bucketed by symbol;
        # the buckets are then closed in alphabet order.  The closure that
        # made ``codes`` built every element's rows.
        buckets: dict[str, set[int]] = {}
        for code in codes:
            for symbol, dsts in observed[code]:
                bucket = buckets.get(symbol)
                if bucket is None:
                    buckets[symbol] = set(dsts)
                else:
                    bucket.update(dsts)
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
    # equal unions share one frozenset, as the exit table's rows do
    unions: dict[frozenset[str], frozenset[str]] = {}
    in_spec: list[bool] = []
    exits: list[frozenset[str]] = []
    stays: list[frozenset[str]] = []
    tick_critical: list[bool] = []
    for codes in space.keys:
        leaving, staying = set(), set()
        reached = critical = False
        for code in codes:
            if code & 1:
                x = code >> 1
                reached = True
                leaving |= comm.exits[x]
                staying |= comm.stays[x]
                critical = critical or comm.tick_critical[x]
        out, inside = frozenset(leaving), frozenset(staying)
        in_spec.append(reached)
        exits.append(unions.setdefault(out, out))
        stays.append(unions.setdefault(inside, inside))
        tick_critical.append(critical)
    return Observer(supervisor, obs_alphabet, space.keys, transitions, in_spec, exits, stays, tick_critical)


@dataclass(frozen=True)
class ProjectionVerdict:
    equal: bool
    distinguishing: Optional[tuple[str, ...]] = None
    only_in: Optional[str] = None  # "projection" or "plant"


def check_projection_equivalence(plant: TimedAutomaton, comm: CommAutomaton) -> ProjectionVerdict:
    """Check that projecting away deliveries and losses recovers exactly the
    plant's language.

    Determinizes the channel-augmented automaton with deliveries/losses as
    silent moves and walks it against the plant; a mismatch yields a shortest
    distinguishing plant string.
    """
    silent = [tuple(dst for e, dst in moves.items() if not isinstance(e, Plant)) for moves in comm.transitions]
    alphabet = sorted(plant.alphabet)
    space = PathSpace("projection check", MAX_STATES)
    space.add((closure([comm.initial], silent), plant.initial))
    for k, (subset, q) in enumerate(space.keys):  # space.keys grows: breadth-first
        for event in alphabet:
            move = {
                comm.transitions[sid][Plant(event)]
                for sid in subset
                if Plant(event) in comm.transitions[sid]
            }
            plant_next = plant.target(q, event)
            if move and plant_next is None:
                return ProjectionVerdict(False, tuple(space.path(k)) + (event,), only_in="projection")
            if not move and plant_next is not None:
                return ProjectionVerdict(False, tuple(space.path(k)) + (event,), only_in="plant")
            if move:
                nxt = (closure(move, silent), plant_next)
                if nxt not in space.index:
                    space.add(nxt, k, event)
    return ProjectionVerdict(True)
