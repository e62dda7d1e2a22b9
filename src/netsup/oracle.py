"""Naive, definition-level implementations of every checked property.

These evaluate the quantified definitions literally over all strings up to a
length bound instead of walking product constructions, and serve as ground
truth for the engine at small scale.  They are sound for violation finding
and complete only up to the bound (a violation whose shortest quantified
string is longer than the bound goes unseen).

Controllability and Lm-closure quantify over single strings with a
predicate that reads only the string's end state, so each check evaluates
it once per state, at the first string reaching it, and skips the later
ones.  A skipped string's verdict is the one already computed, so this is
still literal quantification over every string, and the witness is still
the first violating string in enumeration order.

A bounded string is one ``str`` of event ids (see ``BoundedLanguage``): it
hashes once, compares in C and is not tracked by the cyclic collector.  The
checks decode only the witness they report, and ``brute_closed_loop`` the
strings whose observation a supervisor's command needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Optional, Sequence

from .automata import TICK, TimedAutomaton, event_order
from .comm import CommAutomaton, CommEvent, Plant, SpecView, observation_symbols, project_observation
from .randgen import random_instance
from .synthesis import SupervisorMap, check_supervisor_list, closed_loop, synthesize_supervisor
from .verification import (
    Condition,
    Verdict,
    Witness,
    check_lm_closure,
    check_network_controllability,
    check_network_joint_observability,
)


@dataclass(frozen=True)
class BoundedLanguage:
    """All strings of length <= bound generated by an automaton, with the
    marked subset.  A string is encoded as a ``str`` whose k-th character is
    ``chr(i)``, i being the index of its k-th event in ``events``, the
    automaton's alphabet; ``decode`` gives back the event tuple."""

    strings: frozenset[str]
    marked: frozenset[str]
    bound: int
    events: tuple

    def decode(self, string: str) -> tuple:
        """The events of an encoded string, in order."""
        return _decode(self.events, string)


def _decode(events: tuple, string: str) -> tuple:
    return tuple([events[ord(c)] for c in string])


def _alphabet(machine) -> tuple:
    """The events ``machine``'s strings are encoded over: a plant
    automaton's alphabet in ``event_order``; for a channel-augmented
    automaton, its SpecView and its closed loop, the automaton's event ids,
    which they share, so their languages compare directly."""
    if isinstance(machine, TimedAutomaton):
        return tuple(sorted(machine.alphabet, key=event_order))
    if isinstance(machine, SpecView):
        return machine.comm.table.events
    return machine.event_table().events


def _check_bound(bound: int) -> None:
    """Raise ValueError for a negative length bound."""
    if bound < 0:
        raise ValueError("bound must be >= 0")


def _bounded_walk(machine, events: tuple, bound: int) -> Iterator[dict[Any, list[str]]]:
    """Every string of length <= ``bound`` that ``machine`` (anything with
    ``initial`` and ``moves``) generates, encoded over ``events``: one dict
    per length, shortest first, from each state reached to the strings that
    reach it.  Each state's moves are read and encoded once per walk."""
    code = {event: chr(k) for k, event in enumerate(events)}
    level: dict[Any, list[str]] = {machine.initial: [""]}
    yield level
    moves_of: dict = {}  # state -> its moves as (character, target)
    for _ in range(bound):
        nxt: dict[Any, list[str]] = {}
        for state, strings in level.items():
            moves = moves_of.get(state)
            if moves is None:
                moves = moves_of[state] = [(code[event], dst) for event, dst in machine.moves(state)]
            for c, dst in moves:
                group = nxt.get(dst)
                if group is None:
                    group = nxt[dst] = []
                for string in strings:
                    group.append(string + c)
        level = nxt
        yield level


def enumerate_language(machine, bound: int) -> BoundedLanguage:
    """Every string of length <= ``bound`` that ``machine`` generates, and
    the marked ones (``machine`` also needs ``is_marked``)."""
    _check_bound(bound)
    events = _alphabet(machine)
    strings: list[str] = []
    marked: list[str] = []
    for level in _bounded_walk(machine, events, bound):
        for state, group in level.items():
            strings += group
            if machine.is_marked(state):
                marked += group
    return BoundedLanguage(frozenset(strings), frozenset(marked), bound, events)


# in-spec strings, encoded over the automaton's event ids, with their end
# states, shortest first: each _brute_* check takes the ones it quantifies
# over and decodes only the witness it reports
SpecStrings = list[tuple[str, int]]


def _spec_strings(comm: CommAutomaton, bound: int) -> SpecStrings:
    """All in-spec strings up to ``bound`` with their end states, shortest
    first."""
    return [
        (string, sid)
        for level in _bounded_walk(comm.spec_view(), comm.table.events, bound)
        for sid, group in level.items()
        for string in group
    ]


def _first_strings(spec_strings: SpecStrings) -> Iterator[tuple[str, int]]:
    """The first string to each end state, in enumeration order."""
    seen = set()
    for mu, sid in spec_strings:
        if sid not in seen:
            seen.add(sid)
            yield mu, sid


def brute_check(condition: Condition, comm: CommAutomaton, bound: int) -> Verdict:
    """Evaluate one existence condition by literal quantification over all
    strings (pairs of strings for joint observability) whose total length,
    including the extending event, stays within ``bound``: at bound 0 the
    conditions that extend a string by an event hold vacuously."""
    _check_bound(bound)
    if condition is Condition.LM_CLOSURE:
        return _brute_lm_closure(comm, _spec_strings(comm, bound))
    shorter = _spec_strings(comm, bound - 1) if bound else []
    if condition is Condition.NET_CTRL_1:
        return _brute_controllability_1(comm, shorter)
    if condition is Condition.NET_CTRL_2:
        return _brute_controllability_2(comm, shorter)
    if condition is Condition.NET_JOINT_OBS:
        return _brute_joint_observability(comm, shorter)
    raise ValueError(f"no brute-force check for {condition}")


def _brute_controllability_1(comm: CommAutomaton, spec_strings: SpecStrings) -> Verdict:
    net = comm.net
    uncontrollable = [(e, Plant(e)) for e in sorted(net.uncontrollable, key=event_order)]
    for mu, sid in _first_strings(spec_strings):
        for event, plant_event in uncontrollable:
            dst = comm.target(sid, plant_event)
            if dst is not None and not comm.in_spec[dst]:
                return Verdict(
                    Condition.NET_CTRL_1, False, Witness(mu=_decode(comm.table.events, mu), sigma=event)
                )
    return Verdict(Condition.NET_CTRL_1, True)


def _brute_controllability_2(comm: CommAutomaton, spec_strings: SpecStrings) -> Verdict:
    net = comm.net
    tick = Plant(TICK)
    for mu, sid in _first_strings(spec_strings):
        dst = comm.target(sid, tick)
        if dst is None or comm.in_spec[dst]:
            continue
        preemptable = any(
            isinstance(ev, Plant) and ev.event in net.enforceable and comm.in_spec[t]
            for ev, t in comm.transitions[sid].items()
        )
        if not preemptable:
            return Verdict(Condition.NET_CTRL_2, False, Witness(mu=_decode(comm.table.events, mu), sigma=TICK))
    return Verdict(Condition.NET_CTRL_2, True)


def _brute_joint_observability(comm: CommAutomaton, spec_strings: SpecStrings) -> Verdict:
    """For every controllable event and controlling supervisor, compare the
    observations of every run that must disable the event with those of every
    run that must keep it enabled; equal observations are a violation.

    Runs are bucketed by observation string, which decides exactly the same
    pair predicate as comparing all pairs one by one.  A run's observation
    is its encoded string with each event replaced by what the supervisor
    observes of it (``observation_symbols``), one character per symbol.
    """
    net, events = comm.net, comm.table.events
    projections: dict[int, list[Optional[str]]] = {}  # supervisor -> its str.translate table
    controllable = sorted(net.globally_controllable, key=event_order)
    for event in controllable:
        plant_event = Plant(event)
        must_disable: list[str] = []
        must_enable: list[str] = []
        for mu, sid in spec_strings:
            dst = comm.target(sid, plant_event)
            if dst is None:
                continue
            if comm.in_spec[dst]:
                must_enable.append(mu)
            else:
                must_disable.append(mu)
        if not must_disable or not must_enable:
            continue
        for supervisor in net.controllers(event):
            projection = projections.get(supervisor)
            if projection is None:
                rank = {symbol: chr(k) for k, symbol in enumerate(net.observation_alphabet(supervisor))}
                projection = projections[supervisor] = [
                    None if symbol is None else rank[symbol] for symbol in observation_symbols(comm, supervisor)
                ]
            enabled_obs: dict[str, str] = {}
            for nu in must_enable:
                enabled_obs.setdefault(nu.translate(projection), nu)
            for mu in must_disable:
                nu = enabled_obs.get(mu.translate(projection))
                if nu is not None:
                    return Verdict(
                        Condition.NET_JOINT_OBS,
                        False,
                        Witness(mu=_decode(events, mu), sigma=event, nu=_decode(events, nu), supervisor=supervisor),
                    )
    return Verdict(Condition.NET_JOINT_OBS, True)


def _brute_lm_closure(comm: CommAutomaton, spec_strings: SpecStrings) -> Verdict:
    for mu, sid in _first_strings(spec_strings):
        if comm.marked[sid] and not comm.spec_marked[sid]:
            return Verdict(Condition.LM_CLOSURE, False, Witness(mu=_decode(comm.table.events, mu)))
    return Verdict(Condition.LM_CLOSURE, True)


def brute_closed_loop(
    comm: CommAutomaton, supervisors: Sequence[SupervisorMap], bound: int
) -> BoundedLanguage:
    """The controlled language by its recursive definition: grow strings one
    event at a time, admitting a controllable event only when every
    controlling supervisor's command after its own observation enables it.

    Commands come from projecting the string's observation and running the
    observer on it, independently of the closed-loop product.  A string's
    observation and command are computed at most once per supervisor, when a
    controllable move first needs them, and each distinct observation is
    run through a supervisor's observer at most once per call.  A string
    grows by one character per event and is decoded only for its
    observation.
    """
    _check_bound(bound)
    check_supervisor_list(comm, supervisors)
    net, events = comm.net, comm.table.events
    code = {event: chr(k) for k, event in enumerate(events)}
    controllers = {e: net.controllers(e) for e in net.globally_controllable}
    controlled = {Plant(e): e for e in controllers}
    commands: list[dict[tuple[str, ...], frozenset[str]]] = [{} for _ in supervisors]

    def command(mu: tuple[CommEvent, ...], i: int) -> frozenset[str]:
        """Supervisor ``i``'s command after ``mu``, memoised by observation."""
        observation = project_observation(mu, i, net)
        enabled = commands[i].get(observation)
        if enabled is None:
            enabled = commands[i][observation] = supervisors[i].command(observation)
        return enabled

    # per state, on first visit: its moves in comm.transitions as (character,
    # the controllable plant event's name or None, target)
    rows: dict[int, list[tuple[str, Optional[str], int]]] = {}
    strings = set()
    marked = set()
    frontier: list[tuple[str, int]] = [("", comm.initial)]
    for length in range(bound + 1):
        nxt = []
        for mu, sid in frontier:
            strings.add(mu)
            if comm.marked[sid]:
                marked.add(mu)
            if length == bound:
                continue
            row = rows.get(sid)
            if row is None:
                row = rows[sid] = [
                    (code[event], controlled.get(event), dst) for event, dst in comm.transitions[sid].items()
                ]
            issued: dict[int, frozenset[str]] = {}
            decoded: Optional[tuple[CommEvent, ...]] = None  # mu's events, once a command needs them
            for c, name, dst in row:
                if name is not None:
                    for i in controllers[name]:
                        if i not in issued:
                            if decoded is None:
                                decoded = _decode(events, mu)
                            issued[i] = command(decoded, i)
                        if name not in issued[i]:
                            break
                    else:
                        nxt.append((mu + c, dst))
                else:
                    nxt.append((mu + c, dst))
        frontier = nxt
    return BoundedLanguage(frozenset(strings), frozenset(marked), bound, events)


def agreement_for_seed(seed: int, bound: int) -> dict:
    """Compare the engine's verdicts and closed-loop language with the
    oracle's at ``bound`` on the seeded random instance ``seed``; lists the
    names of the properties they disagree on."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    comm = random_instance(seed).comm
    # one enumeration serves every condition: an extending event may follow
    # only the strings shorter than the bound
    spec_strings = _spec_strings(comm, bound)
    shorter = [(mu, sid) for mu, sid in spec_strings if len(mu) < bound]
    oracle_ctrl = (
        _brute_controllability_1(comm, shorter).holds
        and _brute_controllability_2(comm, shorter).holds
    )
    engine = [
        ("NetworkControllability", check_network_controllability(comm).holds, oracle_ctrl),
        (
            "NetworkJointObservability",
            check_network_joint_observability(comm).holds,
            _brute_joint_observability(comm, shorter).holds,
        ),
        (
            "LmClosure",
            check_lm_closure(comm).holds,
            _brute_lm_closure(comm, spec_strings).holds,
        ),
    ]
    disagreements = [name for name, engine_holds, oracle_holds in engine
                     if engine_holds != oracle_holds]
    sups = [synthesize_supervisor(comm, i) for i in range(comm.net.n)]
    loop_language = enumerate_language(closed_loop(comm, sups), bound)
    brute_language = brute_closed_loop(comm, sups, bound)
    if (
        loop_language.strings != brute_language.strings
        or loop_language.marked != brute_language.marked
    ):
        disagreements.append("ClosedLoopLanguage")
    return {"seed": seed, "disagreements": disagreements, "comm_states": comm.num_states}
