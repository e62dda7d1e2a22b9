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
checks decode only the witness they report.  One walk, ``_bounded_walk``,
groups strings by end state; ``brute_closed_loop`` adds an admission rule.
The existence checks read its groups as they come: joint observability
sorts each whole group by the move at its end state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Sequence

from .automata import TICK, TimedAutomaton, event_order
from .comm import CommAutomaton, Plant, SpecView, observation_symbols
from .randgen import random_instance
from .synthesis import SupervisorMap, check_supervisor_list, closed_loop, synthesize_supervisor
from .verification import Condition, Verdict, Witness, existence_checks


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
    if isinstance(machine, SpecView):  # it has no table: its automaton's events
        return machine.comm.table.events
    return machine.table.events


def _check_bound(bound: int) -> None:
    """Raise ValueError for a negative length bound."""
    if bound < 0:
        raise ValueError("bound must be >= 0")


def _bounded_walk(
    machine, events: tuple, bound: int, admit: Optional[Callable] = None
) -> Iterator[dict[Any, list[str]]]:
    """Every string of length <= ``bound`` that ``machine`` (anything with
    ``initial`` and ``moves``) generates, encoded over ``events``: one dict
    per length, shortest first, from each state reached to the strings that
    reach it.  Each state's moves are read and encoded once per walk, and a
    move on the event encoded ``c`` extends the strings ``admit(c, group)``
    returns, if given, else its state's whole group."""
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
                extended = strings if admit is None else admit(c, strings)
                if not extended:
                    continue
                group = nxt.get(dst)
                if group is None:
                    group = nxt[dst] = []
                for string in extended:
                    group.append(string + c)
        level = nxt
        yield level


def enumerate_language(machine, bound: int) -> BoundedLanguage:
    """Every string of length <= ``bound`` that ``machine`` generates, and
    the marked ones (``machine`` also needs ``is_marked``)."""
    _check_bound(bound)
    return _walk_language(machine, bound)


def _walk_language(machine, bound: int, admit: Optional[Callable] = None) -> BoundedLanguage:
    """The bounded language of ``_bounded_walk`` over ``machine``'s
    alphabet, with its marked subset."""
    events = _alphabet(machine)
    strings: list[str] = []
    marked: list[str] = []
    for level in _bounded_walk(machine, events, bound, admit):
        for state, group in level.items():
            strings += group
            if machine.is_marked(state):
                marked += group
    return BoundedLanguage(frozenset(strings), frozenset(marked), bound, events)


SpecLevels = list[dict[int, list[str]]]


def _spec_levels(comm: CommAutomaton, bound: int) -> SpecLevels:
    """All in-spec strings up to ``bound``, encoded over the automaton's
    event ids: one dict per length, shortest first, from each end state to
    the strings that reach it."""
    return list(_bounded_walk(comm.spec_view(), comm.table.events, bound))


def _first_strings(levels: SpecLevels) -> Iterator[tuple[str, int]]:
    """The first string to each end state, in enumeration order."""
    seen = set()
    for level in levels:
        for sid, group in level.items():
            if sid not in seen:
                seen.add(sid)
                yield group[0], sid


def brute_check(condition: Condition, comm: CommAutomaton, bound: int) -> Verdict:
    """Evaluate one existence condition by literal quantification over all
    strings within ``bound``.  The extending event counts within it: a string
    extended by an event, and for joint observability each of ``mu`` and
    ``nu`` on its own, is at most ``bound`` long with that event, so at
    bound 0 the conditions that extend a string by an event hold vacuously."""
    _check_bound(bound)
    if condition is Condition.LM_CLOSURE:
        return _brute_lm_closure(comm, _spec_levels(comm, bound))
    shorter = _spec_levels(comm, bound - 1) if bound else []
    if condition is Condition.NET_CTRL_1:
        return _brute_controllability_1(comm, shorter)
    if condition is Condition.NET_CTRL_2:
        return _brute_controllability_2(comm, shorter)
    if condition is Condition.NET_JOINT_OBS:
        return _brute_joint_observability(comm, shorter)
    raise ValueError(f"no brute-force check for {condition}")


def _observation_table(comm: CommAutomaton, supervisor: int) -> list[Optional[str]]:
    """The ``str.translate`` table from an encoded string of ``comm`` to
    what ``supervisor`` observes of it: each event id to the character of
    its ``observation_symbols`` symbol's rank in
    ``net.observation_alphabet``, unobserved ids deleted."""
    rank = {symbol: chr(k) for k, symbol in enumerate(comm.net.observation_alphabet(supervisor))}
    return [None if symbol is None else rank[symbol] for symbol in observation_symbols(comm, supervisor)]


def _brute_controllability_1(comm: CommAutomaton, levels: SpecLevels) -> Verdict:
    net = comm.net
    uncontrollable = [(e, Plant(e)) for e in sorted(net.uncontrollable, key=event_order)]
    for mu, sid in _first_strings(levels):
        for event, plant_event in uncontrollable:
            dst = comm.target(sid, plant_event)
            if dst is not None and not comm.in_spec[dst]:
                return Verdict(Condition.NET_CTRL_1, witness=Witness(mu=_decode(comm.table.events, mu), sigma=event))
    return Verdict(Condition.NET_CTRL_1)


def _brute_controllability_2(comm: CommAutomaton, levels: SpecLevels) -> Verdict:
    net = comm.net
    tick = Plant(TICK)
    for mu, sid in _first_strings(levels):
        dst = comm.target(sid, tick)
        if dst is None or comm.in_spec[dst]:
            continue
        preemptable = any(
            isinstance(ev, Plant) and ev.event in net.enforceable and comm.in_spec[t]
            for ev, t in comm.transitions[sid].items()
        )
        if not preemptable:
            return Verdict(Condition.NET_CTRL_2, witness=Witness(mu=_decode(comm.table.events, mu), sigma=TICK))
    return Verdict(Condition.NET_CTRL_2)


def _brute_joint_observability(comm: CommAutomaton, levels: SpecLevels) -> Verdict:
    """For every controllable event and controlling supervisor, compare the
    observations of every run that must disable the event with those of every
    run that must keep it enabled; equal observations are a violation.

    Runs are bucketed by observation string, which decides exactly the same
    pair predicate as comparing all pairs one by one.  A run's observation
    is its encoded string translated by ``_observation_table``.
    """
    net, events = comm.net, comm.table.events
    projections: dict[int, list[Optional[str]]] = {}  # supervisor -> its str.translate table
    controllable = sorted(net.globally_controllable, key=event_order)
    for event in controllable:
        plant_event = Plant(event)
        must_disable: list[str] = []
        must_enable: list[str] = []
        for level in levels:
            for sid, group in level.items():
                dst = comm.target(sid, plant_event)
                if dst is None:
                    continue
                if comm.in_spec[dst]:
                    must_enable += group
                else:
                    must_disable += group
        if not must_disable or not must_enable:
            continue
        for supervisor in net.controllers(event):
            projection = projections.get(supervisor)
            if projection is None:
                projection = projections[supervisor] = _observation_table(comm, supervisor)
            enabled_obs: dict[str, str] = {}
            for nu in must_enable:
                enabled_obs.setdefault(nu.translate(projection), nu)
            for mu in must_disable:
                nu = enabled_obs.get(mu.translate(projection))
                if nu is not None:
                    return Verdict(Condition.NET_JOINT_OBS, witness=Witness(
                        mu=_decode(events, mu), sigma=event, nu=_decode(events, nu), supervisor=supervisor
                    ))
    return Verdict(Condition.NET_JOINT_OBS)


def _brute_lm_closure(comm: CommAutomaton, levels: SpecLevels) -> Verdict:
    for mu, sid in _first_strings(levels):
        if comm.marked[sid] and not comm.spec_marked[sid]:
            return Verdict(Condition.LM_CLOSURE, witness=Witness(mu=_decode(comm.table.events, mu)))
    return Verdict(Condition.LM_CLOSURE)


def brute_closed_loop(
    comm: CommAutomaton, supervisors: Sequence[SupervisorMap], bound: int
) -> BoundedLanguage:
    """The controlled language by its recursive definition: the bounded
    walk over ``comm`` that admits a controllable event only when every
    controlling supervisor's command after its own observation enables it,
    asking the controllers in order up to the first that disables it.

    A command comes from running the observer on the observation,
    independently of the closed-loop product.  It is memoised by the
    observation as a ``str`` (``_observation_table``), which is decoded only
    when new: each distinct observation is run through a supervisor's
    observer at most once per call.
    """
    _check_bound(bound)
    check_supervisor_list(comm, supervisors)
    net = comm.net
    # per supervisor: its translate table, its symbols by rank, its commands by observation
    views = [
        (_observation_table(comm, i), net.observation_alphabet(i), {}, sup) for i, sup in enumerate(supervisors)
    ]
    # per controllable plant event's character: its name and its controllers' views
    guards = {
        chr(k): (event.event, [views[i] for i in net.controllers(event.event)])
        for k, event in enumerate(comm.table.events)
        if isinstance(event, Plant) and event.event in net.globally_controllable
    }

    def admit(c: str, strings: list[str]) -> list[str]:
        guard = guards.get(c)
        if guard is None:
            return strings
        name, controllers = guard
        kept = []
        for mu in strings:
            for table, alphabet, commands, supervisor in controllers:
                observation = mu.translate(table)
                enabled = commands.get(observation)
                if enabled is None:
                    enabled = commands[observation] = supervisor.command(_decode(alphabet, observation))
                if name not in enabled:
                    break
            else:
                kept.append(mu)
        return kept

    return _walk_language(comm, bound, admit)


def agreement(comm: CommAutomaton, bound: int) -> list[str]:
    """Compare the engine's verdicts and closed-loop language on ``comm``
    with the oracle's at ``bound``; lists the names of the properties they
    disagree on.  Agreement holds only up to the bound: a witness longer
    than it goes unseen by the oracle."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    # one enumeration serves every condition: an extending event may follow
    # only the strings shorter than the bound
    levels = _spec_levels(comm, bound)
    shorter = levels[:-1]
    oracle = (
        _brute_controllability_1(comm, shorter).holds and _brute_controllability_2(comm, shorter).holds,
        _brute_joint_observability(comm, shorter).holds,
        _brute_lm_closure(comm, levels).holds,
    )
    names = ("NetworkControllability", "NetworkJointObservability", "LmClosure")
    disagreements = [name for name, v, holds in zip(names, existence_checks(comm), oracle) if v.holds != holds]
    sups = [synthesize_supervisor(comm, i) for i in range(comm.net.n)]
    loop_language = enumerate_language(closed_loop(comm, sups), bound)
    brute_language = brute_closed_loop(comm, sups, bound)
    if (
        loop_language.strings != brute_language.strings
        or loop_language.marked != brute_language.marked
    ):
        disagreements.append("ClosedLoopLanguage")
    return disagreements


def agreement_for_seed(seed: int, bound: int) -> dict:
    """``agreement`` on the seeded random instance ``seed``."""
    comm = random_instance(seed).comm
    return {"seed": seed, "disagreements": agreement(comm, bound), "comm_states": comm.num_states}
