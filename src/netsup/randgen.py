"""Seeded random instances: a timed plant, a subautomaton specification and a
network configuration, ready for engine-versus-oracle comparison runs.

Non-tick transitions only ever point up a random state ranking, so no
non-tick cycle can form; states either get a tick transition or an
enforceable escape, which makes every instance satisfy the timed-model
assumptions by construction (``build_comm_automaton`` validates them again).
Instances whose channel-augmented automaton would outgrow ``max_comm_states``
are rejected and regenerated, keeping the bounded oracle affordable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .automata import TimedAutomaton, TICK, accessible, remove_states
from .comm import CommAutomaton, build_comm_automaton
from .errors import ResourceLimitError
from .network import ChannelLink, NetworkConfig


@dataclass(frozen=True)
class GeneratorParams:
    n: int = 2
    min_states: int = 3
    max_states: int = 6
    events_per_supervisor: int = 2
    transition_density: float = 0.45
    no_tick_probability: float = 0.15
    marking_density: float = 0.4
    observable_density: float = 0.8
    controllable_density: float = 0.65
    tick_controllable_density: float = 0.7
    enforceable_density: float = 0.35
    channel_density: float = 0.75
    channel_event_density: float = 0.6
    loss_density: float = 0.4
    max_delay: int = 2
    max_removed_states: int = 2
    keep_spec_equal_probability: float = 0.25
    max_comm_states: int = 150
    max_tries: int = 200


@dataclass(frozen=True)
class Instance:
    seed: int
    plant: TimedAutomaton
    spec: TimedAutomaton
    net: NetworkConfig
    comm: CommAutomaton = field(repr=False, hash=False, compare=False, default=None)


def _random_plant(
    rng: random.Random, params: GeneratorParams, events: list[str]
) -> tuple[TimedAutomaton, frozenset[str]]:
    count = rng.randint(params.min_states, params.max_states)
    states = [str(i) for i in range(count)]
    rank = list(range(count))
    rng.shuffle(rank)  # non-tick edges go from lower to higher rank only
    enforceable_pool = [e for e in events if rng.random() < params.enforceable_density]
    transitions: list[tuple[str, str, str]] = []
    for qi, q in enumerate(states):
        higher = [states[t] for t in range(count) if rank[t] > rank[qi]]
        chosen: dict[str, str] = {}
        for e in events:
            if higher and rng.random() < params.transition_density:
                chosen[e] = rng.choice(higher)
        wants_tick = rng.random() >= params.no_tick_probability
        escape = [e for e in chosen if e in enforceable_pool]
        if wants_tick or not escape:
            chosen[TICK] = rng.choice(states)
        for e, t in sorted(chosen.items()):
            transitions.append((q, e, t))
    marked = [q for q in states if rng.random() < params.marking_density]
    plant = TimedAutomaton.build(
        "P", states, events + [TICK], transitions, states[0], marked
    )
    return accessible(plant), frozenset(enforceable_pool)


def _random_network(
    rng: random.Random, params: GeneratorParams, per_sup: list[list[str]], enforceable: frozenset[str]
) -> NetworkConfig:
    n = params.n
    alphabets = [set(evs) | {TICK} for evs in per_sup]
    observable = [
        {TICK} | {e for e in evs if rng.random() < params.observable_density}
        for evs in per_sup
    ]
    controllable = []
    for i, evs in enumerate(per_sup):
        ctrl = {e for e in evs if rng.random() < params.controllable_density}
        if rng.random() < params.tick_controllable_density:
            ctrl.add(TICK)
        controllable.append(ctrl)
    channels: dict[tuple[int, int], ChannelLink] = {}
    for i in range(n):
        for j in range(n):
            if i == j or rng.random() >= params.channel_density:
                continue
            carried = {
                e for e in sorted(observable[i] - {TICK})
                if rng.random() < params.channel_event_density
            }
            lossy = {e for e in sorted(carried) if rng.random() < params.loss_density}
            channels[(i, j)] = ChannelLink(
                frozenset(carried), frozenset(lossy), rng.randint(0, params.max_delay)
            )
    return NetworkConfig.build(
        n, alphabets, controllable, observable, enforceable, channels
    )


def random_instance(seed: int, params: GeneratorParams = GeneratorParams()) -> Instance:
    """Deterministic instance for ``seed``; retries internally until the
    generated model passes validation and fits the size budget."""
    rng = random.Random(seed)
    letters = "abcdefgh"
    per_sup = [
        [f"{letters[k]}{i + 1}" for k in range(params.events_per_supervisor)]
        for i in range(params.n)
    ]
    all_events = [e for evs in per_sup for e in evs]
    for _ in range(params.max_tries):
        plant, enforceable = _random_plant(rng, params, all_events)
        if len(plant.states) < 2:
            continue
        net = _random_network(rng, params, per_sup, enforceable & plant.alphabet)
        removable = [q for q in plant.states if q != plant.initial]
        spec = plant
        if removable and rng.random() >= params.keep_spec_equal_probability:
            k = rng.randint(1, min(params.max_removed_states, len(removable)))
            spec = remove_states(plant, rng.sample(removable, k), name="H")
        try:
            comm = build_comm_automaton(
                plant, spec, net, max_states=params.max_comm_states
            )
        except ResourceLimitError:
            continue
        return Instance(seed, plant, spec, net, comm)
    raise RuntimeError(f"no valid instance found for seed {seed} within {params.max_tries} tries")
