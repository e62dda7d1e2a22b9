"""Channel-augmented automaton: construction, projections, equivalence."""

import copy
import dataclasses
import hashlib
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import ProjectionVerdict, check_projection_equivalence, observer_elements, project_plant
from netsup import dot, solve_control_problem
from netsup.automata import TICK, TimedAutomaton, prepare
from netsup.channels import age, drops, enqueue, pop
from netsup.comm import (
    Deliver,
    Lose,
    Plant,
    build_comm_automaton,
    build_observer,
    event_key,
    observation_symbols,
    project_observation,
    render_event,
)
from netsup.errors import ModelError, SchemaError
from netsup.network import ChannelLink, NetworkConfig
from netsup.randgen import GeneratorParams, random_instance
from netsup.simulation import render_trace, simulate
from netsup.synthesis import check_admissibility, closed_loop, language_equal, synthesize_supervisor


def ta(name, states, alphabet, transitions, initial, marked):
    return TimedAutomaton.build(name, states, alphabet, transitions, initial, marked)


def no_com_net(alphabet_1, alphabet_2):
    return NetworkConfig.build(
        2,
        [alphabet_1, alphabet_2],
        [alphabet_1, alphabet_2],
        [alphabet_1, alphabet_2],
        [],
        {},
    )


class TestDegenerateNetwork:
    def test_isomorphic_to_plant(self, line_model):
        net = no_com_net(["a1", "b1", TICK], ["a2", "b2", TICK])
        comm = build_comm_automaton(line_model.plant, line_model.spec, net)
        plant = line_model.plant
        assert comm.num_states == len(plant.states)
        # walk the bijection: same actives everywhere, channels always empty
        for sid in range(comm.num_states):
            q, theta = comm.keys[sid]
            assert theta == ()
            got = {e.event for e in tuple(comm.transitions[sid])}
            assert got == set(plant.transitions[q])
            assert not any(isinstance(e, (Deliver, Lose)) for e in tuple(comm.transitions[sid]))


class TestFixtureStates:
    def test_quoted_states_present(self, line_comm):
        labels = {line_comm.render_state(s) for s in range(line_comm.num_states)}
        for wanted in ["(4,ε,ε)", "(4,(b1,1),ε)", "(0,ε,ε)", "(0,ε,(b2,1))"]:
            assert wanted in labels

    def test_exactly_two_plant4_states(self, line_comm):
        """Only the two quoted channel contents can accompany plant state 4."""
        labels = [line_comm.render_state(s) for s in range(line_comm.num_states)
                  if line_comm.plant_of(s) == "4"]
        assert sorted(labels) == ["(4,(b1,1),ε)", "(4,ε,ε)"]

    def test_marked_states_follow_plant_marking(self, line_comm):
        for sid in range(line_comm.num_states):
            assert line_comm.marked[sid] == (line_comm.plant_of(sid) == "0")

    def test_spec_flag_from_plant_membership(self, line_comm, line_model):
        spec_states = set(line_model.spec.states)
        for sid in range(line_comm.num_states):
            assert line_comm.in_spec[sid] == (line_comm.plant_of(sid) in spec_states)


class TestExhaustiveOracle:
    def test_single_channel_state_space(self):
        """Tiny instance checked against an independent fixed-point search
        that reimplements the queue rules on plain tuples."""
        plant = ta(
            "P", ["0", "1"], ["a", TICK],
            [("0", "a", "1"), ("0", TICK, "0"), ("1", TICK, "1")],
            "0", ["0"],
        )
        net = NetworkConfig.build(
            2,
            [["a", TICK], [TICK]],
            [["a", TICK], [TICK]],
            [["a", TICK], [TICK]],
            [],
            {(0, 1): ChannelLink(frozenset(["a"]), frozenset(), 1)},
        )
        comm = build_comm_automaton(plant, plant, net)

        # independent exploration over (plant state, queue of (event, age))
        delta = {("0", "a"): "1", ("0", TICK): "0", ("1", TICK): "1"}
        seen = set()
        frontier = [("0", ())]
        while frontier:
            cfg = frontier.pop()
            if cfg in seen:
                continue
            seen.add(cfg)
            q, queue = cfg
            if (q, TICK) in delta:
                aged = tuple((e, n + 1) for e, n in queue)
                if all(n <= 1 for _, n in aged):
                    frontier.append((delta[(q, TICK)], aged))
            if (q, "a") in delta:
                frontier.append((delta[(q, "a")], queue + (("a", 0),)))
            if queue:
                frontier.append((q, queue[1:]))  # deliver the front entry

        got = {
            (comm.plant_of(s), comm.channels_of(s)[0])
            for s in range(comm.num_states)
        }
        assert got == seen
        assert seen == {("0", ()), ("1", (("a", 0),)), ("1", (("a", 1),)), ("1", ())}

    def test_rejects_non_subautomaton_spec(self):
        plant = ta("P", ["0"], [TICK], [("0", TICK, "0")], "0", ["0"])
        other = ta("H", ["0"], [TICK, "x"], [("0", TICK, "0")], "0", ["0"])
        with pytest.raises(ModelError):
            build_comm_automaton(plant, other, no_com_net([TICK, "x"], [TICK]))

    def test_rejects_spec_state_foreign_to_plant(self):
        """Preparing the problem drops only the spec states the plant's
        accessible part lost, never one the plant does not have."""
        plant = ta("P", ["0", "1"], [TICK, "a"], [("0", TICK, "0"), ("0", "a", "1"), ("1", TICK, "1")], "0", ["0"])
        other = ta("H", ["0", "z"], [TICK, "a"], [("0", TICK, "0"), ("0", "a", "z"), ("z", TICK, "z")], "0", ["0"])
        net = no_com_net([TICK, "a"], [TICK])
        with pytest.raises(ModelError, match="states must be a subset of the plant's states"):
            build_comm_automaton(plant, other, net)
        with pytest.raises(ModelError, match="states must be a subset of the plant's states"):
            solve_control_problem(plant, other, net)


class TestStructuralInvariants:
    def test_delivery_and_loss_keep_plant_component(self, line_comm):
        for sid in range(line_comm.num_states):
            for event, dst in line_comm.transitions[sid].items():
                if isinstance(event, (Deliver, Lose)):
                    assert line_comm.plant_of(dst) == line_comm.plant_of(sid)

    def test_plant_events_grow_queues_by_carrier_count(self, line_comm):
        net = line_comm.net
        for sid in range(line_comm.num_states):
            for event, dst in line_comm.transitions[sid].items():
                if not isinstance(event, Plant) or event.event == TICK:
                    continue
                before = line_comm.channels_of(sid)
                after = line_comm.channels_of(dst)
                carriers = sum(
                    1 for link in net.channels.values() if event.event in link.events
                )
                growth = sum(len(q) for q in after) - sum(len(q) for q in before)
                assert growth == carriers
                # ages unchanged on push
                for k, queue in enumerate(before):
                    assert after[k][: len(queue)] == queue

    def test_ages_bounded_at_every_reachable_state(self, line_comm):
        for sid in range(line_comm.num_states):
            for key, queue in zip(line_comm.net.channel_keys, line_comm.channels_of(sid)):
                bound = line_comm.net.channels[key].delay_bound
                ages = [age for _event, age in queue]
                assert all(a <= bound for a in ages)
                assert ages == sorted(ages, reverse=True)

    def test_random_walk_matches_plant_on_projection(self, line_comm, line_model):
        """Statewise form of the projection argument: after any run, the
        plant component equals the plant state reached on the projected
        string."""
        rng = random.Random(3)
        plant = line_model.plant
        for _ in range(200):
            sid = line_comm.initial
            string = []
            for _ in range(rng.randint(0, 12)):
                options = tuple(line_comm.transitions[sid])
                if not options:
                    break
                event = rng.choice(options)
                string.append(event)
                sid = line_comm.target(sid, event)
            assert plant.run(project_plant(string)) == line_comm.plant_of(sid)


def line_net(line_model, delays):
    """The line model's network with delay bound ``delays[i]`` on every
    channel that supervisor ``i`` sends on."""
    net = line_model.network
    channels = {
        key: dataclasses.replace(link, delay_bound=delays[key[0]])
        for key, link in net.channels.items()
    }
    return dataclasses.replace(net, channels=channels)


def line_with_delays(line_model, delays):
    """The line model's automaton with the delays of ``line_net``."""
    return build_comm_automaton(line_model.plant, line_model.spec, line_net(line_model, delays))


def comm_digest(comms):
    """sha256 over every state of ``comms``: its rendering, its rendered
    moves, its markings and its exit table."""
    digest = hashlib.sha256()
    for comm in comms:
        for s in range(comm.num_states):
            row = (
                comm.render_state(s),
                [(render_event(e), t) for e, t in comm.moves(s)],
                comm.in_spec[s], comm.marked[s], comm.spec_marked[s],
                sorted(comm.exits[s]), sorted(comm.stays[s]), comm.tick_critical[s],
            )
            digest.update(repr(row).encode() + b"\n")
        digest.update(b"--\n")
    return digest.hexdigest()


def queue_fill(comm, plant):
    """Every channel queue of every state as (length, (delay_bound + 1) * L),
    where L is the most non-tick events ``plant`` can fire in a row."""
    longest: dict[str, int] = {}

    def run_from(q):
        if q not in longest:
            longest[q] = max((1 + run_from(dst) for e, dst in plant.moves(q) if e != TICK), default=0)
        return longest[q]

    most = max(run_from(q) for q in plant.states)
    return [
        (len(queue), (comm.net.channels[key].delay_bound + 1) * most)
        for _, theta in comm.keys
        for key, queue in zip(comm.net.channel_keys, theta)
    ]


class TestQueueBound:
    """Between two ticks a plant with no cycle of non-tick events fires at
    most L events, and no entry outlives its channel's delay bound, so no
    queue holds more than (delay_bound + 1) * L entries: the construction is
    finite without a queue cap."""

    @pytest.mark.parametrize("delays", [(6, 1), (1, 6), (6, 6)], ids=lambda d: f"{d[0]}/{d[1]}")
    def test_line_queues_within_bound(self, line_model, delays):
        fill = queue_fill(line_with_delays(line_model, delays), line_model.plant)
        assert fill and all(length <= bound for length, bound in fill)

    @pytest.mark.parametrize("params", [
        GeneratorParams(),
        GeneratorParams(n=3, max_comm_states=150),
        GeneratorParams(max_delay=3, max_comm_states=2000),
    ], ids=["default", "n3", "delay3"])
    def test_random_queues_within_bound(self, params):
        fill = []
        for seed in range(100):
            inst = random_instance(seed, params)
            fill += queue_fill(inst.comm, inst.plant)
        assert all(length <= bound for length, bound in fill)
        assert any(length == bound > 0 for length, bound in fill)  # the bound is reached


# the deep-queue instance set of ``TestQueueBound``
DEEP_QUEUES = GeneratorParams(max_delay=3, max_comm_states=2000)


def calculus_moves(plant, net, key):
    """The moves of state ``key`` = (q, theta) as the paper defines them,
    each with its target key: tick when the plant has it at ``q`` and
    ``age`` is defined on every queue; each other plant move, with
    ``enqueue`` on the channels that carry its event; one delivery per
    channel whose ``pop`` is defined; one loss per ``drops`` entry."""
    q, theta = key
    links = [net.channels[k] for k in net.channel_keys]

    def with_queue(k, queue):
        return theta[:k] + (queue,) + theta[k + 1:]

    moves = []
    aged = tuple(age(queue, link.delay_bound) for queue, link in zip(theta, links))
    if plant.target(q, TICK) is not None and None not in aged:
        moves.append((Plant(TICK), (plant.target(q, TICK), aged)))
    for event, dst in plant.moves(q):
        if event != TICK:
            pushed = tuple(
                enqueue(queue, event) if event in link.events else queue for queue, link in zip(theta, links)
            )
            moves.append((Plant(event), (dst, pushed)))
    for k, ((i, j), queue) in enumerate(zip(net.channel_keys, theta)):
        popped = pop(queue)
        if popped is not None:
            moves.append((Deliver(i, j, popped[0]), (q, with_queue(k, popped[1]))))
    for k, ((i, j), queue, link) in enumerate(zip(net.channel_keys, theta, links)):
        for position, rest in drops(queue, link.lossy):
            moves.append((Lose(i, j, position), (q, with_queue(k, rest))))
    return moves


def assert_moves_follow_calculus(comm, plant, spec):
    """Compare every state's moves in ``comm``, built from ``plant`` and
    ``spec``, in order and by target key, with ``calculus_moves`` on the
    prepared plant; returns the number of states compared."""
    net = comm.net
    plant = prepare(plant, spec, net)[0]
    assert comm.keys[comm.initial] == (plant.initial, ((),) * len(net.channel_keys))
    for sid, key in enumerate(comm.keys):
        assert [(e, comm.keys[t]) for e, t in comm.moves(sid)] == calculus_moves(plant, net, key), key
    return comm.num_states


class TestMovesFollowTheQueueCalculus:
    """The moves the build writes are exactly those the per-queue channel
    calculus defines, state by state: nothing missing, nothing extra, in
    exploration order."""

    @pytest.mark.parametrize("delays", [(6, 1), (1, 6), (6, 6)], ids=lambda d: f"{d[0]}/{d[1]}")
    def test_line_model(self, line_model, delays):
        comm = line_with_delays(line_model, delays)
        assert assert_moves_follow_calculus(comm, line_model.plant, line_model.spec) > 1

    @pytest.mark.parametrize("params", [
        GeneratorParams(),
        GeneratorParams(n=3, max_comm_states=150),
        DEEP_QUEUES,
    ], ids=["default", "n3", "delay3"])
    def test_random_instances(self, params):
        for seed in range(100):
            inst = random_instance(seed, params)
            assert_moves_follow_calculus(inst.comm, inst.plant, inst.spec)


class TestCommIdentity:
    """States, numbering, moves and exit tables of the automaton, pinned as
    sha256 digests, so that a change of the channel-state form cannot change
    them."""

    @pytest.mark.parametrize("delays,expected", [
        ((6, 1), "3d846127d7aa0f1e648c94b2958fd0db3766d39aecc97da9905dc4068005ce02"),
        ((1, 6), "c3da2858d61b2ba38ae403644c6bb00dbc47101ed47d6c04fa84e9f74bb14a5e"),
        ((6, 6), "a78816c70a691d8990de2cfdb6ca242c942c4f24b757b392e6943fdedbc0cf65"),
        ((10, 1), "10d2f2c1e8d94ce48bfd92a369f5d573dff4c6eb2cb76aca559fa588cd1c1bbc"),
    ], ids=["6/1", "1/6", "6/6", "10/1"])
    def test_line_model(self, line_model, delays, expected):
        assert comm_digest([line_with_delays(line_model, delays)]) == expected

    @pytest.mark.parametrize("params,expected", [
        (GeneratorParams(), "cbbf8a4d85590cee10707d8e4b2312833f580545d82eb83ca52e45ee9384203a"),
        (GeneratorParams(n=3, max_comm_states=150),
         "56b8622f32d7b66bf5ad46620984131987b50af792d78200b2f73ab1e8bbe26e"),
        (DEEP_QUEUES, "158498d81aff332a016a0fe3437058783e0086927a81a5e3c9bc53e9157e3118"),
    ], ids=["default", "n3", "delay3"])
    def test_random_instances(self, params, expected):
        assert comm_digest(random_instance(seed, params).comm for seed in range(40)) == expected

    def test_deep_queues_lose_beyond_the_front(self):
        """The ``delay3`` set pins losses at every queue position, not only
        at the front."""
        comms = [random_instance(seed, DEEP_QUEUES).comm for seed in range(40)]
        assert any(e.position > 1 for comm in comms for e in comm.table.events if isinstance(e, Lose))


def spec_walk_digest(comms):
    """sha256 over the specification walk of ``comms``: per state, whether
    it is in ``spec_tree`` and, if so, its rendered ``spec_path``."""
    digest = hashlib.sha256()
    for comm in comms:
        for s in range(comm.num_states):
            reached = s in comm.spec_tree.index
            path = [render_event(e) for e in comm.spec_path(s)] if reached else None
            digest.update(repr((reached, path)).encode() + b"\n")
        digest.update(b"--\n")
    return digest.hexdigest()


class TestSpecWalkIdentity:
    """The specification walk's reachable set and shortest paths, pinned as
    sha256 digests: ``comm_digest`` omits them, and the controllability and
    Lm-closure witnesses are read off those links."""

    @pytest.mark.parametrize("delays,expected", [
        ((6, 1), "a24c6aa51afb34ec9f3677cc010cac7fcb2d276297dcd832a3e0a7516cc46f9b"),
        ((1, 6), "eb482f15fc4bbe656746b22e426920f448215169a179bf608bac918d0dcff2df"),
        ((6, 6), "10dfd48278dce284dbee13926d3a71cc60072a8dee663914fabbc78b7a2acbc1"),
        ((10, 1), "e99471ec4631b7d7b0e569232069ea95b94f4669434c5e098e5b213f727606e5"),
    ], ids=["6/1", "1/6", "6/6", "10/1"])
    def test_line_model(self, line_model, delays, expected):
        assert spec_walk_digest([line_with_delays(line_model, delays)]) == expected

    @pytest.mark.parametrize("params,expected", [
        (GeneratorParams(), "43aaea8535b845a17bc0ae7a999123c200f5460d47823bc308f97d8c827ab293"),
        (GeneratorParams(n=3, max_comm_states=150), "37bf73e029b4de1edde4925d16b4fa4680a557974367fa130afa5704e5ac3a49"),
        (DEEP_QUEUES, "02f5b8e1f212c25cab8ce9cbe47dde8776b8df3bc5f3c46b3726d9ee48e34028"),
    ], ids=["default", "n3", "delay3"])
    def test_random_instances(self, params, expected):
        assert spec_walk_digest(random_instance(seed, params).comm for seed in range(40)) == expected


def observer_digest(comms):
    """sha256 over every observer of ``comms``: per state, its sorted
    elements, its moves in order and its four summaries."""
    digest = hashlib.sha256()
    for comm in comms:
        for i in range(comm.net.n):
            observer = build_observer(comm, i)
            elements = observer_elements(observer)
            for t in range(observer.num_states):
                row = (
                    sorted(elements[t]), list(observer.transitions[t].items()),
                    observer.in_spec[t], sorted(observer.exits[t]), sorted(observer.stays[t]),
                    observer.tick_critical[t],
                )
                digest.update(repr(row).encode() + b"\n")
            digest.update(b"--\n")
    return digest.hexdigest()


class TestObserverIdentity:
    """Elements, numbering, moves and summaries of every observer, pinned as
    sha256 digests, so that a faster subset construction cannot change
    them."""

    @pytest.mark.parametrize("delays,expected", [
        ((6, 1), "145f43803e85a360adad31adaacd5e6cbecdb5ce9a7e817dfd4a042f6e790504"),
        ((1, 6), "bb5af4db25e539c43dd5c280c7aab142a09cb5d287acdd4cb0c674a326bd5338"),
        ((10, 1), "d1cc2c3384ca65a1d87aa590cebfe57a1c26bb22f04a6fddc3fe6ef1906f40ab"),
    ], ids=["6/1", "1/6", "10/1"])
    def test_line_model(self, line_model, delays, expected):
        assert observer_digest([line_with_delays(line_model, delays)]) == expected

    def test_random_instances(self):
        params = GeneratorParams(n=3, max_comm_states=150)
        assert observer_digest(random_instance(seed, params).comm for seed in range(40)) == (
            "3dc409114041ea1fedeccb4164a9b65c4df0bc8e8cba79ab0f7fb34471c3b587"
        )


def event_table_digest(comms):
    """sha256 over the event table of each of ``comms`` and over its rows
    restricted to the specification (the moves into ``in_spec`` states):
    the rendered events, then each state's ids and targets."""
    digest = hashlib.sha256()
    for comm in comms:
        table, in_spec = comm.table, comm.in_spec
        rows = list(zip(table.ids, table.targets))
        spec_rows = [
            (tuple(e for e, t in zip(row, dsts) if in_spec[t]), tuple(t for t in dsts if in_spec[t]))
            for row, dsts in rows
        ]
        for part in (rows, spec_rows):
            digest.update(repr([render_event(e) for e in table.events]).encode() + b"\n")
            for row in part:
                digest.update(repr(row).encode() + b"\n")
            digest.update(b"--\n")
    return digest.hexdigest()


class TestEventTableIdentity:
    """Event numbering, ids and targets of every event table, pinned as
    sha256 digests, so that reading the rows as the build wrote them cannot
    change them."""

    @pytest.mark.parametrize("delays,expected", [
        ((6, 1), "8d5cedb9e0958c8c84b947b5638d686478a90206e62c6a3a27a5717e5b54ca4a"),
        ((1, 6), "db75363dab6d53df1ac16809ab3baaae5c915416fefe96578c58a67c799058d5"),
        ((10, 1), "89b00a9e4665f80181c3fd6034dcc5f09c015d9afca58d3bf2dba473a19fc97d"),
    ], ids=["6/1", "1/6", "10/1"])
    def test_line_model(self, line_model, delays, expected):
        assert event_table_digest([line_with_delays(line_model, delays)]) == expected

    @pytest.mark.parametrize("params,expected", [
        (GeneratorParams(), "38fff172f27f785fc40dba745108270777da5f2f69c1fef01fabf656cc965a20"),
        (GeneratorParams(n=3, max_comm_states=150),
         "7624cdea3a46d2b7ea2626d08e815ae4fa3ac686df5bf3570e7e52b1fc72f735"),
    ], ids=["default", "n3"])
    def test_random_instances(self, params, expected):
        assert event_table_digest(random_instance(seed, params).comm for seed in range(40)) == expected

    def test_rows_are_written_in_event_key_order(self, line_model):
        """``build_event_table`` reads each row as it stands, so the build
        must write every row in strictly increasing ``event_key`` order: the
        stored rows of event ids then strictly increase."""
        comms = [line_with_delays(line_model, delays) for delays in [(6, 1), (1, 6), (6, 6)]]
        for params in [GeneratorParams(), GeneratorParams(n=3, max_comm_states=150)]:
            comms += [random_instance(seed, params).comm for seed in range(40)]
        for comm in comms:
            events = comm.table.events
            assert list(events) == sorted(events, key=event_key)
            for row in comm.table.ids:
                assert all(a < b for a, b in zip(row, row[1:])), row


class TestProjections:
    def test_plant_projection_empty(self):
        assert project_plant([]) == ()

    def test_plant_projection_drops_channel_events(self):
        mu = [Plant("a1"), Deliver(0, 1, "a1"), Plant(TICK), Lose(1, 0, 1)]
        assert project_plant(mu) == ("a1", TICK)

    def test_observation_keeps_own_events(self, line_model):
        net = line_model.network
        mu = [Plant("a1"), Plant(TICK)]
        assert project_observation(mu, 0, net) == ("a1", TICK)

    def test_observation_drops_foreign_events(self, line_model):
        net = line_model.network
        assert project_observation([Plant("a2")], 0, net) == ()

    def test_observation_sees_deliveries(self, line_model):
        net = line_model.network
        mu = [Plant("a2"), Deliver(1, 0, "a2")]
        assert project_observation(mu, 0, net) == ("a2",)
        assert project_observation(mu, 1, net) == ("a2",)

    def test_tick_count_preserved(self, line_comm, line_model):
        rng = random.Random(5)
        net = line_model.network
        for _ in range(100):
            sid = line_comm.initial
            string = []
            for _ in range(rng.randint(0, 10)):
                options = tuple(line_comm.transitions[sid])
                if not options:
                    break
                event = rng.choice(options)
                string.append(event)
                sid = line_comm.target(sid, event)
            ticks = sum(1 for e in string if e == Plant(TICK))
            for i in range(net.n):
                obs = project_observation(string, i, net)
                assert sum(1 for o in obs if o == TICK) == ticks


def broken_channel(*events):
    """An edit that adds ``events`` to the channel from supervisor 1 to 2."""

    def edit(net):
        link = net.channels[0, 1]
        return dataclasses.replace(
            net, channels={**net.channels, (0, 1): dataclasses.replace(link, events=link.events | set(events))}
        )

    return edit


# edits of the line model's network, made without NetworkConfig.build, that
# would let one observed symbol name two events, or whose per-supervisor
# lists do not have one entry per supervisor
BROKEN_NETWORKS = {
    "shared event": lambda net: dataclasses.replace(net, alphabets=(net.alphabets[0], net.alphabets[1] | {"a1"})),
    "unobserved channel event": broken_channel("a2"),
    "tick on a channel": broken_channel(TICK),
    "more supervisors than lists": lambda net: dataclasses.replace(net, n=3),
    "short controllable list": lambda net: dataclasses.replace(net, controllable=net.controllable[:1]),
    "short observable list": lambda net: dataclasses.replace(net, observable=net.observable[:1]),
}


class TestOneEventPerSymbol:
    """Each symbol a supervisor observes names one event of the automaton,
    which the observers, the witness walks and the closed loop rely on;
    ``automata.prepare`` validates the network so no build can break it."""

    @staticmethod
    def assert_one_event_per_symbol(comm):
        for i in range(comm.net.n):
            symbols = [symbol for symbol in observation_symbols(comm, i) if symbol is not None]
            assert len(symbols) == len(set(symbols)), (i, symbols)

    @pytest.mark.parametrize("params", [
        GeneratorParams(),
        GeneratorParams(n=3, max_comm_states=150),
        DEEP_QUEUES,
        GeneratorParams(n=3, max_delay=3, max_comm_states=600),
    ], ids=["default", "n3", "delay3", "n3-delay3"])
    def test_random_instances(self, params):
        for seed in range(150):
            self.assert_one_event_per_symbol(random_instance(seed, params).comm)

    @pytest.mark.parametrize("delays", [(6, 1), (1, 6), (12, 1)], ids=lambda d: f"{d[0]}/{d[1]}")
    def test_line_model(self, line_model, delays):
        self.assert_one_event_per_symbol(line_with_delays(line_model, delays))

    @pytest.mark.parametrize("edit", BROKEN_NETWORKS.values(), ids=BROKEN_NETWORKS)
    def test_build_rejects_broken_network(self, line_model, edit):
        with pytest.raises(SchemaError):
            build_comm_automaton(line_model.plant, line_model.spec, edit(line_model.network))

    def test_rejection_survives_python_o(self, models_dir):
        """``python -O`` strips asserts, so the gate must not be one."""
        script = (
            "import sys\n"
            "from netsup import build_comm_automaton, load_model\n"
            "from netsup.errors import SchemaError\n"
            "from test_comm import BROKEN_NETWORKS\n"
            "m = load_model(sys.argv[1])\n"
            "for edit in BROKEN_NETWORKS.values():\n"
            "    try:\n"
            "        build_comm_automaton(m.plant, m.spec, edit(m.network))\n"
            "    except SchemaError:\n"
            "        print('rejected')\n"
        )
        path = os.pathsep.join([str(Path(dot.__file__).resolve().parents[1]), str(Path(__file__).parent)])
        done = subprocess.run(
            [sys.executable, "-O", "-c", script, str(models_dir / "production_line.json")],
            capture_output=True, env={**os.environ, "PYTHONPATH": path}, timeout=120, text=True,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "rejected\n" * len(BROKEN_NETWORKS)


class TestProjectionEquivalence:
    def test_holds_on_fixture(self, line_model, line_comm):
        assert check_projection_equivalence(line_model.plant, line_comm).equal

    def test_projection_missing_a_plant_move(self, line_model, line_comm, without_move):
        clone = without_move(line_comm, line_comm.initial, Plant("a1"))
        verdict = check_projection_equivalence(line_model.plant, clone)
        assert verdict == ProjectionVerdict(False, ("a1",), only_in="plant")

    def test_plant_missing_a_move_of_the_projection(self, line_model, line_comm):
        plant = line_model.plant
        moves = [(q, e, t) for q in plant.states for e, t in plant.moves(q) if (q, e) != ("4", "a1")]
        smaller = ta(plant.name, plant.states, plant.alphabet, moves, plant.initial, plant.marked)
        verdict = check_projection_equivalence(smaller, line_comm)
        assert verdict == ProjectionVerdict(False, ("a1", TICK, "b1", TICK, "a1"), only_in="projection")

    def test_holds_without_channels(self, line_model):
        net = no_com_net(["a1", "b1", TICK], ["a2", "b2", TICK])
        comm = build_comm_automaton(line_model.plant, line_model.spec, net)
        assert check_projection_equivalence(line_model.plant, comm).equal

    def test_holds_on_100_random_instances(self):
        for seed in range(100):
            inst = random_instance(seed)
            verdict = check_projection_equivalence(inst.plant, inst.comm)
            assert verdict.equal, f"seed {seed}: {verdict}"

    def test_random_comm_strings_project_into_plant(self):
        rng = random.Random(9)
        for seed in range(20):
            inst = random_instance(seed)
            comm, plant = inst.comm, inst.plant
            for _ in range(50):
                sid = comm.initial
                string = []
                for _ in range(rng.randint(0, 10)):
                    options = tuple(comm.transitions[sid])
                    if not options:
                        break
                    event = rng.choice(options)
                    string.append(event)
                    sid = comm.target(sid, event)
                assert plant.run(project_plant(string)) is not None


class TestEventOrderAndRendering:
    def test_event_key_orders_tick_first(self):
        events = [Lose(0, 1, 1), Plant("a1"), Deliver(0, 1, "b1"), Plant(TICK)]
        ordered = sorted(events, key=event_key)
        assert ordered == [Plant(TICK), Plant("a1"), Deliver(0, 1, "b1"), Lose(0, 1, 1)]

    def test_render_uses_one_based_indices(self):
        assert render_event(Deliver(1, 0, "a2")) == "f21(a2)"
        assert render_event(Lose(0, 1, 2)) == "g12(2)"
        assert render_event(Plant("a1")) == "a1"

    def test_channel_names_stay_distinct_past_nine_supervisors(self):
        """Two-digit indices are set apart by a comma, so no two channels of
        a 12-supervisor network share a name."""
        pairs = [(i, j) for i in range(12) for j in range(12) if i != j]
        assert len({render_event(Deliver(i, j, "a")) for i, j in pairs}) == len(pairs)
        assert len({render_event(Lose(i, j, 1)) for i, j in pairs}) == len(pairs)
        assert render_event(Deliver(0, 10, "a")) == "f1,11(a)"
        assert render_event(Deliver(10, 0, "a")) == "f11,1(a)"
        assert render_event(Lose(0, 10, 1)) == "g1,11(1)"
        assert render_event(Lose(8, 0, 1)) == "g91(1)"

    def test_exploration_order_is_canonical(self, line_comm):
        for sid in range(line_comm.num_states):
            events = list(tuple(line_comm.transitions[sid]))
            assert events == sorted(events, key=event_key)


    def test_event_table_lists_moves_in_exploration_order(self, line_comm):
        """Ids follow event_key, and each state's moves by id are its
        transitions in exploration order."""
        for comm in [line_comm] + [random_instance(seed).comm for seed in range(20)]:
            table = comm.table
            assert list(table.events) == sorted(set(table.events), key=event_key)
            for sid, moves in enumerate(comm.transitions):
                by_id = [(table.events[e], t) for e, t in zip(table.ids[sid], table.targets[sid])]
                assert by_id == list(moves.items())

    def test_copies_rebuild_derived_tables(self, line_model, without_move):
        comm = build_comm_automaton(line_model.plant, line_model.spec, line_model.network)
        table = comm.table
        observer = comm.observer(0)
        clone = copy.deepcopy(comm)
        assert clone.table == table and clone.table is not table
        assert clone.observer(0) is not observer
        edited = without_move(comm, 0, comm.moves(0)[0][0])
        assert len(edited.table.ids[0]) == len(table.ids[0]) - 1
        assert edited.observer(0) is not observer
        assert comm.table is table and comm.observer(0) is observer


class TestTransitionsView:
    """``transitions`` is a by-event view derived from the event table on
    first use; the pipeline itself reads the table only."""

    @staticmethod
    def unbuilt(comm):
        return "transitions" not in comm.__dict__

    def test_solve_never_builds_it(self, line_model):
        report = solve_control_problem(line_model.plant, line_model.spec, line_model.network)
        assert report.solvable and self.unbuilt(report.comm)
        net = line_net(line_model, (1, 6))
        report = solve_control_problem(line_model.plant, line_model.spec, net, diagnostic=True)
        assert not report.solvable and not report.language.equal and self.unbuilt(report.comm)

    def test_synthesis_stages_never_build_it(self, line_model):
        comm = build_comm_automaton(line_model.plant, line_model.spec, line_model.network)
        sups = [synthesize_supervisor(comm, i) for i in range(comm.net.n)]
        assert check_admissibility(sups, comm).holds and self.unbuilt(comm)
        loop = closed_loop(comm, sups)
        assert self.unbuilt(comm)
        assert language_equal(loop, comm.spec_view()).equal and self.unbuilt(comm)
        assert render_trace(simulate(loop, 5, 50), comm) and self.unbuilt(comm)
        assert dot.comm_automaton_dot(comm) and self.unbuilt(comm)
        assert dot.closed_loop_dot(loop) and dot.observer_dot(sups[0].observer, comm)
        assert self.unbuilt(comm)

    def test_view_equals_moves(self, line_model):
        comms = [line_with_delays(line_model, delays) for delays in [(6, 1), (1, 6)]]
        comms += [random_instance(seed).comm for seed in range(20)]
        for comm in comms:
            assert self.unbuilt(comm)
            assert len(comm.transitions) == comm.num_states
            for sid in range(comm.num_states):
                assert comm.transitions[sid] == dict(comm.moves(sid))


EVENTS = [
    (Plant(event="a1"), ("event",), "Plant(event='a1')", "a1"),
    (
        Deliver(sender=1, receiver=0, event="a2"),
        ("sender", "receiver", "event"),
        "Deliver(sender=1, receiver=0, event='a2')",
        "f21(a2)",
    ),
    (
        Lose(sender=0, receiver=1, position=2),
        ("sender", "receiver", "position"),
        "Lose(sender=0, receiver=1, position=2)",
        "g12(2)",
    ),
]


@pytest.mark.parametrize("event, fields, text, rendered", EVENTS)
class TestEventValues:
    def test_repr_and_rendering(self, event, fields, text, rendered):
        assert repr(event) == text
        assert render_event(event) == rendered

    def test_hash_is_the_hash_of_its_fields(self, event, fields, text, rendered):
        """Pins set and dict iteration order: an event hashes like the tuple
        of its fields in declaration order."""
        values = tuple(getattr(event, name) for name in fields)
        assert tuple(event) == values
        assert hash(event) == hash(tuple(event)) == hash(values)
        assert event == values

    def test_equal_after_pickle_and_deepcopy(self, event, fields, text, rendered):
        for clone in (pickle.loads(pickle.dumps(event)), copy.deepcopy(event)):
            assert clone == event and type(clone) is type(event)
            assert hash(clone) == hash(event)

    def test_immutable(self, event, fields, text, rendered):
        with pytest.raises(AttributeError):
            setattr(event, fields[0], getattr(event, fields[0]))
        with pytest.raises(AttributeError):
            event.extra = 1

    def test_never_equal_to_another_class(self, event, fields, text, rendered):
        others = [Plant("a1"), Plant(TICK), Deliver(0, 1, "a1"), Deliver(1, 0, "a2"),
                  Lose(0, 1, 1), Lose(0, 1, 2), Lose(1, 0, 1)]
        for other in others:
            if type(other) is not type(event):
                assert event != other


class TestResourceGuards:
    def test_queue_overflow_reports_model_error_with_trace(self):
        """A plant violating the no-non-tick-cycle assumption would pump a
        channel queue without bound; the builder validates the plant first
        and reports the offending cycle instead of exploring."""
        plant = ta(
            "P", ["0"], ["a", TICK], [("0", "a", "0"), ("0", TICK, "0")], "0", ["0"],
        )
        net = NetworkConfig.build(
            2, [["a", TICK], [TICK]], [["a", TICK], [TICK]], [["a", TICK], [TICK]],
            [],
            {(0, 1): ChannelLink(frozenset(["a"]), frozenset(), 1)},
        )
        with pytest.raises(ModelError, match="timed assumption 1") as excinfo:
            build_comm_automaton(plant, plant, net)
        assert str(excinfo.value).endswith("cycle of non-tick events: 0 -a->")

    def test_state_cap_raises_resource_error(self, line_model, line_comm):
        """The budget fits exactly: ``randgen`` accepts or rejects an
        instance at ``max_comm_states`` by this boundary."""
        from netsup.errors import ResourceLimitError

        size = line_comm.num_states
        with pytest.raises(ResourceLimitError, match=f"channel-augmented automaton exceeds {size - 1} states"):
            build_comm_automaton(
                line_model.plant, line_model.spec, line_model.network, max_states=size - 1
            )
        built = build_comm_automaton(line_model.plant, line_model.spec, line_model.network, max_states=size)
        assert built.num_states == size
