"""Channel-augmented automaton: construction, projections, equivalence."""

import copy
import dataclasses
import hashlib
import pickle
import random

import pytest

from netsup import solve_control_problem
from netsup.automata import TICK, TimedAutomaton
from netsup.comm import (
    Deliver,
    Lose,
    Plant,
    build_comm_automaton,
    build_observer,
    check_projection_equivalence,
    event_key,
    project_observation,
    project_plant,
    render_event,
)
from netsup.errors import ModelError
from netsup.network import ChannelLink, NetworkConfig
from netsup.randgen import GeneratorParams, random_instance


def ta(name, states, alphabet, transitions, initial, marked):
    return TimedAutomaton.build(name, states, alphabet, transitions, initial, marked)


def no_com_net(alphabet_1, alphabet_2):
    return NetworkConfig.build(
        2,
        [alphabet_1, alphabet_2],
        [alphabet_1, alphabet_2],
        [alphabet_1, alphabet_2],
        [],
        [[0, 0], [0, 0]],
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
        labels = set(line_comm.state_labels())
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
            [[0, 1], [0, 0]],
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
            (comm.plant_of(s), tuple((e.event, e.age) for e in comm.channels_of(s)[0]))
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
                ages = [e.age for e in queue]
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


def line_with_delays(line_model, delays):
    """The line model's automaton with delay bound ``delays[i]`` on every
    channel that supervisor ``i`` sends on."""
    net = line_model.network
    channels = {
        key: dataclasses.replace(link, delay_bound=delays[key[0]])
        for key, link in net.channels.items()
    }
    return build_comm_automaton(
        line_model.plant, line_model.spec, dataclasses.replace(net, channels=channels)
    )


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


class TestCommIdentity:
    """States, numbering, moves and exit tables of the automaton, pinned as
    sha256 digests, so that a change of the channel-state form cannot change
    them."""

    @pytest.mark.parametrize("delays,expected", [
        ((6, 1), "3d846127d7aa0f1e648c94b2958fd0db3766d39aecc97da9905dc4068005ce02"),
        ((1, 6), "c3da2858d61b2ba38ae403644c6bb00dbc47101ed47d6c04fa84e9f74bb14a5e"),
        ((6, 6), "a78816c70a691d8990de2cfdb6ca242c942c4f24b757b392e6943fdedbc0cf65"),
    ], ids=["6/1", "1/6", "6/6"])
    def test_line_model(self, line_model, delays, expected):
        assert comm_digest([line_with_delays(line_model, delays)]) == expected

    @pytest.mark.parametrize("params,expected", [
        (GeneratorParams(), "cbbf8a4d85590cee10707d8e4b2312833f580545d82eb83ca52e45ee9384203a"),
        (GeneratorParams(n=3, max_comm_states=150),
         "56b8622f32d7b66bf5ad46620984131987b50af792d78200b2f73ab1e8bbe26e"),
    ], ids=["default", "n3"])
    def test_random_instances(self, params, expected):
        assert comm_digest(random_instance(seed, params).comm for seed in range(40)) == expected


def observer_digest(comms):
    """sha256 over every observer of ``comms``: per state, its sorted
    elements, its moves in order and its four summaries."""
    digest = hashlib.sha256()
    for comm in comms:
        for i in range(comm.net.n):
            observer = build_observer(comm, i)
            for t in range(observer.num_states):
                row = (
                    sorted(observer.elements[t]), list(observer.transitions[t].items()),
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


class TestProjectionEquivalence:
    def test_holds_on_fixture(self, line_model, line_comm):
        assert check_projection_equivalence(line_model.plant, line_comm).equal

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

    def test_exploration_order_is_canonical(self, line_comm):
        for sid in range(line_comm.num_states):
            events = list(tuple(line_comm.transitions[sid]))
            assert events == sorted(events, key=event_key)


    def test_event_table_lists_moves_in_exploration_order(self, line_comm):
        """Ids follow event_key, and each state's moves by id are its
        transitions in exploration order."""
        for comm in [line_comm] + [random_instance(seed).comm for seed in range(20)]:
            table = comm.event_table()
            assert list(table.events) == sorted(set(table.events), key=event_key)
            for sid, moves in enumerate(comm.transitions):
                by_id = [(table.events[e], t) for e, t in zip(table.ids[sid], table.targets[sid])]
                assert by_id == list(moves.items())

    def test_copies_rebuild_derived_tables(self, line_model):
        comm = build_comm_automaton(line_model.plant, line_model.spec, line_model.network)
        table = comm.event_table()
        observer = comm.observer(0)
        clone = copy.deepcopy(comm)
        event = next(iter(clone.transitions[0]))
        del clone.transitions[0][event]
        assert len(clone.event_table().ids[0]) == len(table.ids[0]) - 1
        assert clone.observer(0) is not observer
        assert comm.event_table() is table


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
            [], [[0, 1], [0, 0]],
            {(0, 1): ChannelLink(frozenset(["a"]), frozenset(), 1)},
        )
        with pytest.raises(ModelError, match="timed assumption 1") as excinfo:
            build_comm_automaton(plant, plant, net)
        assert str(excinfo.value).endswith("cycle of non-tick events: 0 -a->")

    def test_state_cap_raises_resource_error(self, line_model):
        from netsup.errors import ResourceLimitError

        with pytest.raises(ResourceLimitError):
            build_comm_automaton(
                line_model.plant, line_model.spec, line_model.network, max_states=10
            )
