"""Observers, enable-set synthesis, admissibility, closed loop and the full
pipeline, cross-checked against string-level evaluation."""

import copy
import hashlib
import json
import random

import pytest

from netsup import synthesis
from netsup.automata import TICK
from netsup.comm import InSpecRows, Lose, Plant, build_comm_automaton, project_observation, render_event
from netsup.errors import ResourceLimitError
from netsup.modelio import parse_model
from netsup.network import NetworkConfig
from netsup.oracle import brute_closed_loop, enumerate_language
from netsup.randgen import GeneratorParams, random_instance
from netsup.synthesis import (
    SupervisorMap,
    build_observer,
    check_admissibility,
    closed_loop,
    language_equal,
    solve_control_problem,
    spec_nonblocking,
    synthesize_supervisor,
)
from netsup.verification import (
    Condition,
    build_twin_product,
    check_lm_closure,
    check_network_controllability,
    check_network_joint_observability,
)


def all_comm_strings(comm, bound):
    """Every generated string with its end state and stayed-in-spec flag."""
    out = [((), comm.initial, comm.in_spec[comm.initial])]
    frontier = out[:]
    for _ in range(bound):
        nxt = []
        for string, sid, flag in frontier:
            for event, dst in comm.transitions[sid].items():
                item = (string + (event,), dst, flag and comm.in_spec[dst])
                nxt.append(item)
        out.extend(nxt)
        frontier = nxt
    return out


class TestObserver:
    def test_full_observation_no_channels_is_identity(self, line_model):
        net = NetworkConfig.build(
            2,
            [["a1", "b1", TICK], ["a2", "b2", TICK]],
            [["a1", "b1", TICK], ["a2", "b2", TICK]],
            [["a1", "b1", TICK], ["a2", "b2", TICK]],
            [],
            [[0, 0], [0, 0]],
            {},
        )
        comm = build_comm_automaton(line_model.plant, line_model.spec, net)
        # supervisor 1 sees a1, b1, tick: from its viewpoint a2/b2 runs blur,
        # but with every plant event observable to one of them, the joint
        # structure per supervisor still determinizes to singleton kernels on
        # its own moves; check the weaker identity for a single supervisor
        # over a plant restricted to its own alphabet
        plant = next(a for a in line_model.automata if a.name == "R1")
        solo_net = NetworkConfig.build(
            1, [["a1", "b1", TICK]], [["a1", "b1", TICK]], [["a1", "b1", TICK]],
            [], [[0]], {},
        )
        solo = build_comm_automaton(plant, plant, solo_net)
        observer = build_observer(solo, 0)
        assert observer.num_states == solo.num_states == len(plant.states)
        for elements in observer.elements:
            assert len(elements) == 1

    def test_observer_covers_every_run(self, line_comm):
        """The observer state reached on a run's observation contains that
        run's end state with its stayed-in-spec flag."""
        for i in range(line_comm.net.n):
            observer = build_observer(line_comm, i)
            for string, sid, flag in all_comm_strings(line_comm, 8):
                obs = project_observation(string, i, line_comm.net)
                t = observer.run(obs)
                assert t is not None
                assert (sid, flag) in observer.elements[t]

    def test_delivery_informs_supervisor_one(self, line_comm):
        """After observing a2, supervisor 1's belief contains only states
        whose runs passed the delivery."""
        observer = build_observer(line_comm, 0)
        seen_a2 = [
            t for t in range(observer.num_states)
            if "a2" in [s for s in observer.transitions[t]]
        ]
        assert seen_a2, "some observer state must see an a2 delivery"
        for t in seen_a2:
            after = observer.transitions[t]["a2"]
            plants = {line_comm.plant_of(s) for s, _ in observer.elements[after]}
            assert "4" not in plants  # delivery of a2 rules out the pre-a2 stage


class TestEnableSets:
    def test_fixture_disables_a1_exactly_at_plant4_states(self, line_report):
        sup1 = line_report.supervisors[0]
        comm = line_report.comm
        saw_disabled = saw_enabled_at_0 = False
        for t, elements in enumerate(sup1.observer.elements):
            plants_in_spec = {comm.plant_of(s) for s, flag in elements if flag}
            if "4" in plants_in_spec:
                assert "a1" not in sup1.enable[t]
                saw_disabled = True
            if plants_in_spec == {"0"}:
                assert "a1" in sup1.enable[t]
                saw_enabled_at_0 = True
        assert saw_disabled and saw_enabled_at_0

    def test_supervisor_two_disables_nothing(self, line_report):
        sup2 = line_report.supervisors[1]
        own = line_report.comm.net.alphabets[1]
        for t in range(sup2.observer.num_states):
            assert sup2.enable[t] == own

    def test_uncontrollable_events_always_enabled(self):
        for seed in range(30):
            inst = random_instance(seed)
            for i in range(inst.net.n):
                sup = synthesize_supervisor(inst.comm, i)
                uncontrollable = inst.net.alphabets[i] - inst.net.controllable[i]
                for enable in sup.enable:
                    assert uncontrollable <= enable <= inst.net.alphabets[i]

    # seeds whose observation classes are fully captured within 8 events, so
    # the bounded evaluation is exact (measured once, frozen)
    EXACT_SEEDS = (0, 1, 2, 3, 4, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19)

    @pytest.mark.parametrize("seed", range(20))
    def test_enable_matches_string_level_evaluation(self, seed):
        """The enable-set at an observation is computed over the whole
        observation class; bounded direct evaluation over runs of length <= 8
        can only miss disablements, never add them."""
        inst = random_instance(seed)
        comm, net = inst.comm, inst.net
        strings = all_comm_strings(comm, 8)
        for i in range(net.n):
            sup = synthesize_supervisor(comm, i)
            by_obs = {}
            for string, sid, flag in strings:
                by_obs.setdefault(
                    project_observation(string, i, net), []
                ).append((sid, flag))
            for obs, ends in by_obs.items():
                disabled = set()
                for event in net.controllable[i]:
                    for sid, flag in ends:
                        if not flag:
                            continue
                        dst = comm.target(sid, Plant(event))
                        if dst is not None and not comm.in_spec[dst]:
                            disabled.add(event)
                            break
                expected = (net.alphabets[i] - net.controllable[i]) | (
                    net.controllable[i] - disabled
                )
                assert sup.command(obs) <= expected
                if seed in self.EXACT_SEEDS:
                    assert sup.command(obs) == expected


def with_uncontrollable(line_model, uncontrollable=("a1",)):
    """The fixture's automaton with ``uncontrollable`` (a1 by default)
    declared uncontrollable for supervisor 1."""
    net = line_model.network
    hacked_net = NetworkConfig.build(
        net.n,
        net.alphabets,
        [net.controllable[0] - set(uncontrollable), net.controllable[1]],
        net.observable,
        net.enforceable,
        [[1 if c else 0 for c in row] for row in net.com],
        dict(net.channels),
    )
    return build_comm_automaton(line_model.plant, line_model.spec, hacked_net)


def line_with_delays(models_dir, out, back):
    """The fixture with delay bounds 1->2 = ``out`` and 2->1 = ``back``."""
    doc = json.loads((models_dir / "production_line.json").read_text(encoding="utf-8"))
    for channel in doc["network"]["channels"]:
        channel["delay_bound"] = {(1, 2): out, (2, 1): back}[(channel["from"], channel["to"])]
    return parse_model(doc)


def unsolvable_model(models_dir):
    """The fixture with delay bounds 1->2 = 1 and 2->1 = 6."""
    return line_with_delays(models_dir, 1, 6)


@pytest.fixture(scope="module")
def unsolvable_report(models_dir):
    """``netsup solve --diagnostic`` on ``unsolvable_model``, where the
    closed loop's language is not the specification's."""
    model = unsolvable_model(models_dir)
    return solve_control_problem(model.plant, model.spec, model.network, diagnostic=True)


class TestObservationTableOnDemand:
    """Observers read the event table; only a walk for a witness builds an
    in-spec row reader, and it reads only the rows it visits."""

    @pytest.fixture
    def built(self, monkeypatch):
        """(supervisor, reader) for each InSpecRows built, in order."""
        readers = []
        real = InSpecRows.__init__

        def spy(rows, comm, supervisor):
            real(rows, comm, supervisor)
            readers.append((supervisor, rows))

        monkeypatch.setattr(InSpecRows, "__init__", spy)
        return readers

    def test_solvable_run_builds_none(self, line_model, built):
        report = solve_control_problem(line_model.plant, line_model.spec, line_model.network)
        assert report.verified and report.supervisors
        assert built == []

    def test_twin_product_witness_builds_one(self, models_dir, built):
        model = unsolvable_model(models_dir)
        report = solve_control_problem(model.plant, model.spec, model.network, diagnostic=True)
        witness = report.observability.witness
        assert not report.observability.holds and witness.nu is not None
        assert built and {i for i, _ in built} == {witness.supervisor}
        assert all(0 < len(rows) < report.comm.num_states for _, rows in built)


class TestAdmissibility:
    def test_synthesized_supervisors_admissible_on_fixture(self, line_report):
        assert line_report.admissibility.holds

    def test_hand_disabled_uncontrollable_fails(self, line_model):
        # declare a1 uncontrollable, then sabotage the supervisor so it still
        # disables it everywhere
        comm_u = with_uncontrollable(line_model)
        sups = [synthesize_supervisor(comm_u, i) for i in range(2)]
        bad = SupervisorMap(
            0,
            sups[0].observer,
            tuple(e - {"a1"} for e in sups[0].enable),
        )
        verdict = check_admissibility([bad, sups[1]], comm_u)
        assert not verdict.holds
        assert verdict.condition is Condition.ADM_UNCONTROLLABLE
        assert verdict.witness.sigma == "a1"

    def test_first_disabled_uncontrollable_in_event_order(self, line_model):
        """Tick comes first, as in NetCtrl1 and the oracle, although 'a1'
        sorts before it."""
        comm = with_uncontrollable(line_model, line_model.network.controllable[0])
        sups = [synthesize_supervisor(comm, i) for i in range(2)]
        bad = SupervisorMap(0, sups[0].observer, tuple(e - {TICK, "a1", "b1"} for e in sups[0].enable))
        verdict = check_admissibility([bad, sups[1]], comm)
        assert verdict.condition is Condition.ADM_UNCONTROLLABLE and not verdict.holds
        assert verdict.witness.sigma == TICK

    def test_tick_disabled_without_enforceable_fails(self, line_report):
        comm = line_report.comm
        sups = line_report.supervisors
        bad = SupervisorMap(
            0,
            sups[0].observer,
            tuple(e - {TICK} for e in sups[0].enable),
        )
        verdict = check_admissibility([bad, sups[1]], comm)
        assert not verdict.holds
        assert verdict.condition is Condition.ADM_TICK

    def test_edited_observer_is_walked(self, line_report):
        # tick is disabled only at an observer state no in-spec run reaches,
        # then the initial tick move is redirected there: the elements still
        # show no violation, but the runs the observer follows do
        sups = copy.deepcopy(line_report.supervisors)
        observer = sups[0].observer
        hidden = next(t for t, elements in enumerate(observer.elements) if not any(f for _, f in elements))
        observer.transitions[0][TICK] = hidden
        enable = tuple(e - {TICK} if t == hidden else e for t, e in enumerate(sups[0].enable))
        verdict = check_admissibility([SupervisorMap(0, observer, enable), sups[1]], line_report.comm)
        assert not verdict.holds and verdict.condition is Condition.ADM_TICK

    @pytest.mark.parametrize("count", [1, 3])
    def test_supervisor_count_is_checked(self, line_report, count):
        # supervisor 2 disabling tick everywhere fails the full set, so a set
        # that leaves it out must not pass
        sups = line_report.supervisors
        gagged = SupervisorMap(1, sups[1].observer, tuple(e - {TICK} for e in sups[1].enable))
        assert check_admissibility([sups[0], gagged], line_report.comm).condition is Condition.ADM_TICK
        with pytest.raises(ValueError, match=f"expected 2 supervisors, got {count}"):
            check_admissibility([sups[0], gagged, sups[0]][:count], line_report.comm)

    def test_supervisor_position_is_checked(self, line_report):
        swapped = line_report.supervisors[::-1]
        with pytest.raises(ValueError, match="supervisor 2 is at position 1"):
            closed_loop(line_report.comm, swapped)
        with pytest.raises(ValueError, match="supervisor 2 is at position 1"):
            check_admissibility(swapped, line_report.comm)

    @pytest.mark.parametrize("params,count", [
        (GeneratorParams(), 200),
        (GeneratorParams(n=3, max_comm_states=150), 100),
    ])
    def test_verdicts_match_definition_and_witnesses_replay(self, params, count):
        """On the synthesized set and on a gagged copy (one supervisor drops
        one event from every enable-set), the verdict equals the definition
        read off the observers' elements, and every witness replays: an
        in-spec run after which the named supervisor disables ``sigma``, at a
        tick-critical state for AdmTick."""

        def tick_critical(comm, x):
            moves = comm.transitions[x]
            return Plant(TICK) in moves and not any(
                isinstance(ev, Plant) and ev.event in comm.net.enforceable and comm.in_spec[dst]
                for ev, dst in moves.items()
            )

        def admissible(comm, sups):
            net = comm.net
            for i, sup in enumerate(sups):
                uncontrollable = net.alphabets[i] - net.controllable[i]
                for elements, enable in zip(sup.observer.elements, sup.enable):
                    reached = [x for x, flag in elements if flag]  # by in-spec runs
                    if reached and not uncontrollable <= enable:
                        return False
                    if TICK not in enable and any(tick_critical(comm, x) for x in reached):
                        return False
            return True

        negatives = 0
        for seed in range(count):
            inst = random_instance(seed, params)
            comm, net = inst.comm, inst.net
            sups = [synthesize_supervisor(comm, i) for i in range(net.n)]
            rng = random.Random(seed)
            gagged = rng.randrange(net.n)
            event = rng.choice(sorted(net.alphabets[gagged]))
            gag = list(sups)
            gag[gagged] = SupervisorMap(
                gagged, sups[gagged].observer, tuple(e - {event} for e in sups[gagged].enable)
            )
            for case in (sups, gag):
                verdict = check_admissibility(case, comm)
                assert verdict.holds == admissible(comm, case), f"seed {seed}"
                if verdict.holds:
                    # passed on the observers' summaries: no walk was needed
                    assert check_admissibility(case, comm, max_states=1).holds, f"seed {seed}"
                    continue
                negatives += 1
                mu, sigma, i = verdict.witness.mu, verdict.witness.sigma, verdict.witness.supervisor
                assert comm.string_in_spec(mu), f"seed {seed}"
                t = case[i].observer.run(project_observation(mu, i, net))
                assert sigma not in case[i].enable[t], f"seed {seed}"
                if verdict.condition is Condition.ADM_TICK:
                    assert tick_critical(comm, comm.run(mu)), f"seed {seed}"
                else:
                    assert sigma in net.alphabets[i] - net.controllable[i], f"seed {seed}"
        assert negatives > count // 2


class TestClosedLoop:
    def test_enable_everything_gives_full_language(self, line_comm):
        sups = []
        for i in range(line_comm.net.n):
            sup = synthesize_supervisor(line_comm, i)
            sups.append(
                SupervisorMap(
                    i, sup.observer,
                    tuple(line_comm.net.alphabets[i] for _ in sup.enable),
                )
            )
        loop = closed_loop(line_comm, sups)
        verdict = language_equal(loop, line_comm)
        assert verdict.generated_equal and verdict.marked_equal

    def test_observer_missing_a_move_is_rejected(self, line_report):
        # without its first tick move the observer no longer covers every run
        sups = copy.deepcopy(line_report.supervisors)
        del sups[0].observer.transitions[0][TICK]
        with pytest.raises(ValueError, match="supervisor 1 does not cover"):
            closed_loop(line_report.comm, sups)
        with pytest.raises(ValueError, match="supervisor 1 does not cover"):
            check_admissibility(sups, line_report.comm)

    def test_fixture_loop_equals_specification(self, line_report):
        assert line_report.language.generated_equal
        assert line_report.language.marked_equal

    def test_language_equal_trivial(self, line_comm):
        verdict = language_equal(line_comm, line_comm)
        assert verdict.equal

    def test_language_equal_detects_missing_transition(self, line_comm):
        import copy

        clone = copy.deepcopy(line_comm)
        # drop one transition: the distinguishing string must end with it
        victim = None
        for sid in range(clone.num_states):
            if clone.transitions[sid]:
                victim = (sid, next(iter(clone.transitions[sid])))
        sid, event = victim
        del clone.transitions[sid][event]
        verdict = language_equal(line_comm, clone)
        assert not verdict.generated_equal
        assert verdict.diff_generated[-1] == event

    def test_loop_agrees_with_recursive_definition(self):
        for seed in range(15):
            inst = random_instance(seed)
            sups = [synthesize_supervisor(inst.comm, i) for i in range(inst.net.n)]
            loop = closed_loop(inst.comm, sups)
            direct = enumerate_language(loop, 7)
            recursive = brute_closed_loop(inst.comm, sups, 7)
            assert direct.strings == recursive.strings
            assert direct.marked == recursive.marked

    def test_loop_agrees_with_recursive_definition_three_supervisors(self):
        params = GeneratorParams(n=3, max_comm_states=150)
        for seed in range(20):
            inst = random_instance(seed, params)
            sups = [synthesize_supervisor(inst.comm, i) for i in range(3)]
            loop = closed_loop(inst.comm, sups)
            direct = enumerate_language(loop, 5)
            recursive = brute_closed_loop(inst.comm, sups, 5)
            assert direct.strings == recursive.strings
            assert direct.marked == recursive.marked

    def test_language_witnesses_are_shortest(self):
        """Each distinguishing string separates the two languages, and the
        languages agree on every shorter string (bounded enumeration)."""
        checked = 0
        for seed in range(80):
            inst = random_instance(seed)
            comm = inst.comm
            sups = [synthesize_supervisor(comm, i) for i in range(inst.net.n)]
            loop = closed_loop(comm, sups)
            for a, b in ((loop, comm.spec_view()), (comm, loop)):
                verdict = language_equal(a, b)
                for witness, kind in (
                    (verdict.diff_generated, "strings"), (verdict.diff_marked, "marked")
                ):
                    if witness is None:
                        continue
                    checked += 1
                    n = len(witness)
                    in_a = witness in getattr(enumerate_language(a, n), kind)
                    in_b = witness in getattr(enumerate_language(b, n), kind)
                    assert in_a != in_b
                    if n:
                        shorter_a = getattr(enumerate_language(a, n - 1), kind)
                        assert shorter_a == getattr(enumerate_language(b, n - 1), kind)
        assert checked >= 50

    def test_no_out_of_spec_states_when_conditions_hold(self):
        checked = 0
        for seed in range(60):
            inst = random_instance(seed)
            comm = inst.comm
            if not (
                check_network_controllability(comm).holds
                and check_network_joint_observability(comm).holds
                and check_lm_closure(comm).holds
            ):
                continue
            checked += 1
            sups = [synthesize_supervisor(comm, i) for i in range(inst.net.n)]
            loop = closed_loop(comm, sups)
            for sid in range(loop.num_states):
                assert comm.in_spec[loop.comm_state(sid)]
        assert checked >= 10


def loop_digest(loops):
    """sha256 over each loop's numbering and moves, in order."""
    h = hashlib.sha256()
    for loop in loops:
        h.update(json.dumps([loop.radix, loop.codes, loop.table.ids, loop.table.targets]).encode())
    return h.hexdigest()


def alternating(comm, sups):
    """Each supervisor disables all it controls at its odd observer states."""
    return [
        SupervisorMap(i, s.observer, tuple(
            e - comm.net.controllable[i] if t % 2 else e for t, e in enumerate(s.enable)
        ))
        for i, s in enumerate(sups)
    ]


class TestClosedLoopIdentity:
    """State numbering and moves of the closed loop, pinned as sha256
    digests, so that a faster construction cannot change them."""

    @pytest.mark.parametrize("params,edit,expected", [
        (GeneratorParams(), None, "d41c1c1fdc59b2196f1cef35f8b86f58d0c4abecd1ef63acebe72b03935c8d30"),
        (GeneratorParams(n=3, max_comm_states=150), None,
         "cb7a2c35250446811eab7c5b1dbe4b0d5742e3c596f4d1a7324924dd1004a74a"),
        (GeneratorParams(), alternating, "1699e8828c6dd8a7bbd15e2057cd8366211431c140ff758ac8554fd17484c89d"),
        (GeneratorParams(n=3, max_comm_states=150), alternating,
         "48ad0a7c360a5f9379e4bbb8001fa042594fd102a95ef5958b0dc83516ba922a"),
    ])
    def test_random_instances(self, params, edit, expected):
        loops = []
        for seed in range(40):
            comm = random_instance(seed, params).comm
            sups = [synthesize_supervisor(comm, i) for i in range(comm.net.n)]
            loops.append(closed_loop(comm, edit(comm, sups) if edit else sups))
        assert loop_digest(loops) == expected

    @pytest.mark.parametrize("edit,expected", [
        ("enabled", "b74853da596154761b9c745a86fbfa89cf4dae3e29327ab4cd9fc0c28ba5f437"),
        ("gagged", "9136b6571631caf50e7c148a5b71d45c2d515f33a22c7c0886cb6adc1b6ba5a2"),
    ])
    def test_line_model(self, line_report, edit, expected):
        comm, net = line_report.comm, line_report.comm.net
        sups = [
            SupervisorMap(i, s.observer, tuple(
                net.alphabets[i] if edit == "enabled" else e - net.controllable[i] for e in s.enable
            ))
            for i, s in enumerate(line_report.supervisors)
        ]
        assert loop_digest([closed_loop(comm, sups)]) == expected

    def test_a_disabled_move_needs_no_observer_move(self, line_report):
        """A missing observer move on an event its own supervisor disables
        there is never followed, so the loop builds as before."""
        sups = copy.deepcopy(line_report.supervisors)
        observer, enable = sups[0].observer, sups[0].enable
        controllable = line_report.comm.net.controllable[0]
        t, symbol = next(
            (t, symbol) for t, step in enumerate(observer.transitions)
            for symbol in step if symbol in controllable - enable[t]
        )
        del observer.transitions[t][symbol]
        assert loop_digest([closed_loop(line_report.comm, sups)]) == loop_digest([line_report.loop])


def rendered(string):
    return None if string is None else [render_event(e) for e in string]


def verdict_row(verdict):
    """A verdict's condition, outcome, detail and rendered witness."""
    w = verdict.witness
    return (verdict.condition.value, verdict.holds, verdict.detail) + (
        w and (rendered(w.mu), w.sigma, rendered(w.nu), w.supervisor),
    )


def witness_walk_digest(comms):
    """sha256 over both witness walks of each automaton: every supervisor's
    full twin product (keys, parents, rendered labels), the joint
    observability verdict, and admissibility on four supervisor sets (the
    synthesized one, ``alternating`` on the cached observers and on copies,
    which forces the walk, and copies with one uncontrollable event
    disabled everywhere): verdict, rendered witness and detail, or the
    ValueError."""
    h = hashlib.sha256()
    for comm in comms:
        net = comm.net
        for i in range(net.n):
            space = build_twin_product(comm, i).space
            labels = [label and [None if e is None else render_event(e) for e in label] for label in space.label]
            h.update(repr((space.keys, space.parent, labels)).encode())
        sups = [synthesize_supervisor(comm, i) for i in range(net.n)]
        copied = [SupervisorMap(i, copy.copy(s.observer), s.enable) for i, s in enumerate(sups)]
        gagged = []
        for i, s in enumerate(copied):
            uncontrollable = sorted(net.alphabets[i] - net.controllable[i])
            gone = set(uncontrollable[:1])
            gagged.append(SupervisorMap(i, s.observer, tuple(e - gone for e in s.enable)))
        rows = [verdict_row(check_network_joint_observability(comm))]
        for sups_set in (sups, alternating(comm, sups), alternating(comm, copied), gagged):
            try:
                rows.append(verdict_row(check_admissibility(sups_set, comm)))
            except ValueError as exc:
                rows.append(str(exc))
        for row in rows:
            h.update(repr(row).encode() + b"\n")
    return h.hexdigest()


class TestWitnessWalkIdentity:
    """Pairs, parents and labels of every twin product, and the joint
    observability and admissibility verdicts and witnesses, pinned as
    sha256 digests, so that a leaner walk cannot change them."""

    @pytest.mark.parametrize("delays,expected", [
        ((6, 1), "da9d7a26f688d64a94a45763948d9b2abd1454dda82789e6e5ce7a99e5247b5c"),
        ((1, 6), "ad799b7441f90b429daaea37e3e9111fab1350a6ab577565e248c4a37746bf2e"),
        ((6, 6), "90e3e7021b4ed6410f62e1b4b3d57ad8f1ea711553d47e2f98114eeb83489f55"),
    ], ids=["6/1", "1/6", "6/6"])
    def test_line_model(self, models_dir, delays, expected):
        model = line_with_delays(models_dir, *delays)
        assert witness_walk_digest([build_comm_automaton(model.plant, model.spec, model.network)]) == expected

    @pytest.mark.parametrize("params,expected", [
        (GeneratorParams(), "2207e091be8b66f15824c07da4d877f436e837cf65edcc5b845a4a48177a2eeb"),
        (GeneratorParams(n=3, max_comm_states=150),
         "1c28eb661fd00c49c4ebd2c7732b54ae7a26e7ba854bf1b5225f3a282b16492d"),
    ], ids=["n2", "n3"])
    def test_random_instances(self, params, expected):
        assert witness_walk_digest(random_instance(seed, params).comm for seed in range(40)) == expected


class Walked:
    """A closed loop behind an object that is not a ClosedLoop, so
    ``language_equal`` walks the product instead of its one pass."""

    def __init__(self, loop):
        self.loop = loop

    def __getattr__(self, name):
        return getattr(self.loop, name)


class TestOnePassLanguage:
    """``language_equal`` of a closed loop and its automaton, or that
    automaton's SpecView, returns what the product walk returns."""

    @pytest.mark.parametrize("params,count", [
        (GeneratorParams(), 200),
        (GeneratorParams(n=3, max_comm_states=150), 100),
    ])
    def test_agrees_with_the_product_walk(self, params, count):
        verdicts = {True: 0, False: 0}
        for seed in range(count):
            comm = random_instance(seed, params).comm
            loop = closed_loop(comm, [synthesize_supervisor(comm, i) for i in range(comm.net.n)])
            for b in (comm.spec_view(), comm):
                verdict = language_equal(loop, b)
                assert verdict == language_equal(Walked(loop), b), f"seed {seed}"
                verdicts[verdict.equal] += 1
        assert min(verdicts.values()) >= count // 4, verdicts

    def test_only_the_markings_differ(self, models_dir):
        # the plant marks 0 and 4, the specification only 0
        doc = json.loads((models_dir / "production_line.json").read_text(encoding="utf-8"))
        next(a for a in doc["automata"] if a["name"] == "LINE")["marked"] = ["0", "4"]
        doc["spec"]["marked"] = ["0"]
        model = parse_model(doc)
        comm = build_comm_automaton(model.plant, model.spec, model.network)
        loop = closed_loop(comm, [synthesize_supervisor(comm, i) for i in range(comm.net.n)])
        verdict = language_equal(loop, comm.spec_view())
        assert verdict == language_equal(Walked(loop), comm.spec_view())
        assert verdict.generated_equal and not verdict.marked_equal
        assert comm.plant_of(comm.run(verdict.diff_marked)) == "4"
        assert language_equal(loop, comm) == language_equal(Walked(loop), comm)

    def test_event_universes_are_merged(self, line_comm):
        """A copy without its one ``g12(2)`` move has one event fewer, so the
        comparison first renumbers both tables over the union of events."""
        g12 = Lose(0, 1, 2)  # losing the second entry of channel 1 -> 2
        clone = copy.deepcopy(line_comm)
        lost = [row for row in clone.transitions if g12 in row]
        assert len(lost) == 1
        del lost[0][g12]
        assert len(clone.event_table().events) == len(line_comm.event_table().events) - 1
        for a, b in ((line_comm, clone), (clone, line_comm)):
            verdict = language_equal(a, b)
            witness = verdict.diff_generated
            assert not verdict.generated_equal and witness[-1] == g12
            n = len(witness)
            assert witness in enumerate_language(line_comm, n).strings
            assert witness not in enumerate_language(clone, n).strings
            assert enumerate_language(a, n - 1).strings == enumerate_language(b, n - 1).strings


class TestBudgets:
    """Every synthesis-stage construction stops at its state budget and
    names itself; a budget that fits exactly passes."""

    def test_observer_budget(self, line_report):
        comm = line_report.comm
        size = line_report.sizes["observer_1_states"]
        with pytest.raises(ResourceLimitError, match=f"observer for supervisor 1 exceeds {size - 1} states"):
            synthesize_supervisor(comm, 0, max_states=size - 1)
        assert synthesize_supervisor(comm, 0, max_states=size).observer.num_states == size

    def test_closed_loop_budget(self, line_report):
        comm, sups = line_report.comm, line_report.supervisors
        size = line_report.loop.num_states
        with pytest.raises(ResourceLimitError, match=f"closed loop exceeds {size - 1} states"):
            closed_loop(comm, sups, max_states=size - 1)
        assert closed_loop(comm, sups, max_states=size).num_states == size

    def test_admissibility_budget(self, line_model, line_report):
        """A passing supervisor builds no product; the budget binds on the
        walk that finds a violation."""
        # a1 is uncontrollable, but supervisor 1 still disables it wherever
        # it could leave the specification: its walk needs 13 pairs
        comm_u = with_uncontrollable(line_model)
        sups = [synthesize_supervisor(comm_u, i) for i in range(2)]
        observer = sups[0].observer
        gagged = [SupervisorMap(0, observer, tuple(
            enable - {"a1"} if any(flag and "a1" in comm_u.exits[x] for x, flag in elements) else enable
            for enable, elements in zip(sups[0].enable, observer.elements)
        )), sups[1]]
        with pytest.raises(ResourceLimitError, match="admissibility product exceeds 5 states"):
            check_admissibility(gagged, comm_u, max_states=5)
        verdict = check_admissibility(gagged, comm_u, max_states=line_report.loop.num_states)
        assert not verdict.holds and verdict.witness.sigma == "a1"
        assert check_admissibility(line_report.supervisors, line_report.comm, max_states=5).holds

    def test_language_budget(self, line_report, unsolvable_report):
        """Equal languages are decided without a product; the budget binds
        on the walk that finds the distinguishing strings."""
        loop, spec = unsolvable_report.loop, unsolvable_report.comm.spec_view()
        with pytest.raises(ResourceLimitError, match="language comparison product exceeds 5 states"):
            language_equal(loop, spec, max_states=5)
        assert language_equal(loop, spec, max_states=loop.num_states) == unsolvable_report.language
        assert not unsolvable_report.language.equal
        assert language_equal(line_report.loop, line_report.comm.spec_view(), max_states=5).equal

    def test_solve_passes_its_budget_to_every_stage(self, line_model, monkeypatch):
        budgets = {}
        for name in ("synthesize_supervisor", "closed_loop", "check_admissibility", "language_equal"):
            def spy(*args, _real=getattr(synthesis, name), _name=name, **kwargs):
                budgets.setdefault(_name, set()).add(kwargs.get("max_states"))
                return _real(*args, **kwargs)

            monkeypatch.setattr(synthesis, name, spy)
        report = solve_control_problem(
            line_model.plant, line_model.spec, line_model.network, max_states=1234
        )
        assert report.verified
        assert budgets == {
            name: {1234}
            for name in ("synthesize_supervisor", "closed_loop", "check_admissibility", "language_equal")
        }


class TestSolvePipeline:
    def test_fixture_report(self, line_report):
        assert line_report.solvable
        assert line_report.controllability.holds
        assert line_report.observability.holds
        assert line_report.closure.holds
        assert line_report.admissibility.holds
        assert line_report.language.equal
        assert line_report.nonblocking
        assert line_report.verified

    def test_spec_equal_plant_trivially_solvable(self, line_model):
        report = solve_control_problem(
            line_model.plant, line_model.plant, line_model.network
        )
        assert report.solvable
        assert report.language.equal
        # nothing disabled anywhere
        for sup in report.supervisors:
            own = line_model.network.alphabets[sup.supervisor]
            assert all(enable == own for enable in sup.enable)

    def test_no_feedback_variant_unsolvable(self, no_feedback_model):
        report = solve_control_problem(
            no_feedback_model.plant, no_feedback_model.spec, no_feedback_model.network,
            diagnostic=True,
        )
        assert not report.solvable
        assert not report.observability.holds
        # the synthesized set over-restricts: the loop loses legal behavior
        assert not report.language.equal

    def test_existence_conditions_exactly_characterize_solutions(self):
        """Both directions of the existence characterization: when the three
        checks pass, the synthesized set is admissible and achieves the
        specification exactly; when any fails, no admissible exact set comes
        out of the construction."""
        solvable_seen = unsolvable_seen = 0
        seed = 0
        while (solvable_seen < 25 or unsolvable_seen < 25) and seed < 300:
            inst = random_instance(seed)
            seed += 1
            comm = inst.comm
            ok = (
                check_network_controllability(comm).holds
                and check_network_joint_observability(comm).holds
                and check_lm_closure(comm).holds
            )
            sups = [synthesize_supervisor(comm, i) for i in range(inst.net.n)]
            adm = check_admissibility(sups, comm)
            lang = language_equal(closed_loop(comm, sups), comm.spec_view())
            if ok:
                solvable_seen += 1
                assert adm.holds
                assert lang.generated_equal and lang.marked_equal
            else:
                unsolvable_seen += 1
                assert not (adm.holds and lang.generated_equal and lang.marked_equal)
        assert solvable_seen >= 25 and unsolvable_seen >= 25

    def test_spec_nonblocking_on_fixture(self, line_comm):
        assert spec_nonblocking(line_comm)

    @pytest.mark.parametrize("params,count", [
        (GeneratorParams(), 300),
        (GeneratorParams(n=3, max_comm_states=150), 100),
    ])
    def test_spec_nonblocking_matches_definition(self, params, count):
        """Every spec_reachable state has an in-spec path to a spec_marked
        state, checked one state at a time."""

        def reaches_marked(comm, start):
            seen, stack = {start}, [start]
            while stack:
                sid = stack.pop()
                if comm.spec_marked[sid]:
                    return True
                for dst in comm.transitions[sid].values():
                    if comm.in_spec[dst] and dst not in seen:
                        seen.add(dst)
                        stack.append(dst)
            return False

        verdicts = []
        for seed in range(count):
            comm = random_instance(seed, params).comm
            expected = all(
                reaches_marked(comm, sid)
                for sid in range(comm.num_states) if comm.spec_reachable[sid]
            )
            assert spec_nonblocking(comm) == expected, f"seed {seed}"
            verdicts.append(expected)
        assert True in verdicts and False in verdicts


class TestThreeSupervisors:
    """The whole pipeline is n-ary; pin one three-supervisor sweep."""

    def test_characterization_holds_with_three_supervisors(self):
        from netsup.randgen import GeneratorParams

        params = GeneratorParams(n=3, max_states=5, max_delay=1, max_comm_states=200)
        passing = failing = 0
        for seed in range(30):
            inst = random_instance(seed, params)
            comm = inst.comm
            ok = (
                check_network_controllability(comm).holds
                and check_network_joint_observability(comm).holds
                and check_lm_closure(comm).holds
            )
            sups = [synthesize_supervisor(comm, i) for i in range(3)]
            adm = check_admissibility(sups, comm)
            lang = language_equal(closed_loop(comm, sups), comm.spec_view())
            if ok:
                passing += 1
                assert adm.holds and lang.equal
            else:
                failing += 1
                assert not (adm.holds and lang.equal)
        assert passing >= 5 and failing >= 5


class TestUnreachablePlantStates:
    @pytest.fixture
    def padded(self, line_model):
        from netsup.automata import TimedAutomaton

        plant = line_model.plant
        # add an unreachable junk state that would fail the liveness check
        return TimedAutomaton(
            plant.name,
            plant.states + ("limbo",),
            plant.alphabet,
            {**{q: dict(plant.transitions[q]) for q in plant.states}, "limbo": {}},
            plant.initial,
            plant.marked,
        )

    def test_solve_prunes_before_validation(self, padded, line_model):
        report = solve_control_problem(padded, line_model.spec, line_model.network)
        assert report.solvable

    def test_build_comm_automaton_prunes_before_validation(self, padded, line_model, line_comm):
        comm = build_comm_automaton(padded, line_model.spec, line_model.network)
        assert comm.keys == line_comm.keys and comm.transitions == line_comm.transitions
