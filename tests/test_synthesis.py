"""Observers, enable-set synthesis, admissibility, closed loop and the full
pipeline, cross-checked against string-level evaluation."""

import copy
import dataclasses
import gc
import hashlib
import json
import random
import tracemalloc

import pytest

from conftest import alternating, gagged, observer_elements
from netsup import cli, comm as comm_module, synthesis
from netsup.automata import TICK, TimedAutomaton, coreachable, is_nonblocking, remove_states
from netsup.cli import _report_dict
from netsup.comm import (
    InSpecRows, Lose, Plant, build_comm_automaton, build_observer, project_observation, render_event,
)
from netsup.errors import ResourceLimitError, UnknownNameError
from netsup.explore import PathSpace
from netsup.modelio import parse_model
from netsup.network import NetworkConfig
from netsup.oracle import brute_closed_loop, enumerate_language
from netsup.randgen import GeneratorParams, random_instance
from netsup.synthesis import (
    SupervisorMap,
    check_admissibility,
    closed_loop,
    exact_loop_states,
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
            [], {},
        )
        solo = build_comm_automaton(plant, plant, solo_net)
        observer = build_observer(solo, 0)
        assert observer.num_states == solo.num_states == len(plant.states)
        for codes in observer.codes:
            assert len(codes) == 1

    def test_observer_covers_every_run(self, line_comm):
        """The observer state reached on a run's observation contains that
        run's end state with its stayed-in-spec flag."""
        for i in range(line_comm.net.n):
            observer = build_observer(line_comm, i)
            elements = observer_elements(observer)
            for string, sid, flag in all_comm_strings(line_comm, 8):
                obs = project_observation(string, i, line_comm.net)
                t = observer.run(obs)
                assert t is not None
                assert (sid, flag) in elements[t]

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
            plants = {line_comm.plant_of(code >> 1) for code in observer.codes[after]}
            assert "4" not in plants  # delivery of a2 rules out the pre-a2 stage


class TestEnableSets:
    def test_fixture_disables_a1_exactly_at_plant4_states(self, line_report):
        sup1 = line_report.supervisors[0]
        comm = line_report.comm
        saw_disabled = saw_enabled_at_0 = False
        for t, elements in enumerate(observer_elements(sup1.observer)):
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
        observability = report.checks[1]
        witness = observability.witness
        assert not observability.holds and witness.nu is not None
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
        hidden = next(t for t, codes in enumerate(observer.codes) if not any(code & 1 for code in codes))
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
                for elements, enable in zip(observer_elements(sup.observer), sup.enable):
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


def decoded(language, kind):
    """A bounded language's ``strings`` or ``marked``, as event tuples."""
    return {language.decode(s) for s in getattr(language, kind)}


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

    def test_language_equal_detects_missing_transition(self, line_comm, without_move):
        # drop one transition: the distinguishing string must end with it
        victim = None
        for sid in range(line_comm.num_states):
            if line_comm.moves(sid):
                victim = (sid, line_comm.moves(sid)[0][0])
        sid, event = victim
        clone = without_move(line_comm, sid, event)
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
            assert direct.events == recursive.events
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
            assert direct.events == recursive.events
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
                    in_a = witness in decoded(enumerate_language(a, n), kind)
                    in_b = witness in decoded(enumerate_language(b, n), kind)
                    assert in_a != in_b
                    if n:
                        shorter_a, shorter_b = enumerate_language(a, n - 1), enumerate_language(b, n - 1)
                        assert shorter_a.events == shorter_b.events
                        assert getattr(shorter_a, kind) == getattr(shorter_b, kind)
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
        targets = [list(row) for row in loop.table.targets]
        h.update(json.dumps([loop.radix, loop.codes, loop.table.ids, targets]).encode())
    return h.hexdigest()


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

    def test_blocked_beats_uncovered_across_supervisors(self, line_report):
        """Both supervisors control tick.  Without observer 1's tick move at
        its state ``t``, a tick move that supervisor 2 disables is dropped
        and the loop builds as before; where nobody disables it, the loop
        names supervisor 1."""
        comm, loop = line_report.comm, line_report.loop
        sup1, sup2 = line_report.supervisors
        assert comm.net.controllers(TICK) == (0, 1)
        tick = Plant(TICK)
        # per observer-1 state, the observer-2 states beside it at a loop
        # state whose automaton state has a tick move
        beside: dict[int, set[int]] = {}
        for sid in range(loop.num_states):
            x, (t1, t2) = loop.state(sid)
            if tick in comm.transitions[x]:
                beside.setdefault(t1, set()).add(t2)

        def gagged_at(t):
            return SupervisorMap(1, sup2.observer, tuple(
                on - {TICK} if t2 in beside[t] else on for t2, on in enumerate(sup2.enable)
            ))

        def blocked_somewhere(t):
            gagged = closed_loop(comm, [sup1, gagged_at(t)])
            return any(
                obs[0] == t and tick in comm.transitions[x]
                for x, obs in map(gagged.state, range(gagged.num_states))
            )

        t = next(
            t for t in sorted(beside)
            if TICK in sup1.enable[t] and TICK in sup1.observer.transitions[t] and blocked_somewhere(t)
        )
        edited = copy.deepcopy(sup1.observer)
        del edited.transitions[t][TICK]
        without = SupervisorMap(0, edited, sup1.enable)
        assert loop_digest([closed_loop(comm, [without, gagged_at(t)])]) == loop_digest(
            [closed_loop(comm, [sup1, gagged_at(t)])]
        )
        with pytest.raises(ValueError) as raised:
            closed_loop(comm, [without, sup2])
        assert str(raised.value) == (
            f"observer of supervisor 1 does not cover every run: no move on 'tick' from its state {t}"
        )


class TestPackedLoopRows:
    """The closed loop packs its targets into two int arrays."""

    @pytest.mark.parametrize("params", [GeneratorParams(), GeneratorParams(n=3, max_comm_states=150)])
    def test_rows_are_the_moves(self, params):
        for seed in range(15):
            comm = random_instance(seed, params).comm
            loop = closed_loop(comm, [synthesize_supervisor(comm, i) for i in range(comm.net.n)])
            targets = loop.table.targets
            assert len(targets) == len(loop.table.ids) == loop.num_states
            for s in range(loop.num_states):
                assert list(targets[s]) == [t for _, t in loop.moves(s)]
                assert len(targets[s]) == len(loop.table.ids[s])
            assert list(targets) == [targets[s] for s in range(loop.num_states)]

    def test_negative_and_past_the_end_rows(self):
        comm = random_instance(3, GeneratorParams(n=3, max_comm_states=150)).comm
        targets = closed_loop(comm, [synthesize_supervisor(comm, i) for i in range(comm.net.n)]).table.targets
        n = len(targets)
        assert targets[-1] == targets[n - 1] and targets[-n] == targets[0]
        for s in (n, -n - 1):
            with pytest.raises(IndexError):
                targets[s]

    def test_equal_builds_compare_equal(self):
        comm = random_instance(65, GeneratorParams(n=3, max_comm_states=150)).comm
        sups = [synthesize_supervisor(comm, i) for i in range(comm.net.n)]
        loop = closed_loop(comm, sups)
        assert closed_loop(comm, sups).table == loop.table
        assert copy.deepcopy(loop).table == loop.table
        assert closed_loop(comm, alternating(comm, sups)).table != loop.table

    def test_retained_memory_per_loop_state(self):
        """About 4 B per move: the loop keeps no object per row beyond the
        shared ids row and its state code."""
        comm = random_instance(65, GeneratorParams(n=3, max_comm_states=150)).comm
        sups = [synthesize_supervisor(comm, i) for i in range(comm.net.n)]
        closed_loop(comm, sups)  # fills every cache the build reads
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loop = closed_loop(comm, sups)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert loop.num_states == 65511
        assert retained / loop.num_states <= 100


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


def supervisor_sets(comm):
    """Four supervisor sets on ``comm``'s observers: the synthesized one,
    ``alternating``, ``gagged`` and one that enables every event of each
    supervisor's alphabet everywhere."""
    sups = [synthesize_supervisor(comm, i) for i in range(comm.net.n)]
    everything = [
        SupervisorMap(i, s.observer, tuple(comm.net.alphabets[i] for _ in s.enable)) for i, s in enumerate(sups)
    ]
    return {"synthesized": sups, "alternating": alternating(comm, sups), "gagged": gagged(comm, sups),
            "everything": everything}


def language_outcome(a, b, max_states):
    """``language_equal(a, b)`` under ``max_states``, or the message of the
    ResourceLimitError it raises."""
    try:
        return language_equal(a, b, max_states=max_states)
    except ResourceLimitError as exc:
        return str(exc)


@pytest.fixture
def walks(monkeypatch):
    """Every PathSpace that ``synthesis`` makes while the test runs."""
    made = []

    class Recorded(PathSpace):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(synthesis, "PathSpace", Recorded)
    return made


class TestOnePassLanguage:
    """``language_equal`` of a closed loop and its automaton's SpecView
    returns what the product walk returns (``Walked``): the same verdict
    and distinguishing strings, and on unequal languages the same budget
    error.  The walk of the loop against its SpecView keys a pair by its
    kind, loop state ``s`` for one both sides reach, ``L + s`` for the
    loop's side alone and ``2L + x`` for the SpecView's alone; every kind
    is met."""

    def agree(self, comm, walks, kinds):
        """Check every supervisor set of ``comm``; add the pair kinds
        (0, 1, 2) the walks met to ``kinds``, and return the number of
        equal verdicts."""
        spec, equal = comm.spec_view(), 0
        for name, sups in supervisor_sets(comm).items():
            loop = closed_loop(comm, sups)
            walks.clear()
            verdict = language_equal(loop, spec)
            kinds.update(min(key // loop.num_states, 2) for space in walks for key in space.keys)
            assert verdict == language_equal(Walked(loop), spec), name
            equal += verdict.equal
            if not verdict.equal:
                for max_states in (1, 3, 10, 50):
                    got = language_outcome(loop, spec, max_states)
                    assert got == language_outcome(Walked(loop), spec, max_states), (name, max_states)
        return equal

    @pytest.mark.parametrize("params,count", [
        (GeneratorParams(), 200),
        (GeneratorParams(n=3, max_comm_states=150), 100),
        (GeneratorParams(max_delay=3, max_comm_states=2000), 30),
    ])
    def test_agrees_with_the_product_walk(self, walks, params, count):
        kinds, equal = set(), 0
        for seed in range(count):
            equal += self.agree(random_instance(seed, params).comm, walks, kinds)
        # of the 4 * count loops, 218, 73 and 26 have equal languages
        assert count // 5 <= equal <= 3 * count, equal
        assert kinds == {0, 1, 2}

    @pytest.mark.parametrize("delays", [(1, 6), (6, 6)], ids=["1/6", "6/6"])
    def test_line_model(self, models_dir, walks, delays):
        model = line_with_delays(models_dir, *delays)
        kinds = set()
        self.agree(build_comm_automaton(model.plant, model.spec, model.network), walks, kinds)
        assert kinds == {0, 1, 2}

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
        # a copy and its SpecView are not the loop's own SpecView, so the
        # product is walked
        clone = copy.deepcopy(comm)
        assert language_equal(loop, clone) == language_equal(Walked(loop), comm)
        assert language_equal(loop, clone.spec_view()) == verdict

    def test_the_plant_marks_more(self, walks):
        """Specifications with one of their marked states unmarked, so a
        pair on the SpecView's side alone can reach a state the plant marks
        and the specification does not."""
        kinds = set()
        for seed in range(40):
            inst = random_instance(seed)
            if inst.spec.marked:
                spec = dataclasses.replace(inst.spec, marked=inst.spec.marked - {min(inst.spec.marked)})
                self.agree(build_comm_automaton(inst.plant, spec, inst.net), walks, kinds)
        assert kinds == {0, 1, 2}

    def test_different_event_tables_are_compared(self, line_comm, without_move):
        """A copy without its one ``g12(2)`` move has one event fewer, so its
        event ids mean other events; the walk reads events, not ids, and
        finds the lost move both ways round."""
        g12 = Lose(0, 1, 2)  # losing the second entry of channel 1 -> 2
        lost = [sid for sid in range(line_comm.num_states) if g12 in dict(line_comm.moves(sid))]
        assert len(lost) == 1
        clone = without_move(line_comm, lost[0], g12)
        assert len(clone.table.events) == len(line_comm.table.events) - 1
        for a, b in ((line_comm, clone), (clone, line_comm)):
            verdict = language_equal(a, b)
            assert not verdict.generated_equal
            assert verdict.diff_generated[-1] == g12
            assert line_comm.run(verdict.diff_generated) is not None
            assert clone.run(verdict.diff_generated) is None


class ReadOnly:
    """Only the read protocol of ``inner``: ``initial``, ``moves`` and
    ``is_marked``, and no event table."""

    __slots__ = ("initial", "moves", "is_marked")

    def __init__(self, inner):
        self.initial, self.moves, self.is_marked = inner.initial, inner.moves, inner.is_marked


def test_language_equal_reads_only_the_read_protocol(models_dir):
    """A structure seen through ``initial``, ``moves`` and ``is_marked``
    alone gets the verdict of the closed loop, automaton or SpecView it
    wraps, on either side of the comparison."""
    model = line_with_delays(models_dir, 1, 6)
    comms = [build_comm_automaton(model.plant, model.spec, model.network)]
    comms += [random_instance(seed).comm for seed in range(20)]
    unequal = 0
    for comm in comms:
        loop = closed_loop(comm, [synthesize_supervisor(comm, i) for i in range(comm.net.n)])
        structures = (loop, comm, comm.spec_view())
        for a in structures:
            for b in structures:
                verdict = language_equal(a, b)
                assert language_equal(ReadOnly(a), b) == verdict
                assert language_equal(a, ReadOnly(b)) == verdict
                unequal += not verdict.equal
    assert unequal > 0


def language_digest(pairs):
    """sha256 over ``language_equal`` of each pair: both outcomes and both
    rendered distinguishing strings."""
    h = hashlib.sha256()
    for a, b in pairs:
        verdict = language_equal(a, b)
        row = (verdict.generated_equal, verdict.marked_equal,
               rendered(verdict.diff_generated), rendered(verdict.diff_marked))
        h.update(repr(row).encode() + b"\n")
    return h.hexdigest()


def walk_pairs(comms):
    """Per automaton, its synthesized loop against the SpecView and the
    automaton, both ways round; ``Walked`` forces the product walk."""
    for comm in comms:
        loop = closed_loop(comm, [synthesize_supervisor(comm, i) for i in range(comm.net.n)])
        spec = comm.spec_view()
        yield from ((loop, spec), (spec, loop), (Walked(loop), comm), (comm, loop))


class TestLanguageWalkIdentity:
    """Verdicts and distinguishing strings of ``language_equal``, pinned as
    sha256 digests, so that a leaner product walk cannot change them."""

    @pytest.mark.parametrize("delays,expected", [
        ((1, 6), "a04e6398e41e3fc2b3f34508eea0926d8bf0c52162f73e345373aeb67c7a8ea8"),
        ((6, 6), "5c9da2c04eb3f1fff8fb27c179803e8245ffdd52241227cc9fbaff2dc52526be"),
    ], ids=["1/6", "6/6"])
    def test_line_model(self, models_dir, delays, expected):
        model = line_with_delays(models_dir, *delays)
        assert language_digest(walk_pairs([build_comm_automaton(model.plant, model.spec, model.network)])) == expected

    @pytest.mark.parametrize("params,expected", [
        (GeneratorParams(), "f2e045bf83d73364a74d1e8fee6402758344e932c12940bb1738796ae51b7467"),
        (GeneratorParams(n=3, max_comm_states=150), "36291da3dd2902dec23cbe5616ca24da1feb9b470c2fc4079da4ab2059a09842"),
    ], ids=["n2", "n3"])
    def test_random_instances(self, params, expected):
        assert language_digest(walk_pairs(random_instance(seed, params).comm for seed in range(40))) == expected


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

    def test_solve_without_the_loop_budget(self, line_model, line_report):
        """``exact_loop_states`` grows the loop's states under the loop's
        budget and name."""
        size = line_report.sizes["closed_loop_states"]
        args = (line_model.plant, line_model.spec, line_model.network)
        with pytest.raises(ResourceLimitError, match=f"closed loop exceeds {size - 1} states"):
            solve_control_problem(*args, max_states=size - 1, build_loop=False)
        assert solve_control_problem(*args, max_states=size, build_loop=False).verified

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
            for enable, elements in zip(sups[0].enable, observer_elements(observer))
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


class TestExactLoopStates:
    """``exact_loop_states`` counts the loop's states exactly when the
    loop's languages equal its automaton's SpecView's, and says None
    otherwise."""

    @staticmethod
    def agree(comm, sups):
        """The pass agrees with ``closed_loop`` and ``language_equal`` on
        ``sups``; returns whether the languages are equal."""
        loop = closed_loop(comm, sups)
        equal = language_equal(loop, comm.spec_view()).equal
        assert exact_loop_states(comm, sups) == (loop.num_states if equal else None)
        return equal

    @pytest.mark.parametrize("params,count", [
        (GeneratorParams(), 200),
        (GeneratorParams(n=3, max_comm_states=150), 100),
    ])
    def test_random_instances(self, params, count):
        verdicts = []
        for seed in range(count):
            comm = random_instance(seed, params).comm
            sups = [synthesize_supervisor(comm, i) for i in range(comm.net.n)]
            for each in (sups, gagged(comm, sups), alternating(comm, sups)):
                verdicts.append(self.agree(comm, each))
        assert True in verdicts and False in verdicts

    @pytest.mark.parametrize("params", [GeneratorParams(), GeneratorParams(n=3, max_comm_states=150)])
    def test_diagnostic_reports(self, params):
        """``solve_control_problem`` with and without the loop gives the
        same report, synthesis forced on unsolvable instances too."""
        for seed in range(40):
            inst = random_instance(seed, params)
            args = (inst.plant, inst.spec, inst.net)
            built = solve_control_problem(*args, diagnostic=True)
            passed = solve_control_problem(*args, diagnostic=True, build_loop=False)
            assert _report_dict(passed) == _report_dict(built), f"seed {seed}"
            assert passed.language == built.language
            assert (passed.loop is None) == built.language.equal

    @pytest.mark.parametrize("delays", [(6, 1), (1, 6), (10, 1)], ids=["6/1", "1/6", "10/1"])
    def test_line_model(self, models_dir, delays):
        model = line_with_delays(models_dir, *delays)
        comm = build_comm_automaton(model.plant, model.spec, model.network)
        sups = [synthesize_supervisor(comm, i) for i in range(comm.net.n)]
        assert self.agree(comm, sups) == (delays != (1, 6))

    def test_only_the_markings_differ(self, models_dir):
        """With no marked state the rows of loop and SpecView agree
        everywhere, so only the marking test tells the languages apart."""
        doc = json.loads((models_dir / "production_line.json").read_text(encoding="utf-8"))
        doc["spec"] = {"remove_states": ["8"], "marked": []}
        model = parse_model(doc)
        report = solve_control_problem(model.plant, model.spec, model.network, diagnostic=True)
        assert report.language.generated_equal and not report.language.marked_equal
        assert exact_loop_states(report.comm, report.supervisors) is None


class TestSolveWithoutTheLoop:
    """``netsup solve`` asks for no loop: a positive verdict builds neither
    the loop nor a language product, and reports what the default does."""

    def test_solve_command(self, line_report, models_dir, monkeypatch, capsys):
        called, reports = [], []
        for name in ("closed_loop", "language_equal", "PathSpace"):
            def spy(*args, _real=getattr(synthesis, name), _name=name, **kwargs):
                called.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(synthesis, name, spy)

        def solve(*args, _real=cli.solve_control_problem, **kwargs):
            reports.append(_real(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(cli, "solve_control_problem", solve)
        assert cli.main(["solve", str(models_dir / "production_line.json"), "--format", "json"]) == 0
        capsys.readouterr()
        (report,) = reports
        assert called == [] and report.loop is None and line_report.loop is not None
        for field in dataclasses.fields(report):
            if field.name not in ("loop", "comm", "supervisors"):
                assert getattr(report, field.name) == getattr(line_report, field.name), field.name
        assert _report_dict(report) == _report_dict(line_report)


class TestSolvePipeline:
    def test_fixture_report(self, line_report):
        assert line_report.solvable
        assert len(line_report.checks) == 3 and all(v.holds for v in line_report.checks)
        assert line_report.admissibility.holds
        assert line_report.language.equal
        assert line_report.nonblocking
        assert line_report.verified

    def test_spec_equal_plant_trivially_solvable(self, line_model):
        # the line plant's state 8 reaches no marked state, so the trim
        # would remove it from a specification equal to that plant; the
        # line specification is the plant without state 8, a nonblocking
        # plant that the trim leaves whole
        plant = line_model.spec
        assert is_nonblocking(plant) and set(line_model.plant.states) - set(plant.states) == {"8"}
        report = solve_control_problem(plant, plant, line_model.network)
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
        assert not report.checks[1].holds
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
        """Every state in ``spec_tree`` has an in-spec path to a spec_marked
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
                for sid in comm.spec_tree.keys
            )
            assert spec_nonblocking(comm) == expected, f"seed {seed}"
            verdicts.append(expected)
        assert True in verdicts and False in verdicts


class TestNonblockingProblem:
    """``decide`` trims the specification to the states that reach a
    specification-marked state, so the problem decided is the nonblocking
    one: the closed loop marks exactly ``K`` and generates its prefixes."""

    @pytest.mark.parametrize("params,solvable", [
        (GeneratorParams(), 65),
        (GeneratorParams(n=3, max_comm_states=150), 64),
    ])
    def test_every_solvable_loop_is_nonblocking(self, params, solvable):
        """``SolveReport.nonblocking``, read off the verdicts, is the
        specification walk's answer on every report, solvable or not."""
        seen = 0
        for seed in range(300):
            inst = random_instance(seed, params)
            report = solve_control_problem(inst.plant, inst.spec, inst.net, diagnostic=True)
            assert report.nonblocking == spec_nonblocking(report.comm), f"seed {seed}"
            if report.solvable:
                seen += 1
                assert report.verified and is_nonblocking(report.loop), f"seed {seed}"
        assert seen == solvable

    def test_empty_marked_language_fails_nonblocking(self, line_model):
        spec = dataclasses.replace(line_model.spec, marked=frozenset())
        report = solve_control_problem(line_model.plant, spec, line_model.network, diagnostic=True)
        *three, nonblocking = report.checks
        assert len(three) == 3 and nonblocking.condition is Condition.NONBLOCKING and not nonblocking.holds
        assert nonblocking.witness.mu == () and not report.solvable and not report.verified
        # the specification is kept as it is
        assert report.sizes["spec_states"] == solve_control_problem(
            line_model.plant, line_model.spec, line_model.network).sizes["spec_states"]

    def test_planted_blocking_state_equals_its_removal_by_hand(self, line_model):
        # the line plant as its own specification: its state 8 only ticks
        # and is not marked
        plant, net = line_model.plant, line_model.network
        planted = solve_control_problem(plant, plant, net, diagnostic=True)
        by_hand = solve_control_problem(plant, remove_states(plant, ["8"]), net, diagnostic=True)
        assert _report_dict(planted) == _report_dict(by_hand)
        assert planted.verified and len(planted.checks) == 3

    @pytest.mark.parametrize("params", [GeneratorParams(), GeneratorParams(n=3, max_comm_states=150)])
    def test_planted_trap_equals_its_removal_by_hand(self, params):
        """A new unmarked state that only ticks, entered from the initial
        state, planted in plant and specification alike."""
        compared = 0
        for seed in range(60):
            inst = random_instance(seed, params)
            plant, spec = inst.plant, inst.spec
            free = sorted(plant.alphabet - set(plant.transitions[plant.initial]) - {TICK})
            if not free or not coreachable(spec)[spec.initial]:
                continue
            moves = [(q, e, t) for q in plant.states for e, t in plant.moves(q)]
            moves += [(plant.initial, free[0], "trap"), ("trap", TICK, "trap")]
            trapped = TimedAutomaton.build(
                plant.name, plant.states + ("trap",), plant.alphabet, moves, plant.initial, plant.marked
            )
            keep = set(spec.states) | {"trap"}
            planted = TimedAutomaton.build(
                spec.name, spec.states + ("trap",), spec.alphabet,
                [(q, e, t) for q, e, t in moves if q in keep and t in keep], spec.initial, spec.marked,
            )
            by_hand = remove_states(planted, ["trap"])
            a = solve_control_problem(trapped, planted, inst.net, diagnostic=True)
            b = solve_control_problem(trapped, by_hand, inst.net, diagnostic=True)
            assert _report_dict(a) == _report_dict(b), f"seed {seed}"
            compared += 1
        assert compared >= 20

    def test_decide_prepares_once(self, line_model, monkeypatch):
        """``decide`` runs ``automata.prepare`` once and builds on the
        trimmed problem what ``build_comm_automaton`` builds on it."""
        plant, net = line_model.plant, line_model.network
        expected = build_comm_automaton(plant, remove_states(plant, ["8"]), net)
        calls = []

        def spy(*args, _real=comm_module.prepare):
            calls.append(args)
            return _real(*args)

        monkeypatch.setattr(comm_module, "prepare", spy)
        comm, checks = synthesis.decide(plant, plant, net)
        assert len(calls) == 1 and len(checks) == 3
        assert (comm.keys, comm.table, comm.in_spec, comm.spec_marked) == (
            expected.keys, expected.table, expected.in_spec, expected.spec_marked)


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


class TestPlantEventOutsideEveryAlphabet:
    """A plant event that no supervisor alphabet holds is rejected by the
    build itself, not only by the model loader: the line plant with an
    event ``z`` from state 0 into the removed state 8 once passed every
    existence check although no supervisor can stop ``z``."""

    @pytest.fixture
    def with_z(self, line_model):
        from netsup.automata import TimedAutomaton

        def extended(auto, moves):
            transitions = {q: {**auto.transitions[q], **moves.get(q, {})} for q in auto.states}
            return TimedAutomaton(
                auto.name, auto.states, auto.alphabet | {"z"}, transitions, auto.initial, auto.marked
            )

        return extended(line_model.plant, {"0": {"z": "8"}}), extended(line_model.spec, {})

    def test_build_comm_automaton_rejects_it(self, with_z, line_model):
        with pytest.raises(UnknownNameError, match=r"plant events \['z'\] belong to no supervisor alphabet"):
            build_comm_automaton(*with_z, line_model.network)

    def test_solve_control_problem_rejects_it(self, with_z, line_model):
        with pytest.raises(UnknownNameError, match=r"plant events \['z'\] belong to no supervisor alphabet"):
            solve_control_problem(*with_z, line_model.network)
