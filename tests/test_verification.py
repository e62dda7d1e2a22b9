"""The three existence checks: fixture verdicts, planted violations, witness
replay, and agreement with the brute-force oracle."""

import copy
import dataclasses
import itertools
import json
import re

import pytest

from conftest import observer_elements
from netsup.automata import TICK
from netsup.comm import (
    Plant,
    build_comm_automaton,
    observation_of,
    project_observation,
    render_event,
)
from netsup.errors import ModelError, ResourceLimitError
from netsup.modelio import parse_model
from netsup.oracle import brute_check
from netsup.randgen import GeneratorParams, random_instance
from netsup.synthesis import solve_control_problem, synthesize_supervisor
from netsup.verification import (
    Condition,
    build_twin_product,
    check_lm_closure,
    check_network_controllability,
    check_network_joint_observability,
)


def load_variant(models_dir, mutate):
    doc = json.loads((models_dir / "production_line.json").read_text())
    mutate(doc)
    return parse_model(doc)


def build(model):
    return build_comm_automaton(model.plant, model.spec, model.network)


def replays_joint_obs_violation(comm, witness):
    """True when ``witness`` is a joint-observability violation of ``comm``,
    string by string: ``mu`` and ``nu`` stay in the specification and look
    the same to the named supervisor, and ``sigma`` leaves the
    specification after ``mu`` but stays inside it after ``nu``."""
    mu, nu, sigma, i = witness.mu, witness.nu, Plant(witness.sigma), witness.supervisor
    if not (comm.string_in_spec(mu) and comm.string_in_spec(nu)):
        return False
    if project_observation(mu, i, comm.net) != project_observation(nu, i, comm.net):
        return False
    after_mu, after_nu = comm.target(comm.run(mu), sigma), comm.target(comm.run(nu), sigma)
    return after_mu is not None and not comm.in_spec[after_mu] and after_nu is not None and comm.in_spec[after_nu]


class TestNetworkControllability:
    def test_spec_equal_plant_holds(self, line_model):
        net = line_model.network
        comm = build_comm_automaton(line_model.plant, line_model.plant, net)
        assert check_network_controllability(comm).holds

    def test_fixture_holds(self, line_comm):
        assert check_network_controllability(line_comm).holds

    def test_planted_uncontrollable_exit_found(self, models_dir):
        # make a2 uncontrollable for supervisor 2 and carve state 5 out of the
        # specification: a2 then exits the specification at plant state 4
        def mutate(doc):
            doc["network"]["supervisors"][1]["controllable"] = ["b2", "tick"]
            doc["spec"] = {"remove_states": ["5", "8"]}

        model = load_variant(models_dir, mutate)
        comm = build(model)
        verdict = check_network_controllability(comm)
        assert not verdict.holds
        assert verdict.condition is Condition.NET_CTRL_1
        w = verdict.witness
        assert w.sigma == "a2"
        # witness replays: in-spec run, then the event exits
        assert comm.string_in_spec(w.mu)
        end = comm.run(w.mu)
        out = comm.target(end, Plant("a2"))
        assert out is not None and not comm.in_spec[out]
        # the oracle agrees at bound 8
        assert not brute_check(Condition.NET_CTRL_1, comm, 8).holds

    def test_planted_tick_exit_without_enforceable(self, models_dir):
        # remove state 4 from the specification: the tick 3 -> 4 exits it and
        # nothing is enforceable, so the tick cannot be preempted
        def mutate(doc):
            doc["spec"] = {"remove_states": ["4", "8"]}

        model = load_variant(models_dir, mutate)
        comm = build(model)
        verdict = check_network_controllability(comm)
        assert not verdict.holds
        assert verdict.condition is Condition.NET_CTRL_2
        w = verdict.witness
        assert w.sigma == TICK
        end = comm.run(w.mu)
        assert comm.string_in_spec(w.mu)
        out = comm.target(end, Plant(TICK))
        assert out is not None and not comm.in_spec[out]
        assert not brute_check(Condition.NET_CTRL_2, comm, 8).holds

    def test_enforceable_escape_satisfies_condition_2(self, models_dir):
        # same carve-out, but a2 declared enforceable: the supervisors can
        # preempt the tick at state 4's predecessor... the exit moves to the
        # 3 -> 4 tick whose source state activates no enforceable event, so
        # make the cut after state 3 instead and give state 3 an escape.
        def mutate(doc):
            doc["network"]["enforceable"] = ["a2"]
            doc["spec"] = {"remove_states": ["8"]}

        model = load_variant(models_dir, mutate)
        comm = build(model)
        assert check_network_controllability(comm).holds


class TestJointObservability:
    def test_spec_equal_plant_vacuous(self, line_model):
        comm = build_comm_automaton(line_model.plant, line_model.plant, line_model.network)
        assert check_network_joint_observability(comm).holds

    def test_fixture_holds(self, line_comm):
        assert check_network_joint_observability(line_comm).holds

    def test_fails_without_feedback_channel(self, no_feedback_comm):
        verdict = check_network_joint_observability(no_feedback_comm)
        assert not verdict.holds
        w = verdict.witness
        assert w.sigma == "a1" and w.supervisor == 0
        comm = no_feedback_comm
        assert replays_joint_obs_violation(comm, w)
        # the shortest violating pair needs 11 events on the enable side:
        # invisible to the bounded oracle below that, found at the bound
        assert brute_check(Condition.NET_JOINT_OBS, comm, 10).holds
        assert not brute_check(Condition.NET_JOINT_OBS, comm, 11).holds

    def test_twin_states_are_realizable(self, line_comm):
        """Soundness: every reachable twin pair is realized by an actual
        string pair with equal observations, both staying in the
        specification."""
        for supervisor in range(line_comm.net.n):
            twin = build_twin_product(line_comm, supervisor)
            for tid, (x, y) in enumerate(twin.states):
                mu, nu = twin.strings_to(tid)
                assert line_comm.run(mu) == x
                assert line_comm.run(nu) == y
                assert line_comm.string_in_spec(mu)
                assert line_comm.string_in_spec(nu)
                assert project_observation(mu, supervisor, line_comm.net) == \
                    project_observation(nu, supervisor, line_comm.net)

    @pytest.mark.parametrize("source", ["line", "no_feedback", *range(50)])
    def test_twin_states_are_complete(self, source, line_comm, no_feedback_comm):
        """Completeness: the twin product holds exactly the pairs a plain
        pair search over in-spec moves reaches, each once."""
        comm = {"line": line_comm, "no_feedback": no_feedback_comm}.get(source)
        if comm is None:
            comm = random_instance(source).comm
        for supervisor in range(comm.net.n):
            states = build_twin_product(comm, supervisor).states
            assert len(set(states)) == len(states)
            assert set(states) == reference_twin_pairs(comm, supervisor)

    def test_twin_product_budget(self, line_model, line_comm):
        with pytest.raises(ResourceLimitError, match="supervisor 2"):
            build_twin_product(line_comm, 1, max_states=5)
        # every observer has more than 5 states: the check stops at the
        # first one it reads, as every other stage stops at its budget
        with pytest.raises(ResourceLimitError, match="observer for supervisor 1 exceeds 5 states"):
            check_network_joint_observability(line_comm, max_states=5)
        # a budget that fits the channel-augmented automaton and the observers
        # passes the joint-observability stage, which builds no twin product
        # on a positive verdict, and stops at the closed loop
        with pytest.raises(ResourceLimitError, match="closed loop"):
            solve_control_problem(
                line_model.plant, line_model.spec, line_model.network,
                max_states=line_comm.num_states,
            )

    def test_line_unsolvable_witness(self, models_dir):
        """Delays 1->2 = 1 and 2->1 = 6: the BFS-shortest violating pair,
        with its tie-breaks, is pinned."""
        def mutate(doc):
            for channel in doc["network"]["channels"]:
                channel["delay_bound"] = {(1, 2): 1, (2, 1): 6}[(channel["from"], channel["to"])]

        comm = build(load_variant(models_dir, mutate))
        verdict = check_network_joint_observability(comm)
        assert not verdict.holds
        w = verdict.witness
        assert (w.sigma, w.supervisor) == ("a1", 0)
        assert [render_event(e) for e in w.mu] == [
            "a1", "f12(a1)", "tick", "b1", "f12(b1)", "tick", "tick", "tick",
        ]
        assert [render_event(e) for e in w.nu] == [
            "a1", "f12(a1)", "tick", "b1", "f12(b1)", "tick", "a2", "tick", "b2", "tick",
        ]


    @pytest.mark.parametrize("budget", [100, 150])
    def test_observer_over_budget_raises(self, models_dir, budget):
        """Delays 1->2 = 1 and 2->1 = 6: supervisor 1's observer has 169
        states.  The check decides on the observers alone, so a budget below
        that stops it with the observer's ResourceLimitError, although the
        witness walk would fit; the default budget gives the pinned
        witness."""
        def mutate(doc):
            for channel in doc["network"]["channels"]:
                channel["delay_bound"] = {(1, 2): 1, (2, 1): 6}[(channel["from"], channel["to"])]

        model = load_variant(models_dir, mutate)
        with pytest.raises(ResourceLimitError, match=f"observer for supervisor 1 exceeds {budget} states"):
            check_network_joint_observability(build(model), max_states=budget)
        comm = build(model)
        expected = check_network_joint_observability(comm)
        assert budget < comm.observer(0).num_states == 169
        assert not expected.holds and expected.witness.sigma == "a1"


def full_twin_scan(comm):
    """The joint-observability check as a scan of whole twin products:
    (holds, sigma, supervisor, mu, nu) of the lowest-id violating pair, in
    (event, supervisor) order."""
    net = comm.net
    twins = {}
    for event in sorted(net.globally_controllable, key=lambda e: (e != TICK, e)):
        exits, stays = set(), set()
        for sid in range(comm.num_states):
            dst = comm.target(sid, Plant(event))
            if sid in comm.spec_tree.index and dst is not None:
                (stays if comm.in_spec[dst] else exits).add(sid)
        if not (exits and stays):
            continue
        for supervisor in net.controllers(event):
            if supervisor not in twins:
                twins[supervisor] = build_twin_product(comm, supervisor)
            twin = twins[supervisor]
            for tid, (x, y) in enumerate(twin.states):
                if x in exits and y in stays:
                    return (False, event, supervisor, *twin.strings_to(tid))
    return (True, None, None, None, None)


class TestObserverScan:
    """The check reads the observers and builds a twin product only to
    replay a witness; it must decide and witness exactly as a scan of the
    full twin products does."""

    @pytest.mark.parametrize("params", [
        GeneratorParams(),
        GeneratorParams(n=3, max_comm_states=150),
        GeneratorParams(n=3, max_delay=3, max_comm_states=150),
    ], ids=["n2", "n3", "n3-delay3"])
    def test_equals_full_twin_scan(self, params):
        """Also under a budget one below the larger observer: the check
        either breaks the budget (on that observer, or on the witness walk)
        with ResourceLimitError, or gives the default verdict."""
        negative = fits = raised = 0
        for seed in range(300):
            comm = random_instance(seed, params).comm
            verdict = check_network_joint_observability(comm)
            w = verdict.witness
            got = (verdict.holds, None, None, None, None) if w is None else \
                (verdict.holds, w.sigma, w.supervisor, w.mu, w.nu)
            assert got == full_twin_scan(comm), seed
            negative += not verdict.holds
            budget = max(comm.observer(i).num_states for i in range(comm.net.n)) - 1
            try:
                tight = check_network_joint_observability(comm, max_states=budget)
            except ResourceLimitError as exc:
                assert re.match(r"(observer|twin product) for supervisor \d+ exceeds", str(exc)), seed
                raised += 1
                continue
            assert tight == verdict, seed
            fits += 1
        assert negative >= 30  # 42, 46 and 31: the sweep exercises the witness search
        assert fits >= 260 and raised >= 20, (fits, raised)  # 268/32, 277/23 and 274/26

    def test_synthesis_reuses_the_checks_observer(self, line_model):
        comm = build(line_model)
        assert check_network_joint_observability(comm).holds
        observer = comm._observers[0]  # built by the check
        assert synthesize_supervisor(comm, 0).observer is observer

    def test_copies_start_without_observers(self, line_report):
        clone = copy.deepcopy(line_report.comm)
        assert line_report.comm._observers and not clone._observers
        assert clone.observer(0) is not line_report.supervisors[0].observer


def reference_twin_pairs(comm, supervisor):
    """Pairs of states reached by two in-spec runs that supervisor
    ``supervisor`` observes alike: a plain breadth-first pair search."""
    net = comm.net

    def moves(sid):
        return [
            (observation_of(e, supervisor, net), t)
            for e, t in comm.transitions[sid].items()
            if comm.in_spec[t]
        ]

    if not comm.in_spec[comm.initial]:
        return set()
    start = (comm.initial, comm.initial)
    seen = {start}
    queue = [start]
    for x, y in queue:
        successors = [(t, y) for symbol, t in moves(x) if symbol is None]
        successors += [(x, t) for symbol, t in moves(y) if symbol is None]
        successors += [
            (tx, ty)
            for sx, tx in moves(x) if sx is not None
            for sy, ty in moves(y) if sy == sx
        ]
        for pair in successors:
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)
    return seen


def statewise_controllability(comm):
    """Both controllability conditions as a statewise scan of the moves:
    (holds, condition, mu, sigma)."""
    net = comm.net
    reachable = sorted(comm.spec_tree.keys)
    for sid in reachable:
        for event in sorted(net.uncontrollable, key=lambda e: (e != TICK, e)):
            dst = comm.target(sid, Plant(event))
            if dst is not None and not comm.in_spec[dst]:
                return (False, Condition.NET_CTRL_1, comm.spec_path(sid), event)
    for sid in reachable:
        dst = comm.target(sid, Plant(TICK))
        if dst is None or comm.in_spec[dst]:
            continue
        if not any(
            isinstance(e, Plant) and e.event in net.enforceable and comm.in_spec[t]
            for e, t in comm.transitions[sid].items()
        ):
            return (False, Condition.NET_CTRL_2, comm.spec_path(sid), TICK)
    return (True, Condition.NET_CTRL_1, None, None)


class TestExitTable:
    """``exits``/``stays`` say which plant moves leave the specification and
    ``tick_critical`` where tick cannot be preempted; each observer state
    summarizes them over its flagged elements.  Controllability and the
    enable-sets read them and must agree with their definitions over the
    moves themselves."""

    @pytest.mark.parametrize("source", ["line", "n2", "n3"])
    def test_readers_match_definitions(self, source, line_comm):
        if source == "line":
            comms = [line_comm]
        else:
            params = GeneratorParams() if source == "n2" else GeneratorParams(n=3, max_comm_states=150)
            comms = [random_instance(seed, params).comm for seed in range(300)]
        negatives = {Condition.NET_CTRL_1: 0, Condition.NET_CTRL_2: 0}
        for seed, comm in enumerate(comms):
            net = comm.net
            for sid, moves in enumerate(comm.transitions):
                plant = [(e.event, t) for e, t in moves.items() if isinstance(e, Plant)]
                assert comm.exits[sid] == {e for e, t in plant if not comm.in_spec[t]}, seed
                assert comm.stays[sid] == {e for e, t in plant if comm.in_spec[t]}, seed
                assert comm.tick_critical[sid] == (Plant(TICK) in moves and not any(
                    e in net.enforceable and comm.in_spec[t] for e, t in plant
                )), seed
            verdict = check_network_controllability(comm)
            w = verdict.witness
            got = (verdict.holds, verdict.condition, None, None) if w is None else \
                (verdict.holds, verdict.condition, w.mu, w.sigma)
            assert got == statewise_controllability(comm), seed
            if not verdict.holds:
                negatives[verdict.condition] += 1
            for i in range(net.n):
                sup = synthesize_supervisor(comm, i)
                observer = sup.observer
                for t, elements in enumerate(observer_elements(observer)):
                    reached = [x for x, flag in elements if flag]
                    assert observer.in_spec[t] == bool(reached), seed
                    assert observer.exits[t] == set().union(*(comm.exits[x] for x in reached)), seed
                    assert observer.stays[t] == set().union(*(comm.stays[x] for x in reached)), seed
                    assert observer.tick_critical[t] == any(comm.tick_critical[x] for x in reached), seed
                for elements, enable in zip(observer_elements(sup.observer), sup.enable):
                    disabled = {
                        e.event
                        for x, flag in elements if flag
                        for e, t in comm.transitions[x].items()
                        if isinstance(e, Plant) and e.event in net.controllable[i] and not comm.in_spec[t]
                    }
                    assert enable == net.alphabets[i] - disabled, seed
        if source != "line":  # 135 / 51 (n2) and 172 / 27 (n3)
            assert negatives[Condition.NET_CTRL_1] >= 100
            assert negatives[Condition.NET_CTRL_2] >= 20


class TestDelayMonotonicity:
    """The production line over delay bounds 0-4 on each channel: a longer
    delay never makes the problem solvable, and a violation found at one
    pair of bounds is one at every larger pair."""

    @pytest.fixture(scope="class")
    def comms(self, models_dir):
        built = {}

        def comm(out, back):
            """The automaton with delay bounds 1->2 = ``out``, 2->1 = ``back``."""
            if (out, back) not in built:
                def mutate(doc):
                    for channel in doc["network"]["channels"]:
                        channel["delay_bound"] = {(1, 2): out, (2, 1): back}[(channel["from"], channel["to"])]
                built[out, back] = build(load_variant(models_dir, mutate))
            return built[out, back]
        return comm

    def test_solvable_exactly_when_the_feedback_delay_is_at_most_one(self, comms):
        grid = {
            (out, back): all(check(comms(out, back)).holds for check in (
                check_network_controllability, check_network_joint_observability, check_lm_closure,
            ))
            for out in range(5) for back in range(5)
        }
        assert grid == {(out, back): back <= 1 for out, back in grid}

    def test_witnesses_replay_at_larger_delays(self, comms):
        replayed = 0
        for out in range(5):
            for back in range(2, 5):
                verdict = check_network_joint_observability(comms(out, back))
                assert not verdict.holds
                for larger in ((out + 1, back), (out, back + 1), (out + 2, back + 2)):
                    assert replays_joint_obs_violation(comms(*larger), verdict.witness), ((out, back), larger)
                    replayed += 1
        assert replayed == 45


class TestLossMonotonicity:
    """The production line over delay bounds 0-3 on each channel and three
    nested lossy sets per channel (none, the declared one, every carried
    event): a lossier channel never makes the problem solvable, and a
    joint-observability violation is one at the next lossier set on either
    channel."""

    LOSSY = {(1, 2): ((), ("a1",), ("a1", "b1")), (2, 1): ((), ("b2",), ("a2", "b2"))}

    @pytest.fixture(scope="class")
    def cells(self, models_dir):
        """Per cell ``(out, back, k12, k21)``, the automaton with delay
        bounds 1->2 = ``out`` and 2->1 = ``back`` and the ``k``-th lossy set
        of each channel."""
        built = {}
        for out, back, k12, k21 in itertools.product(range(4), range(4), range(3), range(3)):
            delays, levels = {(1, 2): out, (2, 1): back}, {(1, 2): k12, (2, 1): k21}

            def mutate(doc):
                for channel in doc["network"]["channels"]:
                    key = (channel["from"], channel["to"])
                    channel["delay_bound"] = delays[key]
                    channel["lossy"] = list(self.LOSSY[key][levels[key]])
            built[out, back, k12, k21] = build(load_variant(models_dir, mutate))
        assert len(built) == 144
        return built

    @staticmethod
    def lossier(cell):
        """The cells one lossy set up on either channel."""
        out, back, k12, k21 = cell
        return [larger for larger in ((out, back, k12 + 1, k21), (out, back, k12, k21 + 1)) if max(larger[2:]) < 3]

    def test_more_loss_never_makes_the_problem_solvable(self, cells):
        solvable = {
            cell: all(check(comm).holds for check in (
                check_network_controllability, check_network_joint_observability, check_lm_closure,
            ))
            for cell, comm in cells.items()
        }
        lost = []
        for cell, holds in solvable.items():
            for larger in self.lossier(cell):
                assert holds or not solvable[larger], (cell, larger)
                if holds and not solvable[larger]:
                    lost.append((cell, larger))
        assert sum(not holds for holds in solvable.values()) == 96
        # the property is exercised: 24 cells lose solvability, each when a2
        # is made lossy on 2->1
        assert len(lost) == 24
        assert all(cell[3] == 1 and larger[3] == 2 for cell, larger in lost)

    def test_witnesses_replay_at_lossier_sets(self, cells):
        replayed = violated = 0
        for cell, comm in cells.items():
            verdict = check_network_joint_observability(comm)
            if verdict.holds:
                continue
            violated += 1
            for larger in self.lossier(cell):
                assert replays_joint_obs_violation(cells[larger], verdict.witness), (cell, larger)
                replayed += 1
        assert (violated, replayed) == (96, 112)


class TestRandomInstanceMonotonicity:
    """Seeds 0-149 of two generators: raising one channel's delay bound by
    one, or making one more carried event lossy on one channel, never turns
    an unsolvable instance solvable.  A pair whose build or check breaks
    the 20,000-state budget is skipped."""

    BUDGET = 20_000

    @classmethod
    def solvable(cls, inst, net):
        comm = build_comm_automaton(inst.plant, inst.spec, net, max_states=cls.BUDGET)
        return (
            check_network_controllability(comm).holds
            and check_network_joint_observability(comm, max_states=cls.BUDGET).holds
            and check_lm_closure(comm).holds
        )

    @staticmethod
    def weaker(net):
        """Each network one step weaker on one channel, as (kind, network):
        the delay bound one higher, or one more carried event lossy."""
        for key, link in sorted(net.channels.items()):
            links = [("delay", dataclasses.replace(link, delay_bound=link.delay_bound + 1))]
            links += [("loss", dataclasses.replace(link, lossy=link.lossy | {e})) for e in sorted(link.events - link.lossy)]
            for kind, weaker in links:
                yield kind, dataclasses.replace(net, channels={**net.channels, key: weaker})

    @pytest.mark.parametrize("params,expected", [
        (GeneratorParams(), {"pairs": {"delay": 222, "loss": 145}, "lost": {"delay": 0, "loss": 1}}),
        (GeneratorParams(n=3, max_comm_states=150),
         {"pairs": {"delay": 638, "loss": 333}, "lost": {"delay": 0, "loss": 0}}),
    ], ids=["default", "n3"])
    def test_weaker_channel_never_makes_the_problem_solvable(self, params, expected):
        pairs = {"delay": 0, "loss": 0}
        lost = {"delay": 0, "loss": 0}
        for seed in range(150):
            inst = random_instance(seed, params)
            try:
                base = self.solvable(inst, inst.net)
            except ResourceLimitError:
                continue
            for kind, net in self.weaker(inst.net):
                try:
                    holds = self.solvable(inst, net)
                except ResourceLimitError:
                    continue
                assert base or not holds, (seed, kind, net.channels)
                pairs[kind] += 1
                lost[kind] += base and not holds
        # pinned, so a change of generator or budget shows; few pairs change
        # the verdict, because most unsolvable instances fail controllability,
        # which no channel affects
        assert {"pairs": pairs, "lost": lost} == expected


class TestLmClosure:
    def test_inherited_marking_holds(self, line_comm):
        assert check_lm_closure(line_comm).holds

    def test_marking_override_can_fail(self, models_dir):
        def mutate(doc):
            doc["spec"] = {"remove_states": ["8"], "marked": []}

        model = load_variant(models_dir, mutate)
        assert model.spec.marked != model.plant.marked & set(model.spec.states)
        comm = build(model)
        verdict = check_lm_closure(comm)
        assert not verdict.holds
        # witness: an in-spec run to a plant-marked state the override unmarked
        end = comm.run(verdict.witness.mu)
        assert comm.string_in_spec(verdict.witness.mu)
        assert comm.marked[end] and not comm.spec_marked[end]
        assert not brute_check(Condition.LM_CLOSURE, comm, 8).holds

    def test_marking_beyond_plant_is_a_model_error(self, line_model):
        """Model files cannot mark a specification state the plant leaves
        unmarked (``modelio`` rejects it), and the Python API cannot either:
        ``build_comm_automaton`` rejects the specification, so
        ``check_lm_closure`` never meets such a marking."""
        spec, plant = line_model.spec, line_model.plant
        unmarked = next(q for q in spec.states if q not in plant.marked)
        over_marked = dataclasses.replace(spec, marked=spec.marked | {unmarked})
        with pytest.raises(ModelError, match="marked set must be a subset of the inherited one"):
            build_comm_automaton(plant, over_marked, line_model.network)


class TestOracleAgreement:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_instances_agree_at_bound_8(self, seed):
        inst = random_instance(seed)
        comm = inst.comm
        engine_ctrl = check_network_controllability(comm).holds
        oracle_ctrl = (
            brute_check(Condition.NET_CTRL_1, comm, 8).holds
            and brute_check(Condition.NET_CTRL_2, comm, 8).holds
        )
        assert engine_ctrl == oracle_ctrl
        assert check_network_joint_observability(comm).holds == \
            brute_check(Condition.NET_JOINT_OBS, comm, 8).holds
        assert check_lm_closure(comm).holds == \
            brute_check(Condition.LM_CLOSURE, comm, 8).holds

    @pytest.mark.parametrize("seed", range(40))
    def test_failing_witnesses_replay(self, seed):
        inst = random_instance(seed)
        comm = inst.comm
        for verdict in (
            check_network_controllability(comm),
            check_network_joint_observability(comm),
            check_lm_closure(comm),
        ):
            if verdict.holds:
                continue
            w = verdict.witness
            assert w is not None
            assert comm.string_in_spec(w.mu)
            end = comm.run(w.mu)
            if verdict.condition in (Condition.NET_CTRL_1, Condition.NET_CTRL_2):
                out = comm.target(end, Plant(w.sigma))
                assert out is not None and not comm.in_spec[out]
            elif verdict.condition is Condition.NET_JOINT_OBS:
                assert comm.string_in_spec(w.nu)
                other = comm.run(w.nu)
                assert not comm.in_spec[comm.target(end, Plant(w.sigma))]
                assert comm.in_spec[comm.target(other, Plant(w.sigma))]
                assert project_observation(w.mu, w.supervisor, comm.net) == \
                    project_observation(w.nu, w.supervisor, comm.net)
            else:
                assert comm.marked[end] and not comm.spec_marked[end]
