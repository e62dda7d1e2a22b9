"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers (run with -s or -v to see them).  Bounds and tolerances
are pinned here; every comparison is exact (tolerance zero) unless a runtime
budget is stated.
"""

import random
import time

from conftest import check_projection_equivalence, observer_elements
from netsup.channels import age, drops, enqueue, pop
from netsup.oracle import brute_check, brute_closed_loop, enumerate_language
from netsup.randgen import GeneratorParams, random_instance
from netsup.simulation import Termination, simulate
from netsup.synthesis import (
    check_admissibility,
    closed_loop,
    language_equal,
    solve_control_problem,
    synthesize_supervisor,
)
from netsup.verification import Condition, existence_checks


def report_line(name, detail):
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def test_c1_fixture_reproduction(line_model):
    """The production-line model: all three conditions hold, the problem is
    solvable, the closed loop equals the specification exactly, and the
    synthesized first supervisor disables a1 exactly in the plant-state-4
    belief states.  Budget: 5 s."""
    start = time.monotonic()
    report = solve_control_problem(line_model.plant, line_model.spec, line_model.network)
    elapsed = time.monotonic() - start
    assert len(report.checks) == 3 and all(v.holds for v in report.checks)
    assert report.solvable
    assert report.admissibility.holds
    assert report.language.generated_equal and report.language.marked_equal
    assert report.nonblocking

    labels = {report.comm.render_state(s) for s in range(report.comm.num_states)}
    for wanted in ["(4,ε,ε)", "(4,(b1,1),ε)", "(0,ε,ε)", "(0,ε,(b2,1))"]:
        assert wanted in labels

    sup1 = report.supervisors[0]
    comm = report.comm
    disabled_at_4 = enabled_at_0 = 0
    for t, elements in enumerate(observer_elements(sup1.observer)):
        plants = {comm.plant_of(s) for s, flag in elements if flag}
        if "4" in plants:
            assert "a1" not in sup1.enable[t]
            disabled_at_4 += 1
        if plants == {"0"}:
            assert "a1" in sup1.enable[t]
            enabled_at_0 += 1
    assert disabled_at_4 >= 1 and enabled_at_0 >= 1
    assert elapsed < 5.0
    report_line(
        "1 fixture reproduction",
        f"{elapsed:.2f}s, comm={comm.num_states} states,"
        f" {disabled_at_4} disabling / {enabled_at_0} enabling belief states",
    )


def test_c2_projection_property_100_instances():
    """Projecting away deliveries and losses recovers the plant language on
    100 seeded instances; exact automaton equivalence.  Budget: 60 s."""
    start = time.monotonic()
    for seed in range(100):
        inst = random_instance(seed)
        verdict = check_projection_equivalence(inst.plant, inst.comm)
        assert verdict.equal, f"seed {seed}: differs at {verdict.distinguishing}"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report_line("2 projection equivalence", f"100 instances in {elapsed:.2f}s")


def test_c3_conditions_sufficient():
    """On every seeded instance where the three checks hold (>= 50 by
    rejection sampling), the synthesized supervisors are admissible and both
    closed-loop equalities hold exactly.  Tolerance zero."""
    passing = 0
    seed = 0
    while passing < 50:
        assert seed < 400, "seed budget exhausted before 50 passing instances"
        inst = random_instance(seed)
        seed += 1
        comm = inst.comm
        if not all(v.holds for v in existence_checks(comm)):
            continue
        passing += 1
        sups = [synthesize_supervisor(comm, i) for i in range(inst.net.n)]
        assert check_admissibility(sups, comm).holds
        lang = language_equal(closed_loop(comm, sups), comm.spec_view())
        assert lang.generated_equal and lang.marked_equal
    report_line("3 conditions sufficient", f"{passing} instances, seeds 0..{seed - 1}")


def test_c4_conditions_necessary():
    """On every seeded instance where some check fails (>= 50), the
    synthesized supervisors are inadmissible or an equality fails; failures
    visible within 8 events are cross-confirmed by the bounded oracle."""
    failing = 0
    cross_confirmed = 0
    seed = 0
    while failing < 50:
        assert seed < 400, "seed budget exhausted before 50 failing instances"
        inst = random_instance(seed)
        seed += 1
        comm = inst.comm
        if all(v.holds for v in existence_checks(comm)):
            continue
        failing += 1
        sups = [synthesize_supervisor(comm, i) for i in range(inst.net.n)]
        adm = check_admissibility(sups, comm)
        lang = language_equal(closed_loop(comm, sups), comm.spec_view())
        assert not (adm.holds and lang.generated_equal and lang.marked_equal)
        diffs = [d for d in (lang.diff_generated, lang.diff_marked) if d is not None]
        if diffs and min(len(d) for d in diffs) <= 8:
            bounded = brute_closed_loop(comm, sups, 8)
            spec_bounded = enumerate_language(comm.spec_view(), 8)
            assert bounded.events == spec_bounded.events
            assert (
                bounded.strings != spec_bounded.strings
                or bounded.marked != spec_bounded.marked
            )
            cross_confirmed += 1
    report_line(
        "4 conditions necessary",
        f"{failing} instances, {cross_confirmed} cross-confirmed at bound 8",
    )


def _oracle_agreement(seed, inst):
    """The engine's three verdicts and closed-loop language on one instance
    against the brute oracle at bound 8: the (seed, property) pairs they
    disagree on, and whether the engine found the instance solvable."""
    comm = inst.comm
    ctrl, obs, clos = existence_checks(comm)
    disagreements = []
    oracle_ctrl = (
        brute_check(Condition.NET_CTRL_1, comm, 8).holds
        and brute_check(Condition.NET_CTRL_2, comm, 8).holds
    )
    if ctrl.holds != oracle_ctrl:
        disagreements.append((seed, "controllability"))
    if obs.holds != brute_check(Condition.NET_JOINT_OBS, comm, 8).holds:
        disagreements.append((seed, "joint observability"))
    if clos.holds != brute_check(Condition.LM_CLOSURE, comm, 8).holds:
        disagreements.append((seed, "closure"))
    sups = [synthesize_supervisor(comm, i) for i in range(inst.net.n)]
    loop_lang = enumerate_language(closed_loop(comm, sups), 8)
    brute_lang = brute_closed_loop(comm, sups, 8)
    assert loop_lang.events == brute_lang.events
    if loop_lang.strings != brute_lang.strings or loop_lang.marked != brute_lang.marked:
        disagreements.append((seed, "closed-loop language"))
    return disagreements, ctrl.holds and obs.holds and clos.holds


def test_c5_oracle_agreement_200_instances():
    """Engine verdicts and closed-loop language agree with the brute oracle
    at bound 8 on 200 seeded instances, zero disagreements.  Budget: 300 s."""
    start = time.monotonic()
    disagreements = []
    for seed in range(200):
        disagreements += _oracle_agreement(seed, random_instance(seed))[0]
    elapsed = time.monotonic() - start
    assert disagreements == []
    assert elapsed < 300.0
    report_line("5 oracle agreement", f"200 instances in {elapsed:.1f}s, 0 disagreements")


def test_c5_oracle_agreement_three_supervisors_delay_three():
    """C5 on 40 instances with three supervisors and channel delays up to 3,
    where the channels hold more entries per run."""
    params = GeneratorParams(n=3, max_delay=3, max_comm_states=150)
    start = time.monotonic()
    disagreements = []
    negative = 0
    for seed in range(40):
        found, solvable = _oracle_agreement(seed, random_instance(seed, params))
        disagreements += found
        negative += not solvable
    elapsed = time.monotonic() - start
    assert disagreements == []
    assert 0 < negative < 40
    report_line(
        "5 oracle agreement (n = 3, delay <= 3)",
        f"40 instances in {elapsed:.1f}s, {negative} negative, 0 disagreements",
    )


def test_c6_channel_calculus():
    """Exact example rows of the per-queue calculus, then FIFO age
    monotonicity and the age bound over 10,000 random operator sequences,
    each on one of the production line's two channels."""
    # example rows, bit-exact
    assert age((), 1) == ()
    assert age((("b1", 0),), 1) == (("b1", 1),)
    assert age((("b1", 1),), 1) is None
    assert enqueue((), "a1") == (("a1", 0),)
    assert enqueue((("b1", 1),), "a1") == (("b1", 1), ("a1", 0))
    assert pop((("b1", 1),)) == ("b1", ())
    assert pop(()) is None
    assert pop((("a1", 1), ("b1", 0)))[0] == "a1"  # only the front event
    assert dict(drops((("a1", 0),), frozenset(["a1"]))) == {1: ()}
    assert 2 not in dict(drops((("a1", 0),), frozenset(["a1"])))  # beyond the queue
    assert 2 not in dict(drops((("a1", 1), ("b1", 0)), frozenset(["a1"])))  # b1 not lossy

    # randomized invariants: (delay bound, carried events, lossy events)
    channels = [(1, ["a1", "b1"], frozenset(["a1"])), (1, ["a2", "b2"], frozenset(["b2"]))]
    rng = random.Random(20260810)
    checked_states = 0
    for _ in range(10_000):
        bound, carried, lossy = rng.choice(channels)
        queue = ()
        for _ in range(rng.randint(1, 25)):
            kind = rng.randrange(4)
            if kind == 0:
                nxt = age(queue, bound)
            elif kind == 1:
                nxt = enqueue(queue, rng.choice(carried))
            elif kind == 2:
                popped = pop(queue)
                nxt = None if popped is None else popped[1]
            else:
                nxt = dict(drops(queue, lossy)).get(rng.randint(1, max(1, len(queue))))
            if nxt is None:
                continue
            queue = nxt
            checked_states += 1
            ages = [entry_age for _event, entry_age in queue]
            assert ages == sorted(ages, reverse=True)
            assert all(a <= bound for a in ages)
    report_line("6 channel calculus", f"rows exact, {checked_states} queues checked")


def test_c7_simulation_safety(line_report, line_loop):
    """1000 seeded runs of 1000 steps each under the synthesized supervisors
    never visit an out-of-spec state."""
    comm = line_report.comm
    out_of_spec = 0
    for seed in range(1000):
        trace = simulate(line_loop, seed, 1000)
        assert trace.terminated is Termination.STEP_LIMIT
        out_of_spec += sum(1 for s in trace.steps if not comm.in_spec[s.comm_state])
    assert out_of_spec == 0
    report_line("7 simulation safety", "1000 runs x 1000 steps, 0 out-of-spec visits")
