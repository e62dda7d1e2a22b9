"""The brute-force oracle itself: enumeration, bounded semantics, planted
defects."""

import hashlib
from collections import Counter

import pytest

from conftest import alternating, gagged
from netsup.automata import TICK, TimedAutomaton
from netsup.comm import build_comm_automaton, render_event
from netsup.network import ChannelLink, NetworkConfig
from netsup.oracle import agreement, agreement_for_seed, brute_check, brute_closed_loop, enumerate_language
from netsup.randgen import GeneratorParams, random_instance
from netsup.synthesis import SupervisorMap, closed_loop, decide, synthesize_supervisor
from netsup.verification import (
    Condition,
    Verdict,
    check_lm_closure,
    check_network_controllability,
    check_network_joint_observability,
    existence_checks,
)
from test_comm import line_with_delays

CONDITIONS = (Condition.NET_CTRL_1, Condition.NET_CTRL_2, Condition.NET_JOINT_OBS, Condition.LM_CLOSURE)


def ta(name, states, alphabet, transitions, initial, marked):
    return TimedAutomaton.build(name, states, alphabet, transitions, initial, marked)


def tick_only():
    return ta("T", ["0"], [TICK], [("0", TICK, "0")], "0", ["0"])


class TestEnumerate:
    def test_bound_zero(self):
        lang = enumerate_language(tick_only(), 0)
        assert lang.strings == {""}
        assert lang.marked == {""}
        assert lang.decode("") == ()

    def test_tick_self_loop(self):
        lang = enumerate_language(tick_only(), 3)
        assert lang.events == (TICK,)
        assert lang.strings == {"", "\0", "\0\0", "\0\0\0"}
        assert {lang.decode(s) for s in lang.strings} == {(), (TICK,), (TICK, TICK), (TICK, TICK, TICK)}

    def test_count_matches_recursive_dfs(self, line_comm):
        """Independent recursive count of bounded strings."""

        def count(sid, depth):
            total = 1
            if depth:
                for event, dst in line_comm.transitions[sid].items():
                    total += count(dst, depth - 1)
            return total

        lang = enumerate_language(line_comm, 4)
        assert len(lang.strings) == count(line_comm.initial, 4)

    def test_prefix_closed(self, line_comm):
        lang = enumerate_language(line_comm, 5)
        for s in lang.strings:
            assert s[:-1] in lang.strings or s == ""


def planted_defect_model():
    """Uncontrollable exit from the specification at run depth 3."""
    plant = ta(
        "P",
        ["0", "1", "2", "bad"],
        [TICK, "a1", "u1"],
        [
            ("0", TICK, "1"),
            ("1", TICK, "1"),
            ("1", "a1", "2"),
            ("2", TICK, "2"),
            ("2", "u1", "bad"),
            ("bad", TICK, "bad"),
        ],
        "0",
        ["0"],
    )
    net = NetworkConfig.build(
        2,
        [["a1", "u1", TICK], ["b2", TICK]],
        [["a1", TICK], ["b2", TICK]],  # u1 uncontrollable for supervisor 1
        [["a1", "u1", TICK], ["b2", TICK]],
        [],
        {(0, 1): ChannelLink(frozenset(["a1"]), frozenset(), 1)},
    )
    from netsup.automata import remove_states

    spec = remove_states(plant, ["bad"], name="H")
    return build_comm_automaton(plant, spec, net)


class TestBruteCheck:
    def test_planted_defect_found_at_8(self):
        comm = planted_defect_model()
        verdict = brute_check(Condition.NET_CTRL_1, comm, 8)
        assert not verdict.holds
        assert verdict.witness.sigma == "u1"
        # shortest violating run: tick a1 then u1 exits, total length 3
        assert len(verdict.witness.mu) == 2

    def test_planted_defect_invisible_at_2(self):
        # the full quantified string has length 3, beyond a bound of 2
        comm = planted_defect_model()
        assert brute_check(Condition.NET_CTRL_1, comm, 2).holds

    def test_fixture_all_conditions_hold_at_8(self, line_comm):
        for condition in CONDITIONS:
            assert brute_check(condition, line_comm, 8).holds

    @pytest.mark.parametrize("condition", CONDITIONS, ids=lambda c: c.value)
    def test_bound_zero_and_negative(self, condition):
        """The extending event counts within the bound, so at bound 0 the
        conditions that extend a string hold vacuously, and Lm-closure reads
        the empty string alone; a negative bound is refused."""
        comm = planted_defect_model()
        assert brute_check(condition, comm, 0) == Verdict(condition, True)
        with pytest.raises(ValueError, match="bound must be >= 0"):
            brute_check(condition, comm, -1)


class TestBruteClosedLoop:
    def test_enable_everything_equals_enumeration(self, line_comm):
        sups = []
        for i in range(line_comm.net.n):
            sup = synthesize_supervisor(line_comm, i)
            sups.append(
                SupervisorMap(
                    i, sup.observer,
                    tuple(line_comm.net.alphabets[i] for _ in sup.enable),
                )
            )
        direct = enumerate_language(line_comm, 6)
        controlled = brute_closed_loop(line_comm, sups, 6)
        assert controlled.events == direct.events
        assert controlled.strings == direct.strings
        assert controlled.marked == direct.marked

    def test_fixture_supervisors_reproduce_spec_language(self, line_report):
        bounded = brute_closed_loop(line_report.comm, line_report.supervisors, 8)
        spec_lang = enumerate_language(line_report.comm.spec_view(), 8)
        assert bounded.events == spec_lang.events
        assert bounded.strings == spec_lang.strings
        assert bounded.marked == spec_lang.marked

    def test_tick_disabled_everywhere_freezes_plant(self):
        net = NetworkConfig.build(
            1, [[TICK]], [[TICK]], [[TICK]], [], {},
        )
        plant = tick_only()
        comm = build_comm_automaton(plant, plant, net)
        sup = synthesize_supervisor(comm, 0)
        gagged = SupervisorMap(0, sup.observer, tuple(frozenset() for _ in sup.enable))
        lang = brute_closed_loop(comm, [gagged], 5)
        assert lang.strings == {""}


    def test_negative_bound_is_refused(self, line_report, line_loop):
        assert brute_closed_loop(line_report.comm, line_report.supervisors, 0).strings == {""}
        with pytest.raises(ValueError, match="bound must be >= 0"):
            brute_closed_loop(line_report.comm, line_report.supervisors, -1)
        with pytest.raises(ValueError, match="bound must be >= 0"):
            enumerate_language(line_loop, -1)

    @pytest.mark.parametrize("order,message", [
        ((0,), "expected 2 supervisors, got 1"),
        ((1, 0), "supervisor 2 is at position 1"),
        ((0, 1, 0), "expected 2 supervisors, got 3"),
    ], ids=["short", "swapped", "long"])
    def test_supervisor_list_is_checked(self, line_report, order, message):
        """The oracle refuses a supervisor list as the closed loop does."""
        sups = [line_report.supervisors[i] for i in order]
        with pytest.raises(ValueError, match=f"^{message}$"):
            closed_loop(line_report.comm, sups)
        with pytest.raises(ValueError, match=f"^{message}$"):
            brute_closed_loop(line_report.comm, sups, 6)


class CommandSpy:
    """A supervisor that counts the observations it is asked about; its
    ``supervisor`` is the index, as a ``SupervisorMap``'s is."""

    def __init__(self, sup):
        self.supervisor = sup.supervisor
        self.sup = sup
        self.calls = Counter()

    def command(self, observation):
        self.calls[tuple(observation)] += 1
        return self.sup.command(observation)


class TestBruteClosedLoopQueries:
    def cases(self, line_report):
        yield line_report.comm, line_report.supervisors
        for seed in range(20):
            comm = random_instance(seed).comm
            yield comm, [synthesize_supervisor(comm, i) for i in range(comm.net.n)]

    def test_each_observation_queried_once_per_supervisor(self, line_report):
        total = 0
        for comm, sups in self.cases(line_report):
            spies = [CommandSpy(sup) for sup in sups]
            brute_closed_loop(comm, spies, 6)
            for spy in spies:
                assert max(spy.calls.values(), default=0) <= 1
                total += len(spy.calls)
        assert total > 0

    def test_language_equals_closed_loop_enumeration(self, line_report):
        for comm, sups in self.cases(line_report):
            brute = brute_closed_loop(comm, [CommandSpy(sup) for sup in sups], 6)
            loop = enumerate_language(closed_loop(comm, sups), 6)
            assert brute.events == loop.events
            assert brute.strings == loop.strings
            assert brute.marked == loop.marked


class TestBruteClosedLoopEditedSupervisors:
    """Oracle and closed loop agree on supervisor sets whose commands are
    not the synthesized ones, so that controllers of one event disagree."""

    @pytest.mark.parametrize("params", [GeneratorParams(), GeneratorParams(n=3, max_comm_states=150)],
                             ids=["n2", "n3"])
    def test_language_equals_closed_loop_enumeration(self, params):
        changed = 0
        for seed in range(40):
            comm = random_instance(seed, params).comm
            sups = [synthesize_supervisor(comm, i) for i in range(comm.net.n)]
            languages = []
            for sups_set in (sups, alternating(comm, sups), gagged(comm, sups)):
                spies = [CommandSpy(sup) for sup in sups_set]
                brute = brute_closed_loop(comm, spies, 6)
                loop = enumerate_language(closed_loop(comm, sups_set), 6)
                assert (brute.events, brute.strings, brute.marked) == (loop.events, loop.strings, loop.marked)
                for spy in spies:
                    assert max(spy.calls.values(), default=0) <= 1
                languages.append(brute.strings)
            changed += sum(strings != languages[0] for strings in languages[1:])
        assert changed > 0


# recorded on the tuple-string oracle that the encoded strings replaced
VERDICTS = "81fd44e9452a7ca56ca87c93bc0d7ecfe8b97ac0f6c7c507ee6c36d3b2edc52e"
LANGUAGES = "13272e0971ef8e0862a8404e44202b5a5896b7aa4a56cb738d13b3030961e632"


def rendered(string):
    return None if string is None else " ".join(render_event(e) for e in string)


def verdicts_digest():
    """sha256 over every ``brute_check`` verdict with its rendered witness:
    each condition at bounds 5 and 8 on seeds 0-199 of both generators;
    with the number of checks and of violations."""
    h = hashlib.sha256()
    checks = violations = 0
    for params in (GeneratorParams(), GeneratorParams(n=3, max_comm_states=150)):
        for seed in range(200):
            comm = random_instance(seed, params).comm
            for bound in (5, 8):
                for condition in CONDITIONS:
                    verdict = brute_check(condition, comm, bound)
                    w = verdict.witness
                    row = (seed, bound, condition.value, verdict.holds) + (
                        w and (rendered(w.mu), w.sigma, rendered(w.nu), w.supervisor),
                    )
                    h.update(repr(row).encode() + b"\n")
                    checks += 1
                    violations += not verdict.holds
    return h.hexdigest(), checks, violations


def languages_digest():
    """sha256 over the sorted rendered strings and marked strings of the
    closed loop's bounded language and of the oracle's, at bound 8 on
    seeds 0-39 of ``GeneratorParams()``."""
    h = hashlib.sha256()
    for seed in range(40):
        comm = random_instance(seed).comm
        sups = [synthesize_supervisor(comm, i) for i in range(comm.net.n)]
        for language in (enumerate_language(closed_loop(comm, sups), 8), brute_closed_loop(comm, sups, 8)):
            for strings in (language.strings, language.marked):
                h.update(repr(sorted(rendered(language.decode(s)) for s in strings)).encode() + b"\n")
    return h.hexdigest()


class TestOracleIdentity:
    """Every oracle verdict, witness and bounded language on random
    instances, pinned as sha256 digests, so that a faster string encoding
    cannot change them."""

    def test_brute_check_verdicts(self):
        assert verdicts_digest() == (VERDICTS, 3200, 904)

    def test_closed_loop_languages(self):
        assert languages_digest() == LANGUAGES


def public_disagreements(seed, bound):
    """The properties engine and oracle disagree on for instance ``seed``,
    rebuilt from the public API with one ``brute_check`` call per
    condition."""
    comm = random_instance(seed).comm
    pairs = [
        (
            "NetworkControllability",
            check_network_controllability(comm).holds,
            brute_check(Condition.NET_CTRL_1, comm, bound).holds
            and brute_check(Condition.NET_CTRL_2, comm, bound).holds,
        ),
        (
            "NetworkJointObservability",
            check_network_joint_observability(comm).holds,
            brute_check(Condition.NET_JOINT_OBS, comm, bound).holds,
        ),
        ("LmClosure", check_lm_closure(comm).holds, brute_check(Condition.LM_CLOSURE, comm, bound).holds),
    ]
    names = [name for name, engine, oracle in pairs if engine != oracle]
    sups = [synthesize_supervisor(comm, i) for i in range(comm.net.n)]
    loop = enumerate_language(closed_loop(comm, sups), bound)
    brute = brute_closed_loop(comm, sups, bound)
    if loop.strings != brute.strings or loop.marked != brute.marked:
        names.append("ClosedLoopLanguage")
    return names


class TestAgreementSharedEnumeration:
    """``agreement_for_seed`` walks the in-spec strings once and shares the
    walk between the conditions; its verdicts equal one ``brute_check``
    call per condition.  At bound 1 the extending checks read only the
    empty string."""

    @pytest.mark.parametrize("bound", [1, 2, 8])
    def test_matches_one_brute_check_per_condition(self, bound):
        for seed in range(60):
            assert agreement_for_seed(seed, bound)["disagreements"] == public_disagreements(seed, bound), seed


class TestAgreementAtWitnessLength:
    """Engine and oracle agree where the channels make witnesses long.  A
    bounded oracle confirms a negative verdict only when the bound exceeds
    its witness, and a positive cell proves agreement only up to its bound."""

    def test_line_model_delay_grid(self, line_model):
        """Every pair of delays 0-6 on the 1->2 and 2->1 channels, each cell
        at one past its longest witness string, at least 8 and at most 11: a
        negative cell is confirmed, a positive one agrees up to its bound."""
        negative = 0
        for delays in [(out, back) for out in range(7) for back in range(7)]:
            comm = line_with_delays(line_model, delays)
            failed = [v.witness for v in existence_checks(comm) if not v.holds]
            longest = max((len(string) for w in failed for string in (w.mu, w.nu or ())), default=0)
            bound = min(11, max(8, longest + 1))
            assert agreement(comm, bound) == [], delays
            negative += bool(failed)
        assert negative == 35

    def test_three_supervisors_at_bound_10(self):
        """Seeds 0-99 of three supervisors; a positive instance agrees up to
        bound 10 only."""
        params = GeneratorParams(n=3, max_comm_states=150)
        for seed in range(100):
            assert agreement(random_instance(seed, params).comm, 10) == [], seed

    def test_decided_automaton_at_bound_8(self):
        """Seeds 0-99 on the automaton ``decide`` builds, whose
        specification keeps only the states that reach a marked one."""
        trimmed = 0
        for seed in range(100):
            inst = random_instance(seed)
            comm, _ = decide(inst.plant, inst.spec, inst.net)
            assert agreement(comm, 8) == [], seed
            trimmed += comm.in_spec != inst.comm.in_spec
        assert trimmed == 11

    def test_delays_up_to_3_at_bound_10(self):
        """Seeds 0-99 with delay bounds up to 3 and automata up to 2,000
        states; a positive instance agrees up to bound 10 only."""
        params = GeneratorParams(max_delay=3, max_comm_states=2000)
        for seed in range(100):
            assert agreement(random_instance(seed, params).comm, 10) == [], seed


class TestGenerator:
    def test_deterministic_per_seed(self):
        a = random_instance(123)
        b = random_instance(123)
        assert a.plant == b.plant
        assert a.spec == b.spec
        assert a.net == b.net

    def test_instances_pass_timed_assumptions(self):
        from netsup.automata import validate_timed_assumptions

        for seed in range(50):
            inst = random_instance(seed)
            assert validate_timed_assumptions(inst.plant, inst.net.enforceable).ok

    def test_instance_sizes_bounded(self):
        for seed in range(50):
            inst = random_instance(seed)
            assert 2 <= len(inst.plant.states) <= 6
            assert inst.comm.num_states <= 150
            for link in inst.net.channels.values():
                assert 0 <= link.delay_bound <= 2
