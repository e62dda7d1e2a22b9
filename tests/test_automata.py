"""Timed-automaton core: composition, accessibility, subautomata, assumptions."""

import random

import pytest

from netsup import automata
from netsup.automata import (
    TICK,
    TimedAutomaton,
    accessible,
    is_nonblocking,
    parallel_compose,
    remove_states,
    subautomaton_defect,
    validate_timed_assumptions,
)
from netsup.errors import CompositionError, DeterminismError, ResourceLimitError, UnknownNameError
from netsup.oracle import enumerate_language


def ta(name, states, alphabet, transitions, initial, marked):
    return TimedAutomaton.build(name, states, alphabet, transitions, initial, marked)


def unit():
    """Single state, tick self-loop, marked: the composition identity."""
    return ta("U", ["u"], [TICK], [("u", TICK, "u")], "u", ["u"])


def tick_cycle(name, private):
    """Two-state tick cycle with one private event."""
    return ta(
        name,
        ["0", "1"],
        [TICK, private],
        [("0", TICK, "1"), ("1", TICK, "0"), ("0", private, "1")],
        "0",
        ["0"],
    )


def bounded_strings(alphabet, k):
    frontier = [()]
    for _ in range(k):
        frontier = [s + (e,) for s in frontier for e in alphabet]
        yield from frontier


def reference_nontick_cycle(auto):
    """A cycle of non-tick moves as (state, event) steps, or None: an
    iterative DFS with roots in declaration order and each state's moves in
    canonical order.  ``path[k]`` is the move taken from the state at
    ``stack[k]``, and ``depth`` maps each state on the stack to its ``k``."""

    def nontick(q):
        return ((e, t) for e, t in auto.transitions[q].items() if e != TICK)

    done = set()
    for root in auto.states:
        if root in done:
            continue
        stack = [(root, nontick(root))]
        path = []
        depth = {root: 0}
        while stack:
            state, edges = stack[-1]
            for event, target in edges:
                if target in depth:
                    return path[depth[target]:] + [(state, event)]
                if target not in done:
                    depth[target] = len(stack)
                    path.append((state, event))
                    stack.append((target, nontick(target)))
                    break
            else:
                stack.pop()
                del path[-1:]
                del depth[state]
                done.add(state)
    return None


class TestBuild:
    def test_duplicate_transition_is_determinism_error(self):
        with pytest.raises(DeterminismError):
            ta("A", ["0"], [TICK, "a"], [("0", "a", "0"), ("0", "a", "0")], "0", [])

    def test_unknown_state_reference(self):
        with pytest.raises(UnknownNameError):
            ta("A", ["0"], [TICK], [("0", TICK, "missing")], "0", [])

    def test_events_ordered_tick_first(self):
        auto = ta(
            "A", ["0"], [TICK, "b", "a"],
            [("0", "b", "0"), ("0", "a", "0"), ("0", TICK, "0")],
            "0", [],
        )
        assert tuple(auto.transitions["0"]) == (TICK, "a", "b")


class TestParallelCompose:
    def test_identity_element(self):
        a = tick_cycle("A", "a1")
        prod = parallel_compose(a, unit())
        # isomorphic to a: same shape under the pairing bijection
        assert len(prod.states) == len(a.states)
        mapping = {f"({q},u)": q for q in a.states}
        assert prod.initial == "(0,u)"
        for pq in prod.states:
            q = mapping[pq]
            assert (pq in prod.marked) == (q in a.marked)
            assert {e: mapping[t] for e, t in prod.transitions[pq].items()} == dict(
                a.transitions[q]
            )

    def test_alphabet_overlap_rejected(self):
        a = tick_cycle("A", "x")
        b = tick_cycle("B", "x")
        with pytest.raises(CompositionError):
            parallel_compose(a, b)

    def test_colliding_pair_names_rejected(self):
        # the pairs ("0,1", "0") and ("0", "1,0") would both be named "(0,1,0)"
        a = ta("A", ["0", "0,1"], [TICK, "a"],
               [("0", TICK, "0"), ("0", "a", "0,1"), ("0,1", TICK, "0,1")], "0", ["0"])
        b = ta("B", ["0", "1,0"], [TICK, "b"],
               [("0", TICK, "0"), ("0", "b", "1,0"), ("1,0", TICK, "1,0")], "0", ["0"])
        message = "composing 'A' and 'B': state pairs ('0,1', '0') and ('0', '1,0') are both named '(0,1,0)'"
        with pytest.raises(CompositionError) as info:
            parallel_compose(a, b)
        assert str(info.value) == message

    def test_two_tick_cycles_against_enumeration_oracle(self):
        # oracle: s is in the composed language iff each component accepts the
        # projection of s onto its own alphabet
        a = tick_cycle("A", "a1")
        b = tick_cycle("B", "a2")
        prod = parallel_compose(a, b)

        def project(s, alphabet):
            return [e for e in s if e in alphabet]

        expected = set()
        reached_pairs = set()
        for s in [()] + list(bounded_strings((TICK, "a1", "a2"), 6)):
            qa = a.run(project(s, a.alphabet))
            qb = b.run(project(s, b.alphabet))
            if qa is not None and qb is not None:
                expected.add(s)
                reached_pairs.add((qa, qb))
        got = enumerate_language(prod, 6)
        assert got.events == (TICK, "a1", "a2")
        assert {got.decode(s) for s in got.strings} == expected
        assert len(prod.states) == len(reached_pairs) == 4

    def test_associative_up_to_language(self):
        a = tick_cycle("A", "a1")
        b = tick_cycle("B", "a2")
        c = tick_cycle("C", "a3")
        left = parallel_compose(parallel_compose(a, b), c)
        right = parallel_compose(a, parallel_compose(b, c))
        left_language, right_language = enumerate_language(left, 5), enumerate_language(right, 5)
        assert left_language.events == right_language.events
        assert left_language.strings == right_language.strings

    def test_budget(self, monkeypatch):
        a = tick_cycle("A", "a1")
        b = tick_cycle("B", "a2")
        assert len(parallel_compose(a, b).states) == 4
        monkeypatch.setattr(automata, "MAX_STATES", 3)
        with pytest.raises(ResourceLimitError, match="^plant composition exceeds 3 states$"):
            parallel_compose(a, b)

    def test_fixture_components_cover_refined_plant(self, line_model):
        # the refined plant only removes behavior from the free product
        r1 = next(a for a in line_model.automata if a.name == "R1")
        r2 = next(a for a in line_model.automata if a.name == "R2")
        prod = parallel_compose(r1, r2)
        line = enumerate_language(line_model.plant, 8)
        free = enumerate_language(prod, 8)
        assert line.events == free.events
        assert line.strings <= free.strings
        assert line.strings != free.strings


class TestAccessible:
    def test_removes_unreachable(self):
        auto = ta(
            "A", ["0", "1", "dead"], [TICK, "a"],
            [("0", TICK, "0"), ("0", "a", "1"), ("1", TICK, "0"), ("dead", TICK, "dead")],
            "0", ["dead"],
        )
        acc = accessible(auto)
        assert acc.states == ("0", "1")
        assert acc.marked == frozenset()

    def test_idempotent_and_identity_on_accessible(self):
        auto = tick_cycle("A", "a1")
        assert accessible(auto) == auto
        once = accessible(ta(
            "B", ["0", "x"], [TICK], [("0", TICK, "0"), ("x", TICK, "x")], "0", [],
        ))
        assert accessible(once) == once

    def test_random_automaton_against_dfs_oracle(self):
        rng = random.Random(7)
        states = [str(i) for i in range(8)]
        events = [TICK, "a", "b"]
        transitions = []
        for q in states:
            for e in events:
                if rng.random() < 0.3:
                    transitions.append((q, e, rng.choice(states)))
        auto = ta("R", states, events, transitions, "0", [])

        def dfs(q, seen):
            seen.add(q)
            for t in auto.transitions[q].values():
                if t not in seen:
                    dfs(t, seen)
            return seen

        expected = dfs("0", set())
        assert set(accessible(auto).states) == expected


class TestSubautomaton:
    def test_reflexive(self, line_model):
        plant = line_model.plant
        assert subautomaton_defect(plant, plant) is None
        assert plant.marked == plant.marked & set(plant.states)

    def test_missing_induced_transition_rejected(self):
        g = ta(
            "G", ["0", "1"], [TICK, "a"],
            [("0", TICK, "0"), ("0", "a", "1"), ("1", TICK, "1")],
            "0", ["0"],
        )
        h = TimedAutomaton(
            "H", g.states, g.alphabet,
            {"0": {TICK: "0"}, "1": {TICK: "1"}},  # drops 0 -a-> 1 while keeping both states
            "0", g.marked,
        )
        assert subautomaton_defect(h, g).startswith("transitions at state '0'")

    def test_fixture_spec_is_subautomaton(self, line_model):
        spec, plant = line_model.spec, line_model.plant
        assert subautomaton_defect(spec, plant) is None
        assert spec.marked == plant.marked & set(spec.states)

    def test_implies_language_inclusion(self):
        rng = random.Random(11)
        for _ in range(25):
            states = [str(i) for i in range(rng.randint(2, 6))]
            events = [TICK, "a", "b"]
            transitions = []
            for q in states:
                for e in events:
                    if rng.random() < 0.5:
                        transitions.append((q, e, rng.choice(states)))
            g = ta("G", states, events, transitions, "0", ["0"])
            removable = [q for q in states[1:]]
            if not removable:
                continue
            h = remove_states(g, rng.sample(removable, rng.randint(1, len(removable))))
            assert subautomaton_defect(h, g) is None
            assert h.marked == g.marked & set(h.states)
            h_language, g_language = enumerate_language(h, 5), enumerate_language(g, 5)
            assert h_language.events == g_language.events
            assert h_language.strings <= g_language.strings


class TestNonblocking:
    def test_all_marked(self):
        auto = tick_cycle("A", "a1")
        full = TimedAutomaton(
            auto.name, auto.states, auto.alphabet, auto.transitions,
            auto.initial, frozenset(auto.states),
        )
        assert is_nonblocking(full)

    def test_unmarked_sink_blocks(self):
        auto = ta(
            "A", ["0", "sink"], [TICK, "a"],
            [("0", TICK, "0"), ("0", "a", "sink"), ("sink", TICK, "sink")],
            "0", ["0"],
        )
        assert not is_nonblocking(auto)

    def test_fixture_blocking_before_pruning(self, line_model):
        assert not is_nonblocking(line_model.plant)
        assert is_nonblocking(line_model.spec)


class TestTimedAssumptions:
    def test_minimal_model_passes(self, minimal_model):
        v = validate_timed_assumptions(minimal_model.plant, minimal_model.network.enforceable)
        assert v.ok

    def test_nontick_self_loop_violates_condition_1(self):
        auto = ta("A", ["0"], [TICK, "a"], [("0", TICK, "0"), ("0", "a", "0")], "0", [])
        v = validate_timed_assumptions(auto, frozenset())
        assert not v.ok and v.condition == 1
        assert v.witness_cycle == (("0", "a"),)

    def test_nontick_long_cycle_detected(self):
        auto = ta(
            "A", ["0", "1"], [TICK, "a", "b"],
            [("0", "a", "1"), ("1", "b", "0"), ("0", TICK, "0"), ("1", TICK, "1")],
            "0", [],
        )
        v = validate_timed_assumptions(auto, frozenset())
        assert not v.ok and v.condition == 1
        assert len(v.witness_cycle) == 2

    def test_condition_1_iff_no_topological_order(self):
        """Condition 1 fails exactly when Kahn's algorithm cannot order the
        non-tick moves, and its witness is a cycle of non-tick moves."""
        rng = random.Random(13)
        events = [TICK, "a", "b", "c"]
        cyclic = 0
        for _ in range(400):
            states = [str(i) for i in range(rng.randint(1, 7))]
            transitions = [
                (q, e, rng.choice(states)) for q in states for e in events if rng.random() < 0.3
            ]
            auto = ta("R", states, events, transitions, rng.choice(states), [])
            successors = {
                q: [t for e, t in auto.transitions[q].items() if e != TICK] for q in states
            }
            indegree = {q: 0 for q in states}
            for targets in successors.values():
                for t in targets:
                    indegree[t] += 1
            ready = [q for q in states if indegree[q] == 0]
            ordered = 0
            while ready:
                ordered += 1
                for t in successors[ready.pop()]:
                    indegree[t] -= 1
                    if indegree[t] == 0:
                        ready.append(t)
            v = validate_timed_assumptions(auto, frozenset(events[1:]))
            assert (v.condition == 1) == (ordered < len(states))
            if v.condition == 1:
                cyclic += 1
                cycle = v.witness_cycle
                assert len({q for q, _ in cycle}) == len(cycle)
                for (q, e), (nxt, _) in zip(cycle, cycle[1:] + cycle[:1]):
                    assert e != TICK and auto.transitions[q][e] == nxt
        assert 100 <= cyclic <= 350, cyclic

    def test_witness_matches_the_reference_dfs(self):
        """The cycle search gives the witness of a hand-written iterative
        DFS (``reference_nontick_cycle``) on 10,000 seeded random plants."""
        rng = random.Random(35)
        events = [TICK, "a", "b", "c"]
        cyclic = 0
        for _ in range(10_000):
            states = [str(i) for i in range(rng.randint(1, 8))]
            transitions = [
                (q, e, rng.choice(states)) for q in states for e in events if rng.random() < 0.3
            ]
            auto = ta("R", states, events, transitions, states[0], [])
            expected = reference_nontick_cycle(auto)
            v = validate_timed_assumptions(auto, frozenset(events[1:]))
            assert (v.condition == 1) == (expected is not None)
            assert v.witness_cycle == tuple(expected or ())
            cyclic += expected is not None
        assert 3_000 <= cyclic <= 8_000, cyclic

    def test_dead_state_violates_condition_2(self):
        auto = TimedAutomaton(
            "A", ("0", "1"), frozenset([TICK, "a"]),
            {"0": {"a": "1"}, "1": {}}, "0", frozenset(),
        )
        v = validate_timed_assumptions(auto, frozenset(["a"]))
        assert not v.ok and v.condition == 2 and v.witness_state == "1"

    def test_unpreemptable_tickless_state_violates_condition_3(self):
        auto = ta(
            "A", ["0", "1"], [TICK, "a"],
            [("0", "a", "1"), ("1", TICK, "1")],
            "0", [],
        )
        v = validate_timed_assumptions(auto, frozenset())
        assert not v.ok and v.condition == 3 and v.witness_state == "0"
        # the same state is fine once the event is enforceable
        assert validate_timed_assumptions(auto, frozenset(["a"])).ok

    def test_every_repository_fixture_passes(self, models_dir):
        from netsup import load_model
        from netsup.automata import accessible

        for path in sorted(models_dir.glob("*.json")):
            model = load_model(path)
            for auto in (*model.automata, model.plant, model.spec):
                v = validate_timed_assumptions(accessible(auto), model.network.enforceable)
                assert v.ok, f"{path.name}/{auto.name}: {v.message}"
