"""Closed-loop simulation: determinism, safety, deadlock classification."""

from netsup.automata import TICK, TimedAutomaton
from netsup.comm import Deliver, Plant, build_comm_automaton
from netsup.network import NetworkConfig
from netsup.simulation import Termination, render_trace, simulate
from netsup.synthesis import SupervisorMap, closed_loop, synthesize_supervisor


class TestDeterminism:
    def test_equal_seeds_equal_traces(self, line_loop):
        a = simulate(line_loop, 42, 200)
        b = simulate(line_loop, 42, 200)
        assert a == b

    def test_different_seeds_differ(self, line_loop):
        a = simulate(line_loop, 1, 200)
        b = simulate(line_loop, 2, 200)
        assert a.steps != b.steps


class TestSafety:
    def test_runs_stay_in_specification(self, line_report, line_loop):
        comm = line_report.comm
        for seed in range(50):
            trace = simulate(line_loop, seed, 500)
            assert trace.terminated is Termination.STEP_LIMIT
            for step in trace.steps:
                assert comm.in_spec[step.comm_state]
                for key, queue in zip(comm.net.channel_keys, comm.channels_of(step.comm_state)):
                    assert all(age <= comm.net.channels[key].delay_bound for _event, age in queue)

    def test_replay_reproduces_states(self, line_report, line_loop):
        comm = line_report.comm
        trace = simulate(line_loop, 7, 300)
        sid = comm.initial
        for step in trace.steps:
            sid = comm.target(sid, step.event)
            assert sid == step.comm_state

    def test_marked_state_visited_regularly(self, line_report, line_loop):
        comm = line_report.comm
        for seed in range(20):
            trace = simulate(line_loop, seed, 200)
            assert any(comm.marked[s.comm_state] for s in trace.steps)


class TestDeadlocks:
    def test_everything_disabled_classifies_deadlock(self):
        # single supervisor, all controllable, gagged supervisor: at the
        # initial state, marked or not, nothing is enabled
        net = NetworkConfig.build(1, [[TICK]], [[TICK]], [[TICK]], [], {})
        for marked, reason in ((["0"], Termination.DEADLOCK_MARKED), ([], Termination.DEADLOCK_UNMARKED)):
            plant = TimedAutomaton.build(
                "P", ["0"], [TICK], [("0", TICK, "0")], "0", marked
            )
            comm = build_comm_automaton(plant, plant, net)
            sup = synthesize_supervisor(comm, 0)
            gagged = SupervisorMap(0, sup.observer, tuple(frozenset() for _ in sup.enable))
            trace = simulate(closed_loop(comm, [gagged]), 0, 10)
            assert trace.terminated is reason
            assert trace.steps == ()


class TestObservations:
    def test_deliveries_show_in_observation_column(self, line_report, line_loop):
        comm = line_report.comm
        n = comm.net.n
        found = False
        for seed in range(30):
            trace = simulate(line_loop, seed, 300)
            rows = render_trace(trace, comm).splitlines()[1:-1]
            assert len(rows) == len(trace.steps)
            for step, row in zip(trace.steps, rows):
                observations = row.split()[-n:]  # the obs1 ... obsn columns
                if isinstance(step.event, Deliver):
                    # the receiving supervisor observes the carried event
                    assert observations[step.event.receiver] == step.event.event
                    others = [o for k, o in enumerate(observations)
                              if k != step.event.receiver]
                    assert all(o == "-" for o in others)
                    found = True
                if step.event == Plant(TICK):
                    assert all(o == TICK for o in observations)
        assert found


class TestRendering:
    def test_empty_trace_renders_header_only(self, line_report):
        from netsup.simulation import Trace

        empty = Trace(0, (), Termination.STEP_LIMIT)
        text = render_trace(empty, line_report.comm)
        lines = text.splitlines()
        assert lines[0].startswith("step")
        assert "terminated" in lines[-1]
        assert len(lines) == 2

    def test_push_shows_in_channel_column(self, line_report, line_loop):
        comm = line_report.comm
        trace = simulate(line_loop, 3, 50)
        text = render_trace(trace, comm)
        pushes = [idx for idx, step in enumerate(trace.steps) if step.event == Plant("a1")]
        assert pushes, "the trace has no a1 step"
        assert "(a1,0)" in text.splitlines()[1 + pushes[0]]

    def test_tick_clock_counts_ticks(self, line_report, line_loop):
        comm = line_report.comm
        trace = simulate(line_loop, 11, 40)
        text = render_trace(trace, comm).splitlines()
        ticks = 0
        for idx, step in enumerate(trace.steps):
            if step.event == Plant(TICK):
                ticks += 1
            assert text[1 + idx].split()[2] == str(ticks)
