"""Closed-loop simulation: determinism, safety, deadlock classification."""

import pytest

from netsup.automata import TICK, TimedAutomaton
from netsup.comm import Deliver, Plant, build_comm_automaton
from netsup.network import NetworkConfig
from netsup.simulation import Termination, render_trace, simulate
from netsup.synthesis import SupervisorMap, synthesize_supervisor


class TestDeterminism:
    def test_equal_seeds_equal_traces(self, line_report):
        a = simulate(line_report.comm, line_report.supervisors, 42, 200, loop=line_report.loop)
        b = simulate(line_report.comm, line_report.supervisors, 42, 200, loop=line_report.loop)
        assert a == b

    def test_different_seeds_differ(self, line_report):
        a = simulate(line_report.comm, line_report.supervisors, 1, 200, loop=line_report.loop)
        b = simulate(line_report.comm, line_report.supervisors, 2, 200, loop=line_report.loop)
        assert a.steps != b.steps


class TestSafety:
    def test_runs_stay_in_specification(self, line_report):
        comm = line_report.comm
        for seed in range(50):
            trace = simulate(comm, line_report.supervisors, seed, 500, loop=line_report.loop)
            assert trace.terminated is Termination.STEP_LIMIT
            for step in trace.steps:
                assert comm.in_spec[step.comm_state]
                for key, queue in zip(comm.net.channel_keys, comm.channels_of(step.comm_state)):
                    assert all(e.age <= comm.net.channels[key].delay_bound for e in queue)

    def test_replay_reproduces_states(self, line_report):
        comm = line_report.comm
        trace = simulate(comm, line_report.supervisors, 7, 300, loop=line_report.loop)
        sid = comm.initial
        for step in trace.steps:
            sid = comm.target(sid, step.event)
            assert sid == step.comm_state

    def test_marked_state_visited_regularly(self, line_report):
        comm = line_report.comm
        for seed in range(20):
            trace = simulate(comm, line_report.supervisors, seed, 200, loop=line_report.loop)
            assert any(comm.marked[s.comm_state] for s in trace.steps)


class TestDeadlocks:
    def test_everything_disabled_classifies_deadlock(self):
        # single supervisor, all controllable, gagged supervisor: at the
        # initial (marked) state nothing is enabled
        plant = TimedAutomaton.build(
            "P", ["0"], [TICK], [("0", TICK, "0")], "0", ["0"]
        )
        net = NetworkConfig.build(1, [[TICK]], [[TICK]], [[TICK]], [], [[0]], {})
        comm = build_comm_automaton(plant, plant, net)
        sup = synthesize_supervisor(comm, 0)
        gagged = SupervisorMap(0, sup.observer, tuple(frozenset() for _ in sup.enable))
        trace = simulate(comm, [gagged], 0, 10)
        assert trace.terminated is Termination.DEADLOCK_MARKED
        assert trace.steps == ()


class TestObservations:
    def test_deliveries_show_in_observation_column(self, line_report):
        comm = line_report.comm
        found = False
        for seed in range(30):
            trace = simulate(comm, line_report.supervisors, seed, 300, loop=line_report.loop)
            for step in trace.steps:
                if isinstance(step.event, Deliver):
                    # the receiving supervisor observes the carried event
                    assert step.observations[step.event.receiver] == step.event.event
                    others = [o for k, o in enumerate(step.observations)
                              if k != step.event.receiver]
                    assert all(o is None for o in others)
                    found = True
                if step.event == Plant(TICK):
                    assert all(o == TICK for o in step.observations)
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

    def test_push_shows_in_channel_column(self, line_report):
        comm = line_report.comm
        trace = simulate(comm, line_report.supervisors, 3, 50, loop=line_report.loop)
        text = render_trace(trace, comm)
        for idx, step in enumerate(trace.steps):
            if step.event == Plant("a1"):
                line = text.splitlines()[1 + idx]
                assert "(a1,0)" in line
                break
        else:
            pytest.skip("no a1 step in this trace")

    def test_tick_clock_counts_ticks(self, line_report):
        comm = line_report.comm
        trace = simulate(comm, line_report.supervisors, 11, 40, loop=line_report.loop)
        text = render_trace(trace, comm).splitlines()
        ticks = 0
        for idx, step in enumerate(trace.steps):
            if step.event == Plant(TICK):
                ticks += 1
            assert text[1 + idx].split()[2] == str(ticks)
