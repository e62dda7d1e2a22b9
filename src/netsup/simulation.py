"""Randomized execution of the controlled system.

Each step picks uniformly among the events the supervisor set currently
permits; delays and losses are nondeterministic in the model, so uniform
sampling is the simplest faithful exploration.  Runs are deterministic given
the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .comm import CommAutomaton, CommEvent, Plant, observation_of, render_event
from .automata import TICK
from .channels import render_state
from .synthesis import ClosedLoop


class Termination(Enum):
    STEP_LIMIT = "step-limit"
    DEADLOCK_MARKED = "deadlock-marked"
    DEADLOCK_UNMARKED = "deadlock-unmarked"


@dataclass(frozen=True)
class TraceStep:
    event: CommEvent
    comm_state: int
    observations: tuple[Optional[str], ...]  # one slot per supervisor


@dataclass(frozen=True)
class Trace:
    seed: int
    steps: tuple[TraceStep, ...]
    terminated: Termination


def simulate(loop: ClosedLoop, seed: int, max_steps: int) -> Trace:
    """Random run of ``loop`` of at most ``max_steps`` events."""
    net = loop.comm.net
    rng = random.Random(seed)
    state = loop.initial
    steps: list[TraceStep] = []
    for _ in range(max_steps):
        enabled = loop.moves(state)
        if not enabled:
            reason = (
                Termination.DEADLOCK_MARKED
                if loop.is_marked(state)
                else Termination.DEADLOCK_UNMARKED
            )
            return Trace(seed, tuple(steps), reason)
        event, state = rng.choice(enabled)
        observations = tuple(
            observation_of(event, i, net) for i in range(net.n)
        )
        steps.append(TraceStep(event, loop.comm_state(state), observations))
    return Trace(seed, tuple(steps), Termination.STEP_LIMIT)


def render_trace(trace: Trace, comm: CommAutomaton) -> str:
    """One line per step: index, event, tick count so far, channel queues,
    and what each supervisor observed."""
    net = comm.net
    header = "step  event        ticks  channels"
    for i in range(net.n):
        header += f"  obs{i + 1}"
    lines = [header]
    ticks = 0
    for idx, step in enumerate(trace.steps):
        if isinstance(step.event, Plant) and step.event.event == TICK:
            ticks += 1
        cells = [
            f"{idx:<5d}",
            f"{render_event(step.event):<12s}",
            f"{ticks:<6d}",
            render_state(comm.channels_of(step.comm_state)) or "-",
        ]
        for obs in step.observations:
            cells.append(obs if obs is not None else "-")
        lines.append(" ".join(cells))
    lines.append(f"terminated: {trace.terminated.value} after {len(trace.steps)} steps")
    return "\n".join(lines)
