"""Shared fixtures: the production-line model and its solved pipeline."""

import dataclasses
from pathlib import Path
from typing import Iterable, Optional

import pytest

from netsup import build_comm_automaton, load_model, solve_control_problem
from netsup.comm import Plant, build_event_table
from netsup.explore import MAX_STATES, PathSpace, closure
from netsup.synthesis import SupervisorMap, closed_loop

MODELS = Path(__file__).resolve().parent.parent / "models"


def observer_elements(observer) -> list[frozenset[tuple[int, bool]]]:
    """Per observer state, its element codes decoded into (state id,
    stayed-in-spec) pairs."""
    return [frozenset((code >> 1, bool(code & 1)) for code in codes) for codes in observer.codes]


def alternating(comm, sups):
    """Each supervisor disables all it controls at its odd observer states."""
    return [
        SupervisorMap(i, s.observer, tuple(
            e - comm.net.controllable[i] if t % 2 else e for t, e in enumerate(s.enable)
        ))
        for i, s in enumerate(sups)
    ]


def gagged(comm, sups):
    """Every supervisor's enable-sets without any event it controls."""
    return [
        SupervisorMap(i, s.observer, tuple(e - comm.net.controllable[i] for e in s.enable))
        for i, s in enumerate(sups)
    ]


def project_plant(string: Iterable) -> tuple[str, ...]:
    """Keep plant events in order, drop deliveries and losses."""
    return tuple(e.event for e in string if isinstance(e, Plant))


@dataclasses.dataclass(frozen=True)
class ProjectionVerdict:
    equal: bool
    distinguishing: Optional[tuple[str, ...]] = None
    only_in: Optional[str] = None  # "projection" or "plant"


def check_projection_equivalence(plant, comm) -> ProjectionVerdict:
    """Check that projecting away deliveries and losses recovers exactly the
    plant's language.

    Determinizes the channel-augmented automaton with deliveries/losses as
    silent moves and walks it against the plant; a mismatch yields a shortest
    distinguishing plant string.
    """
    rows = [comm.moves(sid) for sid in range(comm.num_states)]
    silent = [tuple(dst for e, dst in row if not isinstance(e, Plant)) for row in rows]
    alphabet = sorted(plant.alphabet)
    space = PathSpace("projection check", MAX_STATES)
    space.add((closure([comm.initial], silent), plant.initial))
    for k, (subset, q) in enumerate(space.keys):  # space.keys grows: breadth-first
        for event in alphabet:
            move = {dst for sid in subset for e, dst in rows[sid] if e == Plant(event)}
            plant_next = plant.target(q, event)
            if move and plant_next is None:
                return ProjectionVerdict(False, tuple(space.path(k)) + (event,), only_in="projection")
            if not move and plant_next is not None:
                return ProjectionVerdict(False, tuple(space.path(k)) + (event,), only_in="plant")
            if move:
                nxt = (closure(move, silent), plant_next)
                if nxt not in space.index:
                    space.add(nxt, k, event)
    return ProjectionVerdict(True)


@pytest.fixture(scope="session")
def models_dir() -> Path:
    return MODELS


@pytest.fixture(scope="session")
def line_model():
    return load_model(MODELS / "production_line.json")


@pytest.fixture(scope="session")
def line_comm(line_model):
    return build_comm_automaton(line_model.plant, line_model.spec, line_model.network)


@pytest.fixture(scope="session")
def without_move():
    """``without_move(comm, sid, event)``: a copy of ``comm`` whose event
    table lacks the move on ``event`` from state ``sid``."""

    def drop(comm, sid, event):
        rows = [comm.moves(s) for s in range(comm.num_states)]
        rows[sid] = [move for move in rows[sid] if move[0] != event]
        return dataclasses.replace(comm, table=build_event_table(rows))

    return drop


@pytest.fixture(scope="session")
def line_report(line_model):
    return solve_control_problem(line_model.plant, line_model.spec, line_model.network)


@pytest.fixture(scope="session")
def line_loop(line_report):
    """The closed loop under ``line_report``'s supervisors."""
    return closed_loop(line_report.comm, line_report.supervisors)


@pytest.fixture(scope="session")
def no_feedback_model():
    return load_model(MODELS / "production_line_no_ch21.json")


@pytest.fixture(scope="session")
def no_feedback_comm(no_feedback_model):
    m = no_feedback_model
    return build_comm_automaton(m.plant, m.spec, m.network)


@pytest.fixture(scope="session")
def minimal_model():
    return load_model(MODELS / "minimal.json")
