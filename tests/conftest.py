"""Shared fixtures: the production-line model and its solved pipeline."""

import dataclasses
from pathlib import Path

import pytest

from netsup import build_comm_automaton, load_model, solve_control_problem
from netsup.comm import build_event_table
from netsup.synthesis import SupervisorMap

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
def no_feedback_model():
    return load_model(MODELS / "production_line_no_ch21.json")


@pytest.fixture(scope="session")
def no_feedback_comm(no_feedback_model):
    m = no_feedback_model
    return build_comm_automaton(m.plant, m.spec, m.network)


@pytest.fixture(scope="session")
def minimal_model():
    return load_model(MODELS / "minimal.json")
