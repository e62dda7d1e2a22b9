"""Supervisor synthesis for timed discrete-event systems whose distributed
supervisors communicate over FIFO channels with bounded delays and
nondeterministic losses."""

from .automata import (
    TICK,
    AssumptionVerdict,
    TimedAutomaton,
    accessible,
    coreachable,
    is_nonblocking,
    parallel_compose,
    remove_states,
    validate_timed_assumptions,
)
from .channels import ChannelState
from .comm import (
    CommAutomaton,
    Deliver,
    Lose,
    Observer,
    Plant,
    build_comm_automaton,
    build_problem_automaton,
    build_observer,
    project_observation,
)
from .network import ChannelLink, NetworkConfig
from .modelio import Model, load_model, parse_model
from .oracle import BoundedLanguage, brute_check, brute_closed_loop, enumerate_language
from .simulation import Termination, Trace, render_trace, simulate
from .synthesis import (
    ClosedLoop,
    SupervisorMap,
    check_admissibility,
    closed_loop,
    decide,
    language_equal,
    solve_control_problem,
    spec_nonblocking,
    synthesize_supervisor,
)
from .verification import (
    Condition,
    Verdict,
    Witness,
    check_lm_closure,
    check_network_controllability,
    check_network_joint_observability,
    existence_checks,
)

__version__ = "0.1.0"
