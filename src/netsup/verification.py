"""Decide the three supervisor-existence conditions on the channel-augmented
automaton, with replayable shortest counterexamples.

All checks quantify over runs of the specification restriction, i.e. over
states reachable through in_spec states only (``spec_reachable``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple, Optional

from .automata import TICK
from .comm import CommAutomaton, CommEvent, Plant
from .errors import ModelError
from .explore import PathSpace


class Condition(Enum):
    NET_CTRL_1 = "NetCtrl1"
    NET_CTRL_2 = "NetCtrl2"
    NET_JOINT_OBS = "NetJointObs"
    LM_CLOSURE = "LmClosure"
    ADM_UNCONTROLLABLE = "AdmUncontrollable"
    ADM_TICK = "AdmTick"


@dataclass(frozen=True)
class Witness:
    """Counterexample data.  ``mu`` leads to the violating state; ``sigma``
    is the offending plant-level event where one applies; ``nu`` is set for
    observability violations only, ``supervisor`` for observability and
    admissibility violations."""

    mu: tuple[CommEvent, ...]
    sigma: Optional[str] = None
    nu: Optional[tuple[CommEvent, ...]] = None
    supervisor: Optional[int] = None


@dataclass(frozen=True)
class Verdict:
    condition: Condition
    holds: bool
    witness: Optional[Witness] = None
    detail: str = ""


def tick_preemptable(comm: CommAutomaton, sid: int) -> bool:
    """Some enforceable event is active at ``sid`` and stays in the
    specification, so the supervisors can preempt tick there."""
    return any(
        isinstance(event, Plant) and event.event in comm.net.enforceable and comm.in_spec[dst]
        for event, dst in comm.transitions[sid].items()
    )


def check_network_controllability(comm: CommAutomaton) -> Verdict:
    """Two statewise conditions over the specification restriction:

    1. no uncontrollable event leads from a specification state out of the
       specification;
    2. wherever tick is possible in the full automaton but leaves the
       specification, some enforceable event must be active inside the
       specification (so the supervisors can preempt the tick).

    Returns the first violation with a shortest in-spec string witness.
    """
    net = comm.net
    uncontrollable = sorted(net.uncontrollable, key=lambda e: (e != TICK, e))
    for sid in range(comm.num_states):
        if not comm.spec_reachable[sid]:
            continue
        for event in uncontrollable:
            dst = comm.target(sid, Plant(event))
            if dst is not None and not comm.in_spec[dst]:
                return Verdict(
                    Condition.NET_CTRL_1,
                    False,
                    Witness(mu=comm.spec_path(sid), sigma=event),
                    detail=f"uncontrollable {event!r} exits the specification at {comm.render_state(sid)}",
                )
    for sid in range(comm.num_states):
        if not comm.spec_reachable[sid]:
            continue
        dst = comm.target(sid, Plant(TICK))
        if dst is None or comm.in_spec[dst]:
            continue
        if not tick_preemptable(comm, sid):
            return Verdict(
                Condition.NET_CTRL_2,
                False,
                Witness(mu=comm.spec_path(sid), sigma=TICK),
                detail=f"tick exits the specification at {comm.render_state(sid)}"
                " and no enforceable event can preempt it",
            )
    return Verdict(Condition.NET_CTRL_1, True)


class TwinState(NamedTuple):
    """A pair of states reached by two in-spec runs with identical
    observations for one supervisor."""

    x: int
    y: int


@dataclass
class TwinProduct:
    """Reachable observation-synchronized state pairs for one supervisor,
    restricted to pairs whose two runs both stayed in the specification.

    Unobserved moves interleave (left copy first, then right); observed
    symbols advance both copies together.  Every pair is made of
    specification states, so the product has at most |spec states|² states.
    ``space`` numbers the pairs ``(x, y)`` under the keys ``x * width + y``;
    its links lead to the pair each pair was discovered from, labelled with
    the events (left, right) the copies took (None for a copy that stayed
    put), and reconstruct the two generating runs.
    """

    supervisor: int
    width: int
    space: PathSpace

    @cached_property
    def states(self) -> list[TwinState]:
        return [TwinState(*divmod(key, self.width)) for key in self.space.keys]

    def strings_to(self, tid: int) -> tuple[tuple[CommEvent, ...], tuple[CommEvent, ...]]:
        steps = self.space.path(tid)
        return (
            tuple(left for left, _ in steps if left is not None),
            tuple(right for _, right in steps if right is not None),
        )


def build_twin_product(
    comm: CommAutomaton, supervisor: int, *, max_states: int = 500_000
) -> TwinProduct:
    """Breadth-first twin product of ``comm`` with itself for one supervisor,
    over specification states only.

    Raises ResourceLimitError when it would exceed ``max_states`` pairs.
    """
    table = comm.observation_table(supervisor)
    silent, observed = table.silent, table.observed
    in_spec = comm.in_spec
    n = comm.num_states
    space = PathSpace(f"twin product for supervisor {supervisor + 1}", max_states)
    index, add = space.index, space.add
    add(comm.initial * n + comm.initial)  # the initial state is a specification state
    for tid, key in enumerate(space.keys):  # space.keys grows: breadth-first
        x, y = divmod(key, n)
        for event, dst in silent[x]:
            if in_spec[dst]:
                pair = dst * n + y
                if pair not in index:
                    add(pair, tid, (event, None))
        for event, dst in silent[y]:
            if in_spec[dst]:
                pair = x * n + dst
                if pair not in index:
                    add(pair, tid, (None, event))
        observed_y = observed[y]
        for symbol, moves_x in observed[x].items():
            moves_y = observed_y.get(symbol)
            if moves_y is None:
                continue
            for ev_x, dst_x in moves_x:
                if in_spec[dst_x]:
                    for ev_y, dst_y in moves_y:
                        if in_spec[dst_y]:
                            pair = dst_x * n + dst_y
                            if pair not in index:
                                add(pair, tid, (ev_x, ev_y))
    return TwinProduct(supervisor, n, space)


def check_network_joint_observability(
    comm: CommAutomaton, *, max_states: int = 500_000
) -> Verdict:
    """Every controllable event that must be disabled after some in-spec run
    must be observationally distinguishable, by each supervisor controlling
    it, from every in-spec run after which that event must stay enabled.

    A violation is a pair of the supervisor's twin product (which holds only
    pairs whose two runs both stayed in the specification) where the event
    exits the specification on the left and stays inside on the right.
    Events that exit nowhere, or stay inside nowhere, are skipped, and a
    twin product is built only for a supervisor some remaining event needs;
    ``max_states`` bounds each twin product.  Verdicts aggregate
    deterministically in (event, supervisor) order; per pair the witness is
    BFS-shortest.
    """
    net = comm.net
    controllable = sorted(net.globally_controllable, key=lambda e: (e != TICK, e))
    reachable = [sid for sid in range(comm.num_states) if comm.spec_reachable[sid]]
    twins: dict[int, TwinProduct] = {}
    for event in controllable:
        move = Plant(event)
        exits: set[int] = set()
        stays: set[int] = set()
        for sid in reachable:
            dst = comm.transitions[sid].get(move)
            if dst is not None:
                (stays if comm.in_spec[dst] else exits).add(sid)
        if not (exits and stays):
            continue
        for supervisor in net.controllers(event):
            if supervisor not in twins:
                twins[supervisor] = build_twin_product(comm, supervisor, max_states=max_states)
            twin = twins[supervisor]
            for tid, key in enumerate(twin.space.keys):
                x, y = divmod(key, twin.width)
                if x in exits and y in stays:
                    mu, nu = twin.strings_to(tid)
                    return Verdict(
                        Condition.NET_JOINT_OBS,
                        False,
                        Witness(mu=mu, sigma=event, nu=nu, supervisor=supervisor),
                        detail=(
                            f"supervisor {supervisor + 1} cannot distinguish a run where"
                            f" {event!r} must be disabled from one where it must stay enabled"
                        ),
                    )
    return Verdict(Condition.NET_JOINT_OBS, True)


def check_lm_closure(comm: CommAutomaton) -> Verdict:
    """The specification's marked language must equal its language intersected
    with the full marked language.  With inherited marking this holds by
    construction; an explicit marking override can break it."""
    for sid in range(comm.num_states):
        if not comm.spec_reachable[sid]:
            continue
        if comm.marked[sid] and not comm.spec_marked[sid]:
            return Verdict(
                Condition.LM_CLOSURE,
                False,
                Witness(mu=comm.spec_path(sid)),
                detail=f"state {comm.render_state(sid)} is marked in the full automaton"
                " but not in the specification",
            )
        # the file format forbids marking beyond the inherited set
        if comm.spec_marked[sid] and not comm.marked[sid]:
            raise ModelError(
                f"state {comm.render_state(sid)} is marked in the specification"
                " but not in the plant"
            )
    return Verdict(Condition.LM_CLOSURE, True)
