"""Decide the three supervisor-existence conditions on the channel-augmented
automaton, with replayable shortest counterexamples.

All checks quantify over runs of the specification restriction, i.e. over
states reachable through in_spec states only (the keys of ``spec_tree``).
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass
from enum import Enum
from functools import cached_property
from typing import Optional

from .automata import TICK, event_order
from .comm import CommAutomaton, CommEvent, InSpecRows
from .explore import MAX_STATES, PathSpace


class Condition(Enum):
    NET_CTRL_1 = "NetCtrl1"
    NET_CTRL_2 = "NetCtrl2"
    NET_JOINT_OBS = "NetJointObs"
    LM_CLOSURE = "LmClosure"
    ADM_UNCONTROLLABLE = "AdmUncontrollable"
    ADM_TICK = "AdmTick"
    NONBLOCKING = "Nonblocking"


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
    """A condition's outcome: it fails exactly when it carries a witness."""

    condition: Condition
    _: KW_ONLY
    witness: Optional[Witness] = None
    detail: str = ""

    @property
    def holds(self) -> bool:
        return self.witness is None


def check_network_controllability(comm: CommAutomaton) -> Verdict:
    """Two statewise conditions over the specification restriction, read
    off the exit table:

    1. no uncontrollable event leads from a specification state out of the
       specification;
    2. wherever tick is possible in the full automaton but leaves the
       specification, some enforceable event must be active inside the
       specification (so the supervisors can preempt the tick).

    Returns the first violation, at the lowest state id and the least event,
    with a shortest in-spec string witness.
    """
    uncontrollable = comm.net.uncontrollable
    reachable = sorted(comm.spec_tree.keys)
    for sid in reachable:
        escaping = comm.exits[sid] & uncontrollable
        if escaping:
            event = min(escaping, key=event_order)
            return Verdict(
                Condition.NET_CTRL_1,
                witness=Witness(mu=comm.spec_path(sid), sigma=event),
                detail=f"uncontrollable {event!r} exits the specification at {comm.render_state(sid)}",
            )
    for sid in reachable:
        if TICK in comm.exits[sid] and comm.tick_critical[sid]:
            return Verdict(
                Condition.NET_CTRL_2,
                witness=Witness(mu=comm.spec_path(sid), sigma=TICK),
                detail=f"tick exits the specification at {comm.render_state(sid)}"
                " and no enforceable event can preempt it",
            )
    return Verdict(Condition.NET_CTRL_1)


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

    width: int
    space: PathSpace

    @cached_property
    def states(self) -> list[tuple[int, int]]:
        return [divmod(key, self.width) for key in self.space.keys]

    def strings_to(self, tid: int) -> tuple[tuple[CommEvent, ...], tuple[CommEvent, ...]]:
        steps = self.space.path(tid)
        return (
            tuple(left for left, _ in steps if left is not None),
            tuple(right for _, right in steps if right is not None),
        )


def build_twin_product(
    comm: CommAutomaton,
    supervisor: int,
    *,
    max_states: int = MAX_STATES,
    until: Optional[str] = None,
) -> TwinProduct:
    """Breadth-first twin product of ``comm`` with itself for one supervisor,
    over specification states only: it reads the supervisor's
    ``InSpecRows``, which hold only the moves into in_spec states, silent
    moves first and then observed symbols in alphabet order, one move per
    symbol, so a symbol both copies observe makes one pair.

    With ``until`` a plant event name, the walk stops as soon as it
    discovers a pair (x, y) where ``until`` leaves the specification from x
    (``comm.exits``) and stays inside it from y (``comm.stays``), which is
    then the product's last pair; ids follow discovery order, so it is the
    lowest-id such pair of the full product, with the same runs to it.
    Raises ResourceLimitError when it would exceed ``max_states`` pairs.
    """
    exits, stays = comm.exits, comm.stays
    rows = InSpecRows(comm, supervisor)
    n = comm.num_states
    space = PathSpace(f"twin product for supervisor {supervisor + 1}", max_states)
    index, add = space.index, space.add
    add(comm.initial * n + comm.initial)  # the initial state is a specification state
    for tid, key in enumerate(space.keys):  # space.keys grows: breadth-first
        x, y = divmod(key, n)
        (silent_x, observed_x), (silent_y, observed_y) = rows[x], rows[y]
        for event, dst in silent_x:
            pair = dst * n + y
            if pair not in index:
                add(pair, tid, (event, None))
                if until in exits[dst] and until in stays[y]:
                    return TwinProduct(n, space)
        for event, dst in silent_y:
            pair = x * n + dst
            if pair not in index:
                add(pair, tid, (None, event))
                if until in exits[x] and until in stays[dst]:
                    return TwinProduct(n, space)
        for symbol, (ev_x, dst_x) in observed_x.items():
            if symbol not in observed_y:
                continue
            ev_y, dst_y = observed_y[symbol]
            pair = dst_x * n + dst_y
            if pair not in index:
                add(pair, tid, (ev_x, ev_y))
                if until in exits[dst_x] and until in stays[dst_y]:
                    return TwinProduct(n, space)
    return TwinProduct(n, space)


def check_network_joint_observability(
    comm: CommAutomaton, *, max_states: int = MAX_STATES
) -> Verdict:
    """Every controllable event that must be disabled after some in-spec run
    must be observationally distinguishable, by each supervisor controlling
    it, from every in-spec run after which that event must stay enabled.

    For an event, the exit table splits the specification states into
    ``exits`` and ``stays``.  A violation is a pair of the supervisor's twin
    product (which holds only pairs whose two runs both stayed in the
    specification) with the left state in ``exits`` and the right one in
    ``stays``.  Such a pair is reachable exactly when one state of the
    supervisor's observer holds a flagged element in ``exits`` and another
    in ``stays``: when the event is in both that state's ``exits`` and
    ``stays`` summaries, which the check reads off the observers ``comm``
    caches, as synthesis does.  Only for a confused (event, supervisor) is a
    twin product built, and only up to its first violating pair (its
    ``until`` is the event), which gives the BFS-shortest witness.  Events
    that exit nowhere, or stay inside nowhere, are skipped; ``max_states``
    bounds each observer and twin product (ResourceLimitError).  Verdicts
    aggregate deterministically in (event, supervisor) order.
    """
    net, reachable, exits, stays = comm.net, comm.spec_tree.keys, comm.exits, comm.stays
    for event in sorted(net.globally_controllable, key=event_order):
        if not (any(event in exits[sid] for sid in reachable) and any(event in stays[sid] for sid in reachable)):
            continue
        for supervisor in net.controllers(event):
            observer = comm.observer(supervisor, max_states)
            if not any(event in out and event in inside for out, inside in zip(observer.exits, observer.stays)):
                continue
            twin = build_twin_product(comm, supervisor, max_states=max_states, until=event)
            mu, nu = twin.strings_to(len(twin.space.keys) - 1)
            return Verdict(
                Condition.NET_JOINT_OBS,
                witness=Witness(mu=mu, sigma=event, nu=nu, supervisor=supervisor),
                detail=(
                    f"supervisor {supervisor + 1} cannot distinguish a run where"
                    f" {event!r} must be disabled from one where it must stay enabled"
                ),
            )
    return Verdict(Condition.NET_JOINT_OBS)


def check_lm_closure(comm: CommAutomaton) -> Verdict:
    """The specification's marked language must equal its language intersected
    with the full marked language.  With inherited marking this holds by
    construction; an explicit marking override can break it.  A marking
    beyond the plant's never gets here: ``automata.prepare`` rejects it
    (``subautomaton_defect``)."""
    for sid in sorted(comm.spec_tree.keys):
        if comm.marked[sid] and not comm.spec_marked[sid]:
            return Verdict(
                Condition.LM_CLOSURE,
                witness=Witness(mu=comm.spec_path(sid)),
                detail=f"state {comm.render_state(sid)} is marked in the full automaton"
                " but not in the specification",
            )
    return Verdict(Condition.LM_CLOSURE)


def existence_checks(comm: CommAutomaton, *, max_states: int = MAX_STATES) -> tuple[Verdict, ...]:
    """The three existence verdicts, in the order every command reports
    them; ``max_states`` bounds each observer and twin product."""
    return (
        check_network_controllability(comm),
        check_network_joint_observability(comm, max_states=max_states),
        check_lm_closure(comm),
    )
