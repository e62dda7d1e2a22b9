"""Command-line interface.

Exit codes: 0 when the command's primary verdict holds (model valid, checks
pass, problem solvable, oracle agreement clean), 1 when the verdict is
negative, 2 on file or schema errors, exceeded state budgets and running
out of memory -- so CI scripts can tell model defects from negative
verdicts.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import dot as dotmod
from .automata import accessible, validate_timed_assumptions
from .comm import build_problem_automaton, render_event
from .errors import ModelError, ResourceLimitError
from .explore import MAX_STATES
from .modelio import (
    automaton_to_dict,
    dump_json,
    load_model,
    model_to_dict,
)
from .oracle import agreement_for_seed
from .randgen import random_instance
from .simulation import render_trace, simulate
from .synthesis import SolveReport, decide, solve_control_problem, synthesize_supervisor
from .verification import Verdict

SPEC_VERSION = 1
# the verdicts of ``synthesis.decide``, in the order every command reports
# them; the last is listed only when it fails
_CHECK_NAMES = ("network controllability", "network joint observability", "marked-language closure", "nonblocking")


def _write(text: str, output: Optional[str]) -> None:
    if output is None or output == "-":
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


def _witness_dict(verdict: Verdict) -> Optional[dict]:
    w = verdict.witness
    if w is None:
        return None
    out: dict = {"mu": [render_event(e) for e in w.mu]}
    if w.nu is not None:
        out["nu"] = [render_event(e) for e in w.nu]
    if w.sigma is not None:
        out["sigma"] = w.sigma
    if w.supervisor is not None:
        out["supervisor"] = w.supervisor + 1
    return out


def _verdict_dict(verdict: Verdict) -> dict:
    return {
        "condition": verdict.condition.value,
        "holds": verdict.holds,
        "witness": _witness_dict(verdict),
    }


def _checks_text(checks: Sequence[Verdict]) -> list[str]:
    """The text lines of the verdicts of ``synthesis.decide``."""
    lines = []
    for name, verdict in zip(_CHECK_NAMES, checks):
        if verdict.holds:
            lines.append(f"{name}: holds")
            continue
        lines.append(f"{name}: FAILS ({verdict.condition.value})")
        if verdict.detail:
            lines.append(f"  {verdict.detail}")
        witness = _witness_dict(verdict) or {}
        for key in ("mu", "sigma", "nu", "supervisor"):
            if key in witness:
                value = witness[key]
                lines.append(f"  {key} = {' '.join(value) if isinstance(value, list) else value}")
    return lines


def _supervisor_dict(sup) -> dict:
    return {
        "supervisor": sup.supervisor + 1,
        "obs_alphabet": list(sup.observer.obs_alphabet),
        "states": list(range(sup.observer.num_states)),
        "initial": sup.observer.initial,
        "transitions": [
            {"from": t, "obs": symbol, "to": target}
            for t in range(sup.observer.num_states)
            for symbol, target in sorted(sup.observer.transitions[t].items())
        ],
        "enable": {
            str(t): sorted(sup.enable[t]) for t in range(sup.observer.num_states)
        },
    }


def _report_dict(report: SolveReport) -> dict:
    out = {
        "spec_version": SPEC_VERSION,
        "solvable": report.solvable,
        "checks": [_verdict_dict(v) for v in report.checks],
        "sizes": report.sizes,
        "diagnostic": report.diagnostic,
    }
    if report.supervisors is not None:
        out["admissibility"] = _verdict_dict(report.admissibility)
        out["language_equal"] = {
            "generated": report.language.generated_equal,
            "marked": report.language.marked_equal,
        }
        if report.language.diff_generated is not None:
            out["language_equal"]["distinguishing_generated"] = [
                render_event(e) for e in report.language.diff_generated
            ]
        if report.language.diff_marked is not None:
            out["language_equal"]["distinguishing_marked"] = [
                render_event(e) for e in report.language.diff_marked
            ]
        out["spec_nonblocking"] = report.nonblocking
        out["supervisors"] = [_supervisor_dict(s) for s in report.supervisors]
    return out


def cmd_validate(args) -> int:
    model = load_model(args.model)
    verdict = validate_timed_assumptions(accessible(model.plant), model.network.enforceable)
    if args.format == "json":
        payload = {
            "spec_version": SPEC_VERSION,
            "valid": verdict.ok,
            "condition": verdict.condition,
            "message": verdict.message,
        }
        _write(dump_json(payload), args.output)
    else:
        text = "model valid\n" if verdict.ok else f"model invalid: {verdict.message}\n"
        _write(text, args.output)
    return 0 if verdict.ok else 1


def cmd_compose(args) -> int:
    model = load_model(args.model)
    payload = {
        "spec_version": SPEC_VERSION,
        "states": len(model.plant.states),
        "marked": len(model.plant.marked),
        "alphabet": sorted(model.plant.alphabet),
        "automaton": automaton_to_dict(model.plant),
    }
    _write(dump_json(payload), args.output)
    return 0


def cmd_build_comm(args) -> int:
    model = load_model(args.model)
    comm = build_problem_automaton(model.plant, model.spec, model.network, max_states=args.max_states)
    payload = {
        "spec_version": SPEC_VERSION,
        "states": comm.num_states,
        "spec_states": len(comm.spec_tree.keys),
        "marked_states": sum(comm.marked),
        "initial": comm.render_state(comm.initial),
    }
    if args.dot:
        _write(dotmod.comm_automaton_dot(comm), args.dot)
    _write(dump_json(payload), args.output)
    return 0


def cmd_check(args) -> int:
    model = load_model(args.model)
    _, checks = decide(model.plant, model.spec, model.network, max_states=args.max_states)
    all_hold = all(v.holds for v in checks)
    if args.format == "json":
        payload = {
            "spec_version": SPEC_VERSION,
            "all_hold": all_hold,
            "checks": [_verdict_dict(v) for v in checks],
        }
        _write(dump_json(payload), args.output)
    else:
        _write("\n".join(_checks_text(checks)) + "\n", args.output)
    return 0 if all_hold else 1


def cmd_synthesize(args) -> int:
    model = load_model(args.model)
    comm, checks = decide(model.plant, model.spec, model.network, max_states=args.max_states)
    if not all(v.holds for v in checks):
        raise ModelError("problem unsolvable; `netsup solve --diagnostic --format json` lists diagnostic supervisors")
    sups = [synthesize_supervisor(comm, i, max_states=args.max_states) for i in range(model.network.n)]
    payload = {
        "spec_version": SPEC_VERSION,
        "supervisors": [_supervisor_dict(s) for s in sups],
    }
    _write(dump_json(payload), args.output)
    return 0


def cmd_solve(args) -> int:
    model = load_model(args.model)
    report = solve_control_problem(
        model.plant, model.spec, model.network, diagnostic=args.diagnostic, max_states=args.max_states,
        build_loop=False,
    )
    if args.format == "json":
        _write(dump_json(_report_dict(report)), args.output)
    else:
        lines = _checks_text(report.checks)
        lines.append(f"solvable: {'yes' if report.solvable else 'no'}")
        if report.supervisors is not None:
            lines.append(f"admissible: {'yes' if report.admissibility.holds else 'no'}")
            lines.append(
                "closed loop equals specification: "
                + ("yes" if report.language.equal else "no")
            )
            lines.append(f"specification nonblocking: {'yes' if report.nonblocking else 'no'}")
        lines.append("sizes: " + ", ".join(f"{k}={v}" for k, v in report.sizes.items()))
        _write("\n".join(lines) + "\n", args.output)
    return 0 if report.verified else 1


def cmd_simulate(args) -> int:
    model = load_model(args.model)
    report = solve_control_problem(
        model.plant, model.spec, model.network, diagnostic=args.diagnostic, max_states=args.max_states
    )
    if not report.solvable and not args.diagnostic:
        raise ModelError("problem unsolvable; pass --diagnostic to simulate anyway")
    trace = simulate(report.loop, args.seed, args.steps)
    _write(render_trace(trace, report.comm) + "\n", args.output)
    return 0


def _supervisor_index(text: str, n: int) -> int:
    """The 0-based index of the supervisor that ``text`` numbers 1..n."""
    try:
        number = int(text)
    except ValueError:
        number = 0
    if not 1 <= number <= n:
        raise ModelError(f"observer:<i> needs a supervisor number from 1 to {n}, got {text!r}")
    return number - 1


def cmd_export_dot(args) -> int:
    model = load_model(args.model)
    target, max_states = args.target, args.max_states
    if target == "plant":
        text = dotmod.timed_automaton_dot(model.plant)
    elif target == "spec":
        text = dotmod.timed_automaton_dot(model.spec)
    elif target == "closed-loop":
        report = solve_control_problem(model.plant, model.spec, model.network, diagnostic=True, max_states=max_states)
        text = dotmod.closed_loop_dot(report.loop)
    elif target == "comm":
        comm = build_problem_automaton(model.plant, model.spec, model.network, max_states=max_states)
        text = dotmod.comm_automaton_dot(comm)
    elif target.startswith("observer:"):
        i = _supervisor_index(target.split(":", 1)[1], model.network.n)
        comm = build_problem_automaton(model.plant, model.spec, model.network, max_states=max_states)
        text = dotmod.observer_dot(comm.observer(i, max_states=max_states), comm)
    else:
        raise ModelError(f"unknown export target {target!r}")
    _write(text, args.output)
    return 0


def cmd_oracle(args) -> int:
    seeds = range(args.seed, args.seed + args.instances)
    bounds = [args.bound] * args.instances
    jobs = min(args.jobs, os.cpu_count() or 1)
    if jobs > 1:
        # imported here: the pool loads multiprocessing, threading and
        # logging, which no other command needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(agreement_for_seed, seeds, bounds))
    else:
        results = list(map(agreement_for_seed, seeds, bounds))
    failures = [r for r in results if r["disagreements"]]
    for failure in failures:
        inst = random_instance(failure["seed"])
        artifact = Path(args.artifacts) / f"disagreement-{failure['seed']}.json"
        artifact.parent.mkdir(parents=True, exist_ok=True)
        artifact.write_text(
            dump_json(model_to_dict(inst.plant, inst.spec, inst.net)), encoding="utf-8"
        )
    payload = {
        "spec_version": SPEC_VERSION,
        "instances": args.instances,
        "bound": args.bound,
        "agreements": len(results) - len(failures),
        "disagreements": failures,
    }
    _write(dump_json(payload), args.output)
    return 0 if not failures else 1


def _count(text: str, least: int = 0) -> int:
    """An argument that counts something: an int >= ``least``."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < least:
        raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
    return value


def _positive(text: str) -> int:
    """A count that must be at least 1."""
    return _count(text, 1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netsup",
        description="supervisor synthesis for timed systems with delayed, lossy"
        " communication between supervisors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--output", "-o", default=None, help="write to file instead of stdout")
        return p

    def budget(p):
        p.add_argument("--max-states", type=_positive, default=MAX_STATES,
                       help=f"state budget of each construction (default {MAX_STATES})")

    p = add("validate", cmd_validate, "check the timed-model assumptions")
    p.add_argument("model")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = add("compose", cmd_compose, "resolve the plant expression and report the result")
    p.add_argument("model")

    p = add("build-comm", cmd_build_comm, "build the channel-augmented automaton")
    p.add_argument("model")
    p.add_argument("--dot", default=None, help="also write a DOT rendering here")
    budget(p)

    p = add("check", cmd_check, "decide the three existence conditions")
    p.add_argument("model")
    p.add_argument("--format", choices=["text", "json"], default="text")
    budget(p)

    p = add("synthesize", cmd_synthesize, "emit the supervisor set as JSON")
    p.add_argument("model")
    budget(p)

    p = add("solve", cmd_solve, "full pipeline: checks, synthesis, verification")
    p.add_argument("model")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--diagnostic", action="store_true",
                   help="synthesize even when a condition fails")
    budget(p)

    p = add("simulate", cmd_simulate, "random closed-loop run")
    p.add_argument("model")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=_count, default=50)
    p.add_argument("--diagnostic", action="store_true")
    budget(p)

    p = add("export-dot", cmd_export_dot, "DOT rendering of a structure")
    p.add_argument("model")
    p.add_argument("--target", default="comm",
                   help="plant | spec | comm | observer:<i> | closed-loop")
    budget(p)

    p = add("oracle", cmd_oracle, "engine-versus-oracle agreement on random instances")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=_count, default=20)
    p.add_argument("--bound", type=_positive, default=8)
    p.add_argument("--jobs", type=_positive, default=1,
                   help="worker processes, at most the number of CPUs")
    p.add_argument("--artifacts", default="oracle-failures",
                   help="directory for disagreement model dumps")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ModelError, ResourceLimitError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
