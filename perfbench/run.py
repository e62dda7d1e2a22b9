"""Run one benchmark workload of netsup and print its metrics.

    python3 perfbench/run.py --workload line-solvable --seed 0 --seconds 22 --trace 0

Run from anywhere inside a source checkout: netsup is imported from the
checkout's ``src``.  One process runs one workload, so the peak RSS it
reports is that workload's own.  Ops run one after another (a closed loop
with one client); no threads or worker processes are started.

``--trace 0`` times the ops and prints the end-to-end metrics.  ``--trace 1``
replays a fixed list of ops with a span around each call into netsup and
prints the per-layer metrics, as means per op.  Every op's output is checked;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run record and, when tracing,
the spans are written under ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import sys
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import speed
import workloads
from tracing import NULL_TRACER, GcTimer, Tracer

ROOT = workloads.ROOT

END_TO_END = {
    "op_s.p50": "s",
    "op_s.p90": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# span name -> metric name; a metric is the span's mean time per traced op
STAGE_SPANS = {
    "modelio.load": "modelio.load_s",
    "automata.prepare": "automata.prepare_s",
    "comm.build": "comm.build_s",
    "verification.controllability": "verification.controllability_s",
    "verification.joint_obs": "verification.joint_obs_s",
    "verification.closure": "verification.closure_s",
    "synthesis.observer": "synthesis.observer_s",
    "synthesis.closed_loop": "synthesis.closed_loop_s",
    "synthesis.admissibility": "synthesis.admissibility_s",
    "synthesis.language": "synthesis.language_s",
    "synthesis.nonblocking": "synthesis.nonblocking_s",
    "oracle.brute_check": "oracle.brute_check_s",
    "oracle.enumerate": "oracle.enumerate_s",
    "oracle.brute_closed_loop": "oracle.brute_closed_loop_s",
    "randgen.instance": "randgen.instance_s",
}
COUNTS = (
    "comm.states",
    "comm.transitions",
    "verification.twin_states",
    "synthesis.observer_states",
    "synthesis.closed_loop_states",
    "oracle.strings",
)
PER_LAYER = {
    **{metric: "s" for metric in STAGE_SPANS.values()},
    **{name: "count" for name in COUNTS},
    "verification.twin_useful_ratio": "ratio",
    "runtime.gc_s": "s",
    "runtime.gc_collections": "count",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Scale:
    """How much work a run does besides ``--seconds``."""

    population: int = workloads.POPULATION  # instances of a random workload
    setup_reps: int = 5  # setups per timed run at least; setup_s is their median
    setup_seconds: float = 2.0  # and more until set-ups have taken this long
    trace_passes: Optional[int] = None  # passes a traced run replays; None: the workload's


FULL = Scale()


class Ops:
    """When each op ran, and what failed."""

    def __init__(self) -> None:
        self.intervals: list[tuple[float, float]] = []
        self.failures: list[str] = []

    @property
    def seconds(self) -> list[float]:
        return [end - start for start, end in self.intervals]

    def run(self, op: Callable, check: Callable, item) -> object:
        """Time ``op(item)``, then check its result outside the timed part.
        Returns the result, or None when the op failed."""
        start = perf_counter()
        try:
            result = op(item)
        except Exception:
            self.intervals.append((start, perf_counter()))
            self.failures.append(f"item {item}: {traceback.format_exc()}")
            return None
        self.intervals.append((start, perf_counter()))
        try:
            error = check(item, result)
        except Exception:
            error = f"check raised: {traceback.format_exc()}"
        if error is not None:
            self.failures.append(f"item {item}: {error}")
            return None
        return result


def p90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10)[-1] if len(samples) > 1 else samples[0]


def set_up(workload, tracer) -> tuple[float, float]:
    """Import netsup, make the inputs and run one untimed warm-up op.
    Returns when set-up started and ended."""
    start = perf_counter()
    workload.setup(workloads.import_netsup(), tracer)
    warmup = Ops()
    warmup.run(workload.run, workload.check, workload.warmup_item())
    for failure in warmup.failures:
        print(f"warm-up op failed: {failure}", file=sys.stderr)
    return start, perf_counter()


def item_times(samples: list[float], passes: list[list]) -> list[float]:
    """The times the op percentiles are taken over.  ``samples`` are op
    times in run order and ``passes`` the items of each pass, in the same
    order.  A pass of several items is a fixed instance set, so each item
    counts once, with its median time over the run's passes: an item's
    repeats then do not each carry their own noise into the percentiles.
    A pass of one item (the ``line-*`` workloads) leaves the op times as
    they are."""
    by_item: dict = {}
    for item, t in zip((item for items in passes for item in items), samples):
        by_item.setdefault(item, []).append(t)
    if len(by_item) == 1:
        return samples
    return [statistics.median(times) for times in by_item.values()]


def timing_metrics(samples: list[float], passes: list[list], setup_times: list[float]) -> dict:
    """``ops_per_s`` is the median over passes of a pass's ops per second:
    every pass does the same work, and a median keeps a pass that ran while
    the machine was busy from moving the run's figure."""
    rates, k = [], 0
    for items in passes:
        rates.append(len(items) / sum(samples[k:k + len(items)]))
        k += len(items)
    times = item_times(samples, passes)
    return {
        "op_s.p50": statistics.median(times),
        "op_s.p90": p90(times),
        "ops_per_s": statistics.median(rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_times),
    }


def timed_run(workload, seed: int, seconds: float, scale: Scale) -> tuple[Ops, dict]:
    rng = random.Random(seed)
    ops = Ops()
    passes = []
    with speed.Sampler() as sampler:
        setups = []
        while (len(setups) < scale.setup_reps
               or setups[-1][1] - setups[0][0] < scale.setup_seconds):
            setups.append(set_up(workload, NULL_TRACER))
        start = perf_counter()
        while True:  # whole passes only, so every pass does the same work
            items = workload.pass_items(rng)
            for item in items:
                ops.run(workload.run, workload.check, item)
            passes.append(items)
            if perf_counter() - start >= seconds:
                break
    op_times = [sampler.rescale(*interval) for interval in ops.intervals]
    setup_times = [sampler.rescale(*interval) for interval in setups]
    scaled = [t for _, t in op_times]
    metrics = timing_metrics(scaled, passes, [t for _, t in setup_times])
    own = timing_metrics([t for t, _ in op_times], passes, [t for t, _ in setup_times])
    times = item_times(scaled, passes)
    beyond = sum(1 for t in times if t > metrics["op_s.p90"])
    print(f"{len(setups)} set-ups; ops {len(op_times)} in {len(passes)} passes; percentiles over {len(times)} times,"
          f" {beyond} beyond p90; {len(sampler.durations)} speed probes,"
          f" median {statistics.median(sampler.durations):.6f} s")
    print("unscaled: " + ", ".join(
        f"{name} = {own[name]:.6g}" for name in ("op_s.p50", "op_s.p90", "ops_per_s", "setup_s")
    ))
    return ops, metrics


def traced_run(workload, seed: int, scale: Scale) -> tuple[Ops, dict, Tracer]:
    tracer = Tracer()
    set_up(workload, tracer)
    rng = random.Random(seed)
    passes = scale.trace_passes or workload.trace_passes
    items = [item for _ in range(passes) for item in workload.pass_items(rng)]

    untraced = Ops()
    for item in items:
        untraced.run(workload.run, workload.check, item)

    traced = Ops()
    totals = dict.fromkeys(COUNTS + ("verification.twin_useful",), 0)
    gc_timer = GcTimer()
    for k, item in enumerate(items):
        def op(item, k=k):
            with gc_timer, tracer.op(k):
                return workload.run_traced(item, tracer)

        result = traced.run(op, workload.check_traced, item)
        if result is not None:  # counts are taken outside the op's span
            for name, value in workload.counts(item, result).items():
                totals[name] += value

    n = len(items)
    metrics = {
        metric: sum(tracer.durations(span)) / n for span, metric in STAGE_SPANS.items()
    }
    metrics.update({name: totals[name] / n for name in COUNTS})
    twins = totals["verification.twin_states"]
    metrics["verification.twin_useful_ratio"] = (
        totals["verification.twin_useful"] / twins if twins else 0.0
    )
    metrics["runtime.gc_s"] = gc_timer.seconds / n
    metrics["runtime.gc_collections"] = gc_timer.collections / n
    metrics["trace.overhead_s"] = (
        statistics.median(traced.seconds) - statistics.median(untraced.seconds)
    )
    ops = Ops()
    ops.intervals = untraced.intervals + traced.intervals
    ops.failures = untraced.failures + traced.failures
    print(f"traced ops {n}, untraced p50 {statistics.median(untraced.seconds):.6f} s,"
          f" traced p50 {statistics.median(traced.seconds):.6f} s")
    return ops, metrics, tracer


def commit_of(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, scale: Scale = FULL) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "netsup" / "__init__.py").is_file():
        print(f"error: no netsup sources under {src}", file=sys.stderr)
        return 2
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))

    workload = workloads.make(args.workload, scale.population)
    tracer = None
    if args.trace:
        ops, values, tracer = traced_run(workload, args.seed, scale)
        units = PER_LAYER
    else:
        ops, values = timed_run(workload, args.seed, args.seconds, scale)
        units = END_TO_END
    run_failure = workload.final_check()

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit_of(ROOT),
        "population": workload.population,
        "generator_params": (
            asdict(workload.generator_params) if workload.generator_params else None
        ),
    }
    attempted = len(ops.seconds)
    failed = len(ops.failures)
    for failure in ops.failures[:5]:
        print(f"failed op: {failure}", file=sys.stderr)
    if run_failure is not None:
        print(f"failed check: {run_failure}", file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} ops)")
    print("record " + json.dumps(record, sort_keys=True))

    workloads.OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (workloads.OUT / f"{stem}.json").write_text(json.dumps({
        "record": record, "metrics": metrics, "attempted": attempted, "failed": failed,
        "failures": ops.failures[:20], "run_check": run_failure,
    }, indent=1), encoding="utf-8")
    if tracer is not None:
        (workloads.OUT / f"{stem}-spans.json").write_text(
            json.dumps(tracer.spans), encoding="utf-8"
        )

    print(json.dumps({
        "correct": failed == 0 and run_failure is None,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
