"""The four benchmark workloads.

Each workload sets up its inputs, runs one op (one unit of user work) on an
item, checks the op's output, and can replay the op with a span around each
public call into netsup.  Only the public API and ``netsup.cli.main`` are
called, so the numbers are what a user of the package sees.

Why these four (shares measured once on a 2-core machine):

- ``line-solvable``: the largest solvable model reachable from the fixtures;
  joint observability is ~80 % of an op, synthesis and verification ~13 %.
- ``line-unsolvable``: the same plant on the negative-verdict path, where the
  checks stop at their first witness.
- ``oracle-sweep``: many small random instances checked against the string
  oracle, so per-call fixed costs and string enumeration dominate.
- ``synth-n3``: three supervisors, the path that skips the existence checks,
  so synthesis and the closed loop dominate.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Optional

from tracing import NULL_TRACER

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
OUT = HERE / "out"

# The random workloads visit a fixed instance set in an order drawn from the
# workload seed.  Per-instance cost is heavy-tailed (on oracle-sweep the median
# op takes ~4.5 ms, the slowest ~0.8 s), so a seed-drawn set of a few hundred
# instances would change the work per run by up to 1.8x and hide any change in
# the program behind the choice of inputs.
POPULATION = 200
ORACLE_BOUND = 8  # the default of `netsup oracle`
LANGUAGE_CHECK_BOUND = 5


def import_netsup():
    """Import netsup from the checkout's ``src`` afresh (set-up pays the
    import) and return the package."""
    for name in [m for m in sys.modules if m == "netsup" or m.startswith("netsup.")]:
        del sys.modules[name]
    ns = importlib.import_module("netsup")
    for sub in ("cli", "comm", "randgen", "verification"):
        importlib.import_module(f"netsup.{sub}")
    return ns


def verdict_dict(ns, verdict) -> dict:
    """A verdict in the shape `netsup solve --format json` prints it."""
    w = verdict.witness
    witness = None
    if w is not None:
        render = ns.comm.render_event
        witness = {"mu": [render(e) for e in w.mu]}
        if w.nu is not None:
            witness["nu"] = [render(e) for e in w.nu]
        if w.sigma is not None:
            witness["sigma"] = w.sigma
        if w.supervisor is not None:
            witness["supervisor"] = w.supervisor + 1
    return {"condition": verdict.condition.value, "holds": verdict.holds, "witness": witness}


def twin_counts(ns, comm) -> tuple[int, int]:
    """(all, both-in-spec) twin-product states over every supervisor the
    joint-observability check builds a twin product for."""
    net = comm.net
    supervisors = sorted({i for e in net.globally_controllable for i in net.controllers(e)})
    total = useful = 0
    for i in supervisors:
        states = ns.verification.build_twin_product(comm, i).states
        total += len(states)
        # A twin product restricted to both-in-spec pairs carries no flags;
        # all of its states are useful then.
        useful += sum(
            1 for s in states
            if getattr(s, "x_in_spec", True) and getattr(s, "y_in_spec", True)
        )
    return total, useful


def size_counts(result: dict) -> dict[str, int]:
    """State and transition counts of what an op built."""
    comm = result["comm"]
    return {
        "comm.states": comm.num_states,
        "comm.transitions": sum(len(t) for t in comm.transitions),
        "synthesis.observer_states": sum(s.observer.num_states for s in result["supervisors"]),
        "synthesis.closed_loop_states": result["loop"].num_states,
    }


class LineWorkload:
    """`netsup solve --format json` on production_line.json with its two
    channel delay bounds changed; the output must equal a golden file."""

    population = 1
    trace_passes = 3  # a traced run replays this many ops
    generator_params = None

    def __init__(self, name: str, delays: dict[tuple[int, int], int], diagnostic: bool,
                 exit_code: int) -> None:
        self.name = name
        self.delays = delays
        self.diagnostic = diagnostic
        self.exit_code = exit_code
        self.argv_flags = ["--diagnostic"] if diagnostic else []

    def write_model(self) -> Path:
        """production_line.json with this workload's delay bounds, written
        for the CLI to read."""
        doc = json.loads((ROOT / "models" / "production_line.json").read_text(encoding="utf-8"))
        for channel in doc["network"]["channels"]:
            channel["delay_bound"] = self.delays[(channel["from"], channel["to"])]
        OUT.mkdir(exist_ok=True)
        path = OUT / f"{self.name}.model.json"
        path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
        return path

    def setup(self, ns, tracer) -> None:
        self.ns = ns
        self.model_path = self.write_model()
        self.golden = (GOLDEN / f"{self.name}.json").read_text(encoding="utf-8")
        self.golden_report = json.loads(self.golden)
        self._twins: Optional[tuple[int, int]] = None

    def pass_items(self, rng: random.Random) -> list:
        return [self.model_path]

    def warmup_item(self):
        return self.model_path

    def run(self, path):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.ns.cli.main(["solve", str(path), "--format", "json", *self.argv_flags])
        return code, out.getvalue()

    def check(self, path, result) -> Optional[str]:
        code, text = result
        if code != self.exit_code:
            return f"exit code {code}, expected {self.exit_code}"
        if text != self.golden:
            return "solve output differs from the golden file"
        return None

    def _prepare(self, model):
        """What `solve_control_problem` does before building the channel-
        augmented automaton."""
        ns = self.ns
        plant = ns.accessible(model.plant)
        spec = model.spec
        unreachable = set(spec.states) - set(plant.states)
        if unreachable:
            spec = ns.remove_states(spec, unreachable, name=spec.name)
        assumptions = ns.validate_timed_assumptions(plant, model.network)
        if not assumptions.ok:
            raise ValueError(f"plant violates timed assumption {assumptions.condition}")
        return plant, spec

    def run_traced(self, path, tracer) -> dict:
        """`solve_control_problem` stage by stage, one span per call."""
        ns = self.ns
        with tracer.span("modelio.load"):
            model = ns.load_model(path)
        with tracer.span("automata.prepare"):
            plant, spec = self._prepare(model)
        with tracer.span("comm.build"):
            comm = ns.build_comm_automaton(plant, spec, model.network)
        with tracer.span("verification.controllability"):
            controllability = ns.check_network_controllability(comm)
        with tracer.span("verification.joint_obs"):
            observability = ns.check_network_joint_observability(comm)
        with tracer.span("verification.closure"):
            closure = ns.check_lm_closure(comm)
        checks = [controllability, observability, closure]
        solvable = all(v.holds for v in checks)
        report = {
            "solvable": solvable,
            "diagnostic": self.diagnostic and not solvable,
            "checks": [verdict_dict(ns, v) for v in checks],
            "sizes": {"comm_states": comm.num_states, "spec_states": sum(comm.spec_reachable)},
        }
        result = {"report": report, "comm": comm, "supervisors": [], "loop": None}
        if solvable or self.diagnostic:
            with tracer.span("synthesis.observer"):
                sups = [ns.synthesize_supervisor(comm, i) for i in range(model.network.n)]
            with tracer.span("synthesis.closed_loop"):
                loop = ns.closed_loop(comm, sups)
            with tracer.span("synthesis.admissibility"):
                admissibility = ns.check_admissibility(sups, comm)
            with tracer.span("synthesis.language"):
                language = ns.language_equal(loop, comm.spec_view())
            with tracer.span("synthesis.nonblocking"):
                nonblocking = ns.spec_nonblocking(comm)
            for i, sup in enumerate(sups):
                report["sizes"][f"observer_{i + 1}_states"] = sup.observer.num_states
            report["sizes"]["closed_loop_states"] = loop.num_states
            report["admissibility"] = verdict_dict(ns, admissibility)
            render = ns.comm.render_event
            report["language_equal"] = {
                "generated": language.generated_equal, "marked": language.marked_equal
            }
            for key, diff in (("distinguishing_generated", language.diff_generated),
                              ("distinguishing_marked", language.diff_marked)):
                if diff is not None:
                    report["language_equal"][key] = [render(e) for e in diff]
            report["spec_nonblocking"] = nonblocking
            result.update(supervisors=sups, loop=loop)
        return result

    def check_traced(self, path, result) -> Optional[str]:
        """The replay must reproduce the untraced solve report."""
        expected = {
            k: v for k, v in self.golden_report.items()
            if k not in ("spec_version", "supervisors")
        }
        if result["report"] != expected:
            return "stage replay differs from the solve report"
        return None

    def counts(self, path, result) -> dict[str, float]:
        if self._twins is None:  # every op of this workload solves the same model
            self._twins = twin_counts(self.ns, result["comm"])
        return {
            **size_counts(result),
            "verification.twin_states": self._twins[0],
            "verification.twin_useful": self._twins[1],
        }

    def final_check(self) -> Optional[str]:
        if self.exit_code == 0:
            return None
        return self.replay_witness()

    def replay_witness(self) -> Optional[str]:
        """Replay the golden joint-observability witness on its own: mu and
        nu run inside the specification, look the same to the named
        supervisor, and sigma leaves the specification after mu only."""
        ns = self.ns
        failing = [c for c in self.golden_report["checks"] if not c["holds"]]
        if not failing or failing[0]["condition"] != "NetJointObs":
            return "expected a joint-observability failure"
        w = failing[0]["witness"]
        model = ns.load_model(self.model_path)
        plant, spec = self._prepare(model)
        comm = ns.build_comm_automaton(plant, spec, model.network)
        events = {ns.comm.render_event(e): e for moves in comm.transitions for e in moves}
        try:
            mu = tuple(events[e] for e in w["mu"])
            nu = tuple(events[e] for e in w["nu"])
        except KeyError as exc:
            return f"witness event {exc} does not occur in the channel-augmented automaton"
        i = w["supervisor"] - 1
        sigma = ns.Plant(w["sigma"])
        if not (comm.string_in_spec(mu) and comm.string_in_spec(nu)):
            return "a witness run leaves the specification"
        if ns.project_observation(mu, i, comm.net) != ns.project_observation(nu, i, comm.net):
            return "the witness runs look different to the named supervisor"
        after_mu = comm.target(comm.run(mu), sigma)
        after_nu = comm.target(comm.run(nu), sigma)
        if after_mu is None or comm.in_spec[after_mu]:
            return "sigma does not leave the specification after mu"
        if after_nu is None or not comm.in_spec[after_nu]:
            return "sigma does not stay inside the specification after nu"
        return None


class SeededWorkload:
    """Random instances with fixed instance seeds ``0 .. population-1``,
    visited in a seed-drawn order."""

    trace_passes = 1

    def __init__(self, name: str, population: int) -> None:
        self.name = name
        self.population = population

    def pass_items(self, rng: random.Random) -> list[int]:
        seeds = list(range(self.population))
        rng.shuffle(seeds)
        return seeds

    def warmup_item(self) -> int:
        return 0

    def run(self, seed: int):
        return self.run_traced(seed, NULL_TRACER)

    def check_traced(self, seed: int, result) -> Optional[str]:
        return self.check(seed, result)

    def final_check(self) -> Optional[str]:
        return None


class OracleSweep(SeededWorkload):
    """One op is one instance's engine-versus-oracle agreement, as
    `netsup oracle --jobs 1` computes it; any disagreement fails the op."""

    def setup(self, ns, tracer) -> None:
        self.ns = ns
        self.generator_params = ns.randgen.GeneratorParams()

    def run_traced(self, seed: int, tracer) -> dict:
        ns = self.ns
        bound = ORACLE_BOUND
        Condition = ns.Condition
        with tracer.span("randgen.instance"):
            inst = ns.randgen.random_instance(seed, self.generator_params)
        comm = inst.comm
        with tracer.span("verification.controllability"):
            controllability = ns.check_network_controllability(comm).holds
        with tracer.span("verification.joint_obs"):
            observability = ns.check_network_joint_observability(comm).holds
        with tracer.span("verification.closure"):
            closure = ns.check_lm_closure(comm).holds
        with tracer.span("oracle.brute_check"):
            oracle_controllability = (
                ns.brute_check(Condition.NET_CTRL_1, comm, bound).holds
                and ns.brute_check(Condition.NET_CTRL_2, comm, bound).holds
            )
            oracle_observability = ns.brute_check(Condition.NET_JOINT_OBS, comm, bound).holds
            oracle_closure = ns.brute_check(Condition.LM_CLOSURE, comm, bound).holds
        with tracer.span("synthesis.observer"):
            sups = [ns.synthesize_supervisor(comm, i) for i in range(inst.net.n)]
        with tracer.span("synthesis.closed_loop"):
            loop = ns.closed_loop(comm, sups)
        with tracer.span("oracle.enumerate"):
            loop_language = ns.enumerate_language(loop, bound)
        with tracer.span("oracle.brute_closed_loop"):
            brute_language = ns.brute_closed_loop(comm, sups, bound)
        disagreements = [
            name for name, engine, oracle in (
                ("NetworkControllability", controllability, oracle_controllability),
                ("NetworkJointObservability", observability, oracle_observability),
                ("LmClosure", closure, oracle_closure),
            ) if engine != oracle
        ]
        if (loop_language.strings != brute_language.strings
                or loop_language.marked != brute_language.marked):
            disagreements.append("ClosedLoopLanguage")
        return {"comm": comm, "supervisors": sups, "loop": loop,
                "strings": len(loop_language.strings) + len(brute_language.strings),
                "disagreements": disagreements}

    def check(self, seed: int, result) -> Optional[str]:
        if result["disagreements"]:
            return f"instance {seed}: oracle disagrees on {', '.join(result['disagreements'])}"
        return None

    def counts(self, seed: int, result) -> dict[str, float]:
        twins, useful = twin_counts(self.ns, result["comm"])
        return {
            **size_counts(result),
            "verification.twin_states": twins,
            "verification.twin_useful": useful,
            "oracle.strings": result["strings"],
        }


class SynthN3(SeededWorkload):
    """Three supervisors: build the channel-augmented automaton, synthesize,
    build the closed loop and verify it, without the existence checks.  Each
    instance's sizes and verdicts must match a digest recorded once."""

    def setup(self, ns, tracer) -> None:
        self.ns = ns
        self.generator_params = ns.randgen.GeneratorParams(n=3, max_comm_states=150)
        self.instances = {}
        for seed in range(self.population):
            with tracer.span("randgen.instance"):
                self.instances[seed] = ns.randgen.random_instance(seed, self.generator_params)
        golden = json.loads((GOLDEN / "synth-n3.json").read_text(encoding="utf-8"))
        if golden["generator_params"] != asdict(self.generator_params):
            raise ValueError("synth-n3 digests were recorded with other generator parameters")
        self.digests = golden["digests"]
        self._language_checked: set[int] = set()

    def run_traced(self, seed: int, tracer) -> dict:
        ns = self.ns
        inst = self.instances[seed]
        with tracer.span("comm.build"):
            comm = ns.build_comm_automaton(inst.plant, inst.spec, inst.net)
        with tracer.span("synthesis.observer"):
            sups = [ns.synthesize_supervisor(comm, i) for i in range(inst.net.n)]
        with tracer.span("synthesis.closed_loop"):
            loop = ns.closed_loop(comm, sups)
        with tracer.span("synthesis.admissibility"):
            admissibility = ns.check_admissibility(sups, comm)
        with tracer.span("synthesis.language"):
            language = ns.language_equal(loop, comm.spec_view())
        return {"comm": comm, "supervisors": sups, "loop": loop,
                "admissible": admissibility.holds, "language_equal": language.equal}

    @staticmethod
    def digest(result) -> list:
        return [
            [s.observer.num_states for s in result["supervisors"]],
            result["loop"].num_states,
            result["admissible"],
            result["language_equal"],
        ]

    def check(self, seed: int, result) -> Optional[str]:
        if self.digest(result) != self.digests[str(seed)]:
            return f"instance {seed}: sizes or verdicts differ from the recorded digest"
        if seed not in self._language_checked:
            # once per instance: the closed loop against the oracle's
            # definition-level controlled language
            self._language_checked.add(seed)
            ns = self.ns
            bound = LANGUAGE_CHECK_BOUND
            loop_language = ns.enumerate_language(result["loop"], bound)
            brute_language = ns.brute_closed_loop(result["comm"], result["supervisors"], bound)
            if (loop_language.strings != brute_language.strings
                    or loop_language.marked != brute_language.marked):
                return f"instance {seed}: closed-loop language differs from the oracle's"
        return None

    def counts(self, seed: int, result) -> dict[str, float]:
        return size_counts(result)


def make(name: str, population: int = POPULATION):
    """A fresh workload object; ``population`` sizes the random workloads."""
    if name == "line-solvable":
        return LineWorkload(name, {(1, 2): 6, (2, 1): 1}, diagnostic=False, exit_code=0)
    if name == "line-unsolvable":
        return LineWorkload(name, {(1, 2): 1, (2, 1): 6}, diagnostic=True, exit_code=1)
    if name == "oracle-sweep":
        return OracleSweep(name, population)
    if name == "synth-n3":
        return SynthN3(name, population)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("line-solvable", "line-unsolvable", "oracle-sweep", "synth-n3")
