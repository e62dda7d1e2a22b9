"""Record the golden outputs the benchmark checks against.

    python3 perfbench/record_golden.py

Writes ``golden/line-solvable.json`` and ``golden/line-unsolvable.json``
(the exact `netsup solve --format json` output) and ``golden/synth-n3.json``
(per instance: observer sizes, closed-loop size, admissibility and language
verdicts).  Re-record only when a change to netsup alters these outputs on
purpose, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict

import workloads
from tracing import NULL_TRACER


def main() -> int:
    sys.path.insert(0, str(workloads.ROOT / "src"))
    ns = workloads.import_netsup()
    workloads.GOLDEN.mkdir(exist_ok=True)
    for name in ("line-solvable", "line-unsolvable"):
        line = workloads.make(name)
        line.ns = ns
        code, text = line.run(line.write_model())
        if code != line.exit_code:
            raise SystemExit(f"{name}: exit code {code}, expected {line.exit_code}")
        (workloads.GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")

    synth = workloads.SynthN3("synth-n3", workloads.POPULATION)
    synth.ns = ns
    synth.generator_params = ns.randgen.GeneratorParams(n=3, max_comm_states=150)
    digests = {}
    for seed in range(workloads.POPULATION):
        inst = ns.randgen.random_instance(seed, synth.generator_params)
        synth.instances = {seed: inst}
        digests[str(seed)] = synth.digest(synth.run_traced(seed, NULL_TRACER))
    payload = {"generator_params": asdict(synth.generator_params), "digests": digests}
    (workloads.GOLDEN / "synth-n3.json").write_text(
        json.dumps(payload) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
