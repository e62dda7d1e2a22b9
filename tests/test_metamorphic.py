"""Metamorphic properties: verdicts and sizes do not depend on what states
and events are called, on the order a model file declares them in, or on how
supervisors are numbered.

Every model goes through ``model_to_dict`` and ``parse_model`` first, so the
original and the transformed document are solved the same way.
"""

import json
import random

import pytest

from netsup import load_model, parse_model, solve_control_problem
from netsup.automata import TICK
from netsup.cli import main
from netsup.comm import build_comm_automaton, render_event
from netsup.modelio import dump_json, model_to_dict
from netsup.randgen import GeneratorParams, random_instance

FIXTURES = ["production_line.json", "production_line_no_ch21.json"]
MODELS = ["minimal.json", *FIXTURES]
N3 = GeneratorParams(n=3, max_comm_states=150)


def fixture_doc(models_dir, name):
    model = load_model(models_dir / name)
    return model_to_dict(model.plant, model.spec, model.network)


def random_doc(seed, params=GeneratorParams()):
    inst = random_instance(seed, params)
    return model_to_dict(inst.plant, inst.spec, inst.net)


def rename_and_shuffle(doc, rng):
    """Rename every plant state and shuffle the declaration order of states
    and transitions."""
    doc = json.loads(json.dumps(doc))
    (auto,) = doc["automata"]
    fresh = [f"s{k}" for k in range(len(auto["states"]))]
    rng.shuffle(fresh)
    name = dict(zip(auto["states"], fresh))
    auto["states"] = [name[q] for q in auto["states"]]
    rng.shuffle(auto["states"])
    auto["initial"] = name[auto["initial"]]
    auto["marked"] = [name[q] for q in auto["marked"]]
    auto["transitions"] = [
        {"from": name[t["from"]], "event": t["event"], "to": name[t["to"]]}
        for t in auto["transitions"]
    ]
    rng.shuffle(auto["transitions"])
    spec = doc["spec"]
    spec["remove_states"] = [name[q] for q in spec["remove_states"]]
    if "marked" in spec:
        spec["marked"] = [name[q] for q in spec["marked"]]
    return doc


def permute_supervisors(doc, rng):
    """Renumber the supervisors: their entries, ``com`` and the channel
    endpoints."""
    doc = json.loads(json.dumps(doc))
    net = doc["network"]
    n = net["n"]
    new = list(range(n))
    while n > 1 and new == sorted(new):
        rng.shuffle(new)
    sups = [None] * n
    com = [[0] * n for _ in range(n)]
    for i in range(n):
        sups[new[i]] = net["supervisors"][i]
        for j in range(n):
            com[new[i]][new[j]] = net["com"][i][j]
    net["supervisors"], net["com"] = sups, com
    for channel in net["channels"]:
        channel["from"] = new[channel["from"] - 1] + 1
        channel["to"] = new[channel["to"] - 1] + 1
    return doc


def reverse_event_names(doc):
    """Rename every non-tick event by one fixed map that reverses their
    order, wherever the document names events."""
    doc = json.loads(json.dumps(doc))
    net = doc["network"]
    events = sorted({e for sup in net["supervisors"] for e in sup["alphabet"]} - {TICK})
    name = {e: f"e{len(events) - k:04d}" for k, e in enumerate(events)}
    name[TICK] = TICK
    for auto in doc["automata"]:
        auto["alphabet"] = [name[e] for e in auto["alphabet"]]
        for t in auto["transitions"]:
            t["event"] = name[t["event"]]
    for entry, key in [
        *((sup, key) for sup in net["supervisors"] for key in ("alphabet", "controllable", "observable")),
        (net, "enforceable"),
        *((channel, key) for channel in net["channels"] for key in ("events", "lossy")),
    ]:
        entry[key] = [name[e] for e in entry[key]]
    return doc


def solve_json(tmp_path, doc, *flags):
    path = tmp_path / "model.json"
    path.write_text(dump_json(doc), encoding="utf-8")
    out = tmp_path / "solve.json"
    code = main(["solve", str(path), "--format", "json", "-o", str(out), *flags])
    return code, out.read_text(encoding="utf-8")


def spec_paths(doc):
    """The rendered ``spec_path`` of every specification-reachable state,
    by state id."""
    model = parse_model(doc)
    comm = build_comm_automaton(model.plant, model.spec, model.network)
    return [
        [render_event(e) for e in comm.spec_path(sid)]
        for sid in sorted(comm.spec_tree.keys)
    ]


def summary(doc):
    """What supervisor numbering and event names must not change."""
    model = parse_model(doc)
    report = solve_control_problem(model.plant, model.spec, model.network, diagnostic=True)
    sizes = report.sizes
    return {
        "verdicts": [(v.condition, v.holds)
                     for v in report.checks],
        "sizes": [sizes["comm_states"], sizes["spec_states"], sizes["closed_loop_states"]],
        "observers": sorted(sup.observer.num_states for sup in report.supervisors),
        "admissible": report.admissibility.holds,
        "language": (report.language.generated_equal, report.language.marked_equal),
        "spec_nonblocking": report.nonblocking,
    }


def renaming_cases():
    return [("fixture", name) for name in FIXTURES] + [("random", seed) for seed in range(50)]


def numbering_cases():
    return renaming_cases() + [("n3", seed) for seed in range(30)]


def make_doc(models_dir, kind, which):
    if kind == "fixture":
        return fixture_doc(models_dir, which)
    return random_doc(which, N3 if kind == "n3" else GeneratorParams())


@pytest.mark.parametrize("kind,which", renaming_cases())
def test_state_names_and_declaration_order_do_not_change_solve_json(
    models_dir, tmp_path, kind, which
):
    doc = make_doc(models_dir, kind, which)
    moved = rename_and_shuffle(doc, random.Random(f"{kind}-{which}"))
    for flags in ((), ("--diagnostic",)):
        assert solve_json(tmp_path, moved, *flags) == solve_json(tmp_path, doc, *flags)
    # every tie-break of the specification walk, not only those a witness shows
    assert spec_paths(moved) == spec_paths(doc)


@pytest.mark.parametrize("kind,which", numbering_cases())
def test_supervisor_numbering_does_not_change_verdicts_or_sizes(models_dir, kind, which):
    doc = make_doc(models_dir, kind, which)
    permuted = permute_supervisors(doc, random.Random(f"{kind}-{which}"))
    assert summary(permuted) == summary(doc)


@pytest.mark.parametrize("kind,which", [("fixture", name) for name in MODELS] + [
    (kind, seed) for kind, count in (("random", 50), ("n3", 30)) for seed in range(count)
])
def test_event_names_do_not_change_verdicts_or_sizes(models_dir, kind, which):
    """Witnesses may differ: ``event_order`` breaks their ties."""
    doc = make_doc(models_dir, kind, which)
    renamed = reverse_event_names(doc)
    assert (renamed == doc) == (doc["automata"][0]["alphabet"] == [TICK])  # tick keeps its name
    assert summary(renamed) == summary(doc)
