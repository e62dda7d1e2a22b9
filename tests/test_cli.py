"""Command-line interface: exit codes, artifact shapes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from netsup import automata, build_comm_automaton, cli, load_model, synthesis
from netsup.cli import main
from netsup.errors import ModelError, ResourceLimitError

DATA = Path(__file__).resolve().parent / "data"
SRC = Path(cli.__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fixture_path(models_dir, name="production_line.json"):
    return str(models_dir / name)


def dead_end_model(models_dir, tmp_path):
    """The production line with a reachable state that has no move, which
    breaks timed assumption 2."""
    doc = json.loads((models_dir / "production_line.json").read_text(encoding="utf-8"))
    line = next(a for a in doc["automata"] if a["name"] == "LINE")
    line["states"].append("dead")
    line["transitions"][-1]["to"] = "dead"  # 8 -tick-> dead, which has no move
    model = tmp_path / "dead_end.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    return model


def edited_line_model(models_dir, tmp_path, edit):
    """production_line.json after ``edit(document)``, written to a file."""
    doc = json.loads((models_dir / "production_line.json").read_text(encoding="utf-8"))
    edit(doc)
    model = tmp_path / "edited.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    return model


def set_field(*path):
    """An edit that sets ``doc[path[0]]...[path[-2]]`` to ``path[-1]``."""
    *keys, last, value = path

    def edit(doc):
        for key in keys:
            doc = doc[key]
        doc[last] = value
    return edit


# each malformed document and the one error line `validate` prints for it
MALFORMED = {
    "automaton states": (
        set_field("automata", 0, "states", [["0"], "1"]),
        "automaton 'R1': field 'states' must be a list of strings"),
    "automaton marked": (
        set_field("automata", 0, "marked", [["0"]]),
        "automaton 'R1': field 'marked' must be a list of strings"),
    "automaton alphabet": (
        set_field("automata", 0, "alphabet", ["tick", ["a1"]]),
        "automaton 'R1': field 'alphabet' must be a list of strings"),
    "supervisor alphabet": (
        set_field("network", "supervisors", 0, "alphabet", ["tick", ["a1"]]),
        "supervisor 1: field 'alphabet' must be a list of strings"),
    "supervisor controllable": (
        set_field("network", "supervisors", 0, "controllable", [1]),
        "supervisor 1: field 'controllable' must be a list of strings"),
    "supervisor observable": (
        set_field("network", "supervisors", 0, "observable", [[]]),
        "supervisor 1: field 'observable' must be a list of strings"),
    "supervisor entry": (
        set_field("network", "supervisors", 0, 5),
        "supervisor 1: entry must be an object"),
    "channel events": (
        set_field("network", "channels", 0, "events", [["a1"]]),
        "channel: field 'events' must be a list of strings"),
    "channel lossy": (
        set_field("network", "channels", 0, "lossy", "a1"),
        "channel: field 'lossy' has the wrong type"),
    "channel entry": (
        set_field("network", "channels", 0, [1]),
        "channel: entry must be an object"),
    "channels": (
        set_field("network", "channels", 3),
        "network: field 'channels' has the wrong type"),
    "com row": (
        set_field("network", "com", [0, 0]),
        "network: com matrix must be n x n"),
    "com entry": (
        set_field("network", "com", [[0, "no"], [1, 0]]),
        "network: com entries must be 0 or 1"),
    "boolean delay bound": (
        set_field("network", "channels", 0, "delay_bound", True),
        "channel: field 'delay_bound' has the wrong type"),
    "enforceable": (
        set_field("network", "enforceable", [["a1"]]),
        "network: field 'enforceable' must be a list of strings"),
    "remove_states nested": (
        set_field("spec", "remove_states", [["8"]]),
        "spec: field 'remove_states' must be a list of strings"),
    "remove_states int": (
        set_field("spec", "remove_states", 8),
        "spec: field 'remove_states' has the wrong type"),
    "remove_states string": (
        set_field("spec", "remove_states", "8"),
        "spec: field 'remove_states' has the wrong type"),
    "spec marked nested": (
        set_field("spec", "marked", [["0"]]),
        "spec: field 'marked' must be a list of strings"),
    "spec marked int": (
        set_field("spec", "marked", 0),
        "spec: field 'marked' has the wrong type"),
    "unknown removed states": (
        set_field("spec", "remove_states", ["zz1", "zz2", "zz3", "zz4"]),
        "cannot remove unknown state 'zz1'"),
    "undeclared marked states": (
        set_field("automata", 0, "marked", ["m1", "m2", "m3", "m4"]),
        "R1: marked state 'm1' not declared"),
}


class TestExitCodes:
    @pytest.mark.parametrize("edit,message", MALFORMED.values(), ids=MALFORMED)
    def test_malformed_document_exits_two(self, capsys, models_dir, tmp_path, edit, message):
        """A malformed field is a schema error naming it (an exception
        other than the model errors ``main`` catches would escape here)."""
        model = edited_line_model(models_dir, tmp_path, edit)
        assert run(capsys, "validate", str(model)) == (2, "", f"error: {message}\n")

    def test_solve_fixture_exits_zero(self, capsys, models_dir):
        code, out, _ = run(capsys, "solve", fixture_path(models_dir))
        assert code == 0
        assert "solvable: yes" in out

    def test_check_no_feedback_exits_one_with_witness(self, capsys, models_dir):
        code, out, _ = run(
            capsys, "check", fixture_path(models_dir, "production_line_no_ch21.json")
        )
        assert code == 1
        assert "NetJointObs" in out
        assert "mu =" in out and "nu =" in out

    def test_validate_minimal_exits_zero(self, capsys, models_dir):
        code, out, _ = run(capsys, "validate", fixture_path(models_dir, "minimal.json"))
        assert code == 0

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "solve", str(tmp_path / "nope.json"))
        assert code == 2
        assert "error:" in err

    def test_schema_error_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"automata": []}')
        code, _, err = run(capsys, "check", str(bad))
        assert code == 2

    def test_budget_overflow_exits_two(self, capsys, models_dir, monkeypatch):
        def overflow(*args, **kwargs):
            raise ResourceLimitError("twin product for supervisor 1 exceeds 5 states")

        monkeypatch.setattr(cli, "solve_control_problem", overflow)
        code, out, err = run(capsys, "solve", fixture_path(models_dir))
        assert code == 2
        assert out == ""
        assert err == "error: twin product for supervisor 1 exceeds 5 states\n"


    def test_synthesis_budget_overflow_exits_two(self, capsys, models_dir, monkeypatch):
        real = synthesis.closed_loop

        def small_budget(*args, **kwargs):
            return real(*args, **{**kwargs, "max_states": 5})

        monkeypatch.setattr(synthesis, "closed_loop", small_budget)
        code, out, err = run(capsys, "solve", fixture_path(models_dir))
        assert code == 2
        assert out == ""
        assert err == "error: closed loop exceeds 5 states\n"


    def test_composition_budget_overflow_exits_two(self, capsys, models_dir, tmp_path, monkeypatch):
        # the fixture's plant is the single automaton LINE; its components
        # R1 || R2 compose to 9 states
        doc = json.loads((models_dir / "production_line.json").read_text(encoding="utf-8"))
        doc["plant"] = "R1 || R2"
        doc["spec"] = {"remove_states": []}
        model = tmp_path / "free_line.json"
        model.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run(capsys, "compose", str(model))
        assert code == 0 and json.loads(out)["states"] == 9
        monkeypatch.setattr(automata, "MAX_STATES", 8)
        assert run(capsys, "compose", str(model)) == (2, "", "error: plant composition exceeds 8 states\n")

    def test_colliding_composition_names_exit_two(self, capsys, models_dir, tmp_path):
        # renaming R1's state 1 to "0,1" and R2's to "1,0" names both
        # ("0,1", "0") and ("0", "1,0") "(0,1,0)" in R1 || R2
        doc = json.loads((models_dir / "production_line.json").read_text(encoding="utf-8"))
        for name, new in (("R1", "0,1"), ("R2", "1,0")):
            auto = next(a for a in doc["automata"] if a["name"] == name)
            auto["states"] = [new if q == "1" else q for q in auto["states"]]
            for move in auto["transitions"]:
                move["from"], move["to"] = (new if q == "1" else q for q in (move["from"], move["to"]))
        doc["plant"] = "R1 || R2"
        doc["spec"] = {"remove_states": []}
        model = tmp_path / "comma_names.json"
        model.write_text(json.dumps(doc), encoding="utf-8")
        assert run(capsys, "compose", str(model)) == (
            2, "", "error: composing 'R1' and 'R2': state pairs ('0,1', '0') and ('0', '1,0')"
            " are both named '(0,1,0)'\n"
        )

    @pytest.mark.parametrize("argv", [
        ["check"],
        ["synthesize"],
        ["build-comm"],
        ["export-dot", "--target", "comm"],
        ["export-dot", "--target", "observer:1"],
        ["export-dot", "--target", "closed-loop"],
    ], ids=" ".join)
    def test_every_command_rejects_what_solve_rejects(self, capsys, models_dir, tmp_path, argv):
        model = dead_end_model(models_dir, tmp_path)
        solve = run(capsys, "solve", str(model))
        assert solve == (2, "", "error: plant violates timed assumption 2:"
                         " state 'dead' has no active event\n")
        assert run(capsys, argv[0], str(model), *argv[1:]) == solve

    def test_build_comm_automaton_rejects_what_solve_rejects(self, capsys, models_dir, tmp_path):
        """The Python API gate is the one the commands go through."""
        path = dead_end_model(models_dir, tmp_path)
        _, _, printed = run(capsys, "solve", str(path))
        model = load_model(path)
        with pytest.raises(ModelError) as excinfo:
            build_comm_automaton(model.plant, model.spec, model.network)
        assert printed == f"error: {excinfo.value}\n"


class TestJsonOutputs:
    def test_solve_json_shape(self, capsys, models_dir):
        code, out, _ = run(capsys, "solve", fixture_path(models_dir), "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["spec_version"] == 1
        assert payload["solvable"] is True
        assert [c["condition"] for c in payload["checks"]] == [
            "NetCtrl1", "NetJointObs", "LmClosure",
        ]
        assert all(c["holds"] for c in payload["checks"])
        assert payload["language_equal"] == {"generated": True, "marked": True}
        assert payload["spec_nonblocking"] is True
        sups = payload["supervisors"]
        assert [s["supervisor"] for s in sups] == [1, 2]
        assert sups[0]["obs_alphabet"][0] == "tick"
        assert set(sups[0]["obs_alphabet"]) == {"tick", "a1", "b1", "a2", "b2"}

    def test_check_json_carries_witness(self, capsys, models_dir):
        code, out, _ = run(
            capsys, "check",
            fixture_path(models_dir, "production_line_no_ch21.json"),
            "--format", "json",
        )
        payload = json.loads(out)
        assert code == 1
        obs = payload["checks"][1]
        assert obs["condition"] == "NetJointObs"
        assert not obs["holds"]
        w = obs["witness"]
        assert w["sigma"] == "a1" and w["supervisor"] == 1
        assert w["mu"] and w["nu"]

    def test_check_decides_a_long_delay_under_the_default_budget(self, capsys, models_dir, tmp_path):
        # delay bounds 1->2 = 14 and 2->1 = 1: 29,475 channel-augmented
        # states, whose twin product for supervisor 1 exceeds 500,000 pairs
        doc = json.loads((models_dir / "production_line.json").read_text())
        for channel in doc["network"]["channels"]:
            channel["delay_bound"] = {(1, 2): 14, (2, 1): 1}[(channel["from"], channel["to"])]
        model = tmp_path / "line-14-1.json"
        model.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", str(model), "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["all_hold"]

    def test_synthesize_emits_supervisors(self, capsys, models_dir):
        code, out, _ = run(capsys, "synthesize", fixture_path(models_dir))
        payload = json.loads(out)
        assert code == 0
        sup1 = payload["supervisors"][0]
        # every enable set lists events of supervisor 1 only
        for events in sup1["enable"].values():
            assert set(events) <= {"a1", "b1", "tick"}

    def test_build_comm_stats(self, capsys, models_dir):
        code, out, _ = run(capsys, "build-comm", fixture_path(models_dir))
        payload = json.loads(out)
        assert code == 0
        assert payload["states"] == 28
        assert payload["spec_states"] == 23
        assert payload["initial"] == "(0,ε,ε)"


    def test_diagnostic_language_witnesses(self, capsys, models_dir, tmp_path):
        """Delays 1->2 = 1 and 2->1 = 6 with --diagnostic: the synthesized
        set is admissible, but its closed loop differs from the
        specification; both BFS-shortest witnesses are pinned."""
        doc = json.loads((models_dir / "production_line.json").read_text())
        for channel in doc["network"]["channels"]:
            channel["delay_bound"] = {(1, 2): 1, (2, 1): 6}[(channel["from"], channel["to"])]
        path = tmp_path / "line_unsolvable.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "solve", str(path), "--format", "json", "--diagnostic")
        assert code == 1
        payload = json.loads(out)
        assert payload["admissibility"]["holds"]
        assert payload["sizes"]["closed_loop_states"] == 3408
        cycle = ["a1", "tick", "b1", "f12(a1)", "tick", "a2", "f12(b1)", "tick", "b2", "tick"]
        assert payload["language_equal"] == {
            "generated": False,
            "marked": False,
            "distinguishing_generated": cycle + ["a1"],
            "distinguishing_marked": cycle + cycle,
        }


class TestDeterminism:
    def test_solve_json_byte_identical(self, capsys, models_dir):
        _, first, _ = run(capsys, "solve", fixture_path(models_dir), "--format", "json")
        _, second, _ = run(capsys, "solve", fixture_path(models_dir), "--format", "json")
        assert first == second

    def test_export_dot_byte_identical(self, capsys, models_dir):
        _, first, _ = run(capsys, "export-dot", fixture_path(models_dir), "--target", "comm")
        _, second, _ = run(capsys, "export-dot", fixture_path(models_dir), "--target", "comm")
        assert first == second
        assert first.startswith("digraph {")
        assert "style=dashed" in first  # out-of-spec states are dashed
        assert "doublecircle" in first  # marked states

    def test_simulate_deterministic(self, capsys, models_dir):
        _, first, _ = run(
            capsys, "simulate", fixture_path(models_dir), "--seed", "5", "--steps", "30"
        )
        _, second, _ = run(
            capsys, "simulate", fixture_path(models_dir), "--seed", "5", "--steps", "30"
        )
        assert first == second
        assert "terminated: step-limit" in first


class TestHashSeed:
    """Outputs and error lines do not depend on Python's string hashing:
    each command runs under two hash seeds and prints the same bytes."""

    @pytest.mark.parametrize("argv,edit", [
        (["solve", "production_line_no_ch21.json", "--format", "json", "--diagnostic"], None),
        (["check", "production_line_no_ch21.json", "--format", "json"], None),
        (["export-dot", "production_line.json", "--target", "closed-loop"], None),
        (["build-comm", "production_line.json", "--dot", "-"], None),
        (["export-dot", "production_line.json", "--target", "comm"], None),
        (["validate"], MALFORMED["unknown removed states"][0]),
        (["validate"], MALFORMED["undeclared marked states"][0]),
    ], ids=["solve", "check", "export-dot", "build-comm", "export-dot-comm", "remove_states", "marked"])
    def test_same_bytes_under_two_hash_seeds(self, models_dir, tmp_path, argv, edit):
        if edit is None:
            argv = [argv[0], str(models_dir / argv[1]), *argv[2:]]
        else:
            argv = [*argv, str(edited_line_model(models_dir, tmp_path, edit))]
        outputs = []
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
            done = subprocess.run(
                [sys.executable, "-m", "netsup.cli", *argv], capture_output=True, env=env, timeout=120,
            )
            outputs.append((done.returncode, done.stdout, done.stderr))
        assert outputs[0] == outputs[1]
        assert b"Traceback" not in outputs[0][2]


class TestOracleCommand:
    def test_agreement_run_exits_zero(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "oracle", "--seed", "0", "--instances", "5", "--bound", "6",
            "--artifacts", str(tmp_path / "artifacts"),
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["agreements"] == 5
        assert payload["disagreements"] == []


class TestExports:
    def test_export_observer(self, capsys, models_dir):
        code, out, _ = run(
            capsys, "export-dot", fixture_path(models_dir), "--target", "observer:1"
        )
        assert code == 0
        assert out.startswith("digraph {")

    @pytest.mark.parametrize("index", ["0", "3", "-1", "x"])
    def test_export_observer_rejects_bad_index(self, capsys, models_dir, monkeypatch, index):
        """The fixture has two supervisors: any other index is a model error,
        reported before the channel-augmented automaton is built."""
        monkeypatch.setattr(cli, "build_comm_automaton", lambda *a, **k: pytest.fail("built the automaton"))
        code, out, err = run(
            capsys, "export-dot", fixture_path(models_dir), "--target", f"observer:{index}"
        )
        assert code == 2
        assert out == ""
        assert f"from 1 to 2, got {index!r}" in err

    @pytest.mark.parametrize("target", ["plant", "spec"])
    def test_export_timed_automaton(self, capsys, models_dir, target):
        # minimal.json's plant and specification are the same one-state loop
        assert run(capsys, "export-dot", fixture_path(models_dir, "minimal.json"), "--target", target) == (
            0,
            "digraph {\n"
            "  rankdir=LR;\n"
            '  n0 [label="q0" shape=doublecircle];\n'
            "  init [shape=point]; init -> n0;\n"
            '  n0 -> n0 [label="tick"];\n'
            "}\n",
            "",
        )

    def test_export_closed_loop(self, capsys, models_dir):
        # pinned byte for byte: state ids, labels (automaton state / observer
        # states), markings and edges
        code, out, _ = run(
            capsys, "export-dot", fixture_path(models_dir), "--target", "closed-loop"
        )
        assert code == 0
        assert out == (DATA / "production_line_closed_loop.dot").read_text(encoding="utf-8")

    def test_compose_reports_plant(self, capsys, models_dir):
        code, out, _ = run(capsys, "compose", fixture_path(models_dir))
        payload = json.loads(out)
        assert code == 0
        assert payload["states"] == 9

    def test_simulate_unsolvable_requires_diagnostic(self, capsys, models_dir):
        code, _, err = run(
            capsys, "simulate", fixture_path(models_dir, "production_line_no_ch21.json"),
            "--seed", "1", "--steps", "10",
        )
        assert code == 2
        code, out, _ = run(
            capsys, "simulate", fixture_path(models_dir, "production_line_no_ch21.json"),
            "--seed", "1", "--steps", "10", "--diagnostic",
        )
        assert code == 0


class TestCounts:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--steps", "-3"],
        ["oracle", "--instances", "-4"],
    ])
    def test_negative_count_exits_two(self, capsys, models_dir, argv, monkeypatch):
        monkeypatch.setattr(cli, "load_model", lambda *a: pytest.fail("ran the command"))
        monkeypatch.setattr(cli, "agreement_for_seed", lambda *a: pytest.fail("ran the command"))
        if argv[0] == "simulate":
            argv = argv + [fixture_path(models_dir)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: argument {argv[1]}: must be >= 0, got {argv[2]}" in captured.err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--steps", "0"],
        ["oracle", "--instances", "0"],
    ])
    def test_zero_count_is_accepted(self, capsys, models_dir, tmp_path, argv):
        if argv[0] == "simulate":
            argv = argv + [fixture_path(models_dir)]
        else:
            argv = argv + ["--artifacts", str(tmp_path / "artifacts")]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out

    @pytest.mark.parametrize("jobs", ["0", "-5"])
    def test_non_positive_jobs_exits_two(self, capsys, monkeypatch, jobs):
        monkeypatch.setattr(cli, "agreement_for_seed", lambda *a: pytest.fail("ran the command"))
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--jobs", jobs])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: argument --jobs: must be >= 1, got {jobs}" in captured.err

    @pytest.mark.parametrize("bound", ["0", "-3"])
    def test_non_positive_bound_exits_two(self, capsys, monkeypatch, bound):
        """Checked before any instance runs, so even ``--instances 0`` and
        worker pools reject it."""
        monkeypatch.setattr(cli, "agreement_for_seed", lambda *a: pytest.fail("ran the command"))
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--instances", "0", "--bound", bound])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: argument --bound: must be >= 1, got {bound}" in captured.err

    @pytest.mark.parametrize("flag", ["--jobs", "--instances", "--bound"])
    def test_non_integer_count_is_named_as_int(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", flag, "x"])
        assert exc.value.code == 2
        assert f"error: argument {flag}: invalid int value: 'x'" in capsys.readouterr().err


class TestParallelOracle:
    def test_jobs_flag_matches_serial_run(self, capsys, tmp_path):
        code_serial, out_serial, _ = run(
            capsys, "oracle", "--seed", "10", "--instances", "4", "--bound", "6",
            "--artifacts", str(tmp_path / "a"),
        )
        code_par, out_par, _ = run(
            capsys, "oracle", "--seed", "10", "--instances", "4", "--bound", "6",
            "--jobs", "2", "--artifacts", str(tmp_path / "b"),
        )
        assert code_serial == code_par == 0
        assert out_serial == out_par

    def test_jobs_capped_at_cpu_count(self, capsys, tmp_path, monkeypatch):
        """--jobs asks for at most one worker per CPU; an in-process stub
        stands in for the pool, so no process starts."""
        workers = []

        class InProcessPool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
        argv = ["oracle", "--instances", "2", "--bound", "4", "--jobs", "10000",
                "--artifacts", str(tmp_path)]
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        assert run(capsys, *argv)[0] == 0
        assert workers == [3]
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        assert run(capsys, *argv)[0] == 0
        assert workers == [3]  # an unknown CPU count runs serially


class TestFileOutputs:
    def test_output_flag_writes_file(self, capsys, models_dir, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "solve", fixture_path(models_dir), "--format", "json",
            "--output", str(target),
        )
        assert code == 0 and out == ""
        payload = json.loads(target.read_text())
        assert payload["solvable"] is True

    def test_build_comm_dot_sidecar(self, capsys, models_dir, tmp_path):
        dot_file = tmp_path / "comm.dot"
        code, out, _ = run(
            capsys, "build-comm", fixture_path(models_dir), "--dot", str(dot_file)
        )
        assert code == 0
        assert dot_file.read_text().startswith("digraph {")
