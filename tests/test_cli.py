"""Command-line interface: exit codes, artifact shapes, determinism."""

import concurrent.futures
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from netsup import automata, build_comm_automaton, cli, load_model, synthesis, verification
from netsup.cli import main
from netsup.comm import CommAutomaton
from netsup.modelio import dump_json, model_to_dict
from netsup.randgen import random_instance
from netsup.errors import ModelError, ResourceLimitError

DATA = Path(__file__).resolve().parent / "data"
SRC = Path(cli.__file__).resolve().parent.parent
QUOTED = re.compile(r'"((?:[^"\\]|\\.)*)"')  # a DOT quoted string, escapes kept
NODE = re.compile(r"^  n\d+ \[", re.MULTILINE)  # a DOT node line


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fixture_path(models_dir, name="production_line.json"):
    return str(models_dir / name)


def spy_budgets(monkeypatch, owner, name):
    """Put a spy in place of ``owner.name``; the list it returns gets the
    ``max_states`` keyword of every call."""
    budgets = []
    real = getattr(owner, name)

    def spy(*args, **kwargs):
        budgets.append(kwargs["max_states"])
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return budgets


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


def line_automaton(doc):
    return next(a for a in doc["automata"] if a["name"] == "LINE")


# each minimally broken model and the one error line `check` prints for it:
# an edit of production_line.json, or the whole text of the file
BROKEN = {
    "not JSON": (
        "{",
        "invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    "not an object": ("[]", "model document must be a JSON object"),
    # deeper than the JSON decoder's recursion limit
    "deeply nested": ("[" * 200_000 + "]" * 200_000, "invalid JSON: nested too deeply"),
    "automaton entry": (
        set_field("automata", 0, 5),
        "automaton entry must be an object"),
    "transition entry": (
        set_field("automata", 0, "transitions", 0, "tick"),
        "automaton 'R1': transition entries must be objects"),
    "duplicate state": (
        set_field("automata", 0, "states", ["0", "1", "2", "1"]),
        "R1: duplicate state names"),
    "automaton without tick": (
        set_field("automata", 0, "alphabet", ["a1", "b1"]),
        "R1: alphabet must contain 'tick'"),
    "undeclared initial": (
        set_field("automata", 0, "initial", "9"),
        "R1: initial state '9' not declared"),
    "transition from unknown state": (
        set_field("automata", 0, "transitions", 0, "from", "9"),
        "R1: transition from unknown state '9'"),
    "duplicate automaton": (
        set_field("automata", 1, "name", "R1"),
        "duplicate automaton name 'R1'"),
    "supervisor count": (
        set_field("network", "n", 3),
        "network: expected 3 supervisor entries"),
    "channel index": (
        set_field("network", "channels", 0, "from", 3),
        "channel (3,2): supervisor index out of range"),
    "channel declared twice": (
        lambda doc: doc["network"]["channels"].append(doc["network"]["channels"][0]),
        "channel (1,2): declared twice"),
    "com rows": (
        set_field("network", "com", [[0, 1]]),
        "network: com matrix must be n x n"),
    "supervisor without tick": (
        set_field("network", "supervisors", 0, "alphabet", ["a1", "b1"]),
        "supervisor 1: alphabet must contain 'tick'"),
    "controllable outside alphabet": (
        set_field("network", "supervisors", 0, "controllable", ["a1", "a2", "tick"]),
        "supervisor 1: controllable set not within alphabet"),
    "observable outside alphabet": (
        set_field("network", "supervisors", 0, "observable", ["a1", "b1", "a2", "tick"]),
        "supervisor 1: observable set not within alphabet"),
    "tick unobservable": (
        set_field("network", "supervisors", 0, "observable", ["a1", "b1"]),
        "supervisor 1: 'tick' must be observable"),
    "self communication": (
        set_field("network", "com", [[1, 1], [1, 0]]),
        "com[1][1] must be 0"),
    "undeclared enforceable": (
        set_field("network", "enforceable", ["zz"]),
        "enforceable events must be declared non-tick events"),
    "lossy not carried": (
        set_field("network", "channels", 0, "lossy", ["a1", "zz"]),
        "channel (1,2): lossy events must be carried"),
    "negative delay bound": (
        set_field("network", "channels", 0, "delay_bound", -1),
        "channel (1,2): delay bound must be >= 0"),
    "undeclared channel": (
        lambda doc: doc["network"]["channels"].pop(),
        "com[2][1] is 1 but no channel is declared"),
    "unknown plant component": (
        set_field("plant", "LINE || R3"),
        "plant expression references unknown automaton 'R3'"),
    "plant event of no supervisor": (
        lambda doc: line_automaton(doc)["alphabet"].append("zz"),
        "plant events ['zz'] belong to no supervisor alphabet"),
    "spec of wrong type": (
        set_field("spec", 5),
        "spec must be an object ({'remove_states': [...]} or an automaton)"),
    "spec initial state": (
        lambda doc: doc.update(spec={**line_automaton(doc), "initial": "1"}),
        "spec: initial state must match the plant's"),
}


class TestExitCodes:
    @pytest.mark.parametrize("edit,message", BROKEN.values(), ids=BROKEN)
    def test_broken_model_check_exits_two(self, capsys, models_dir, tmp_path, edit, message):
        """Every malformed-model path is a model error that names the
        defect, so ``check`` exits 2 with that one line."""
        if isinstance(edit, str):
            model = tmp_path / "broken.json"
            model.write_text(edit, encoding="utf-8")
        else:
            model = edited_line_model(models_dir, tmp_path, edit)
        assert run(capsys, "check", str(model), "--format", "json") == (2, "", f"error: {message}\n")

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
        # `solve` walks the loop with exact_loop_states, and builds it with
        # closed_loop only where the languages differ
        for name in ("closed_loop", "exact_loop_states"):
            def small_budget(*args, _real=getattr(synthesis, name), **kwargs):
                return _real(*args, **{**kwargs, "max_states": 5})

            monkeypatch.setattr(synthesis, name, small_budget)
        code, out, err = run(capsys, "solve", fixture_path(models_dir))
        assert code == 2
        assert out == ""
        assert err == "error: closed loop exceeds 5 states\n"

    def test_out_of_memory_exits_two(self, capsys, models_dir, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "solve_control_problem", exhausted)
        code, out, err = run(capsys, "solve", fixture_path(models_dir))
        assert (code, out, err) == (2, "", "error: out of memory\n")

    def test_max_states_below_the_loop_names_the_closed_loop(self, capsys, models_dir, tmp_path):
        # delays 6/1: 419 automaton states, observers of 236 and 158, and a
        # closed loop of 4,716 states
        code, out, err = run(capsys, "solve", line_file(models_dir, tmp_path, 6, 1), "--max-states", "4000")
        assert (code, out, err) == (2, "", "error: closed loop exceeds 4000 states\n")

    @pytest.mark.parametrize("command", ["check", "synthesize", "solve"])
    def test_max_states_bounds_the_automaton(self, capsys, models_dir, command):
        code, out, err = run(capsys, command, fixture_path(models_dir), "--max-states", "10")
        assert (code, out, err) == (2, "", "error: channel-augmented automaton exceeds 10 states\n")

    @pytest.mark.parametrize("command,stage", [
        ("check", "check_network_joint_observability"),
        ("synthesize", "synthesize_supervisor"),
        ("solve", "solve_control_problem"),
        ("check", "build_comm_automaton"),
        ("synthesize", "build_comm_automaton"),
        ("synthesize", "check_network_joint_observability"),
        ("solve", "build_comm_automaton"),
    ])
    def test_max_states_reaches_every_stage(self, capsys, models_dir, monkeypatch, command, stage):
        # each stage is spied on where its caller looks it up: the commands
        # call synthesis.decide, which builds the automaton with
        # comm.build_problem_automaton, imported into synthesis, and calls
        # verification.existence_checks
        owner, name = {
            "build_comm_automaton": (synthesis, "build_problem_automaton"),
            "check_network_joint_observability": (verification, stage),
        }.get(stage, (cli, stage))
        budgets = spy_budgets(monkeypatch, owner, name)
        code, _, _ = run(capsys, command, fixture_path(models_dir), "--max-states", "1234")
        assert code == 0 and budgets and set(budgets) == {1234}

    @pytest.mark.parametrize("argv,owner,name", [
        (["build-comm"], cli, "build_problem_automaton"),
        (["simulate"], cli, "closed_loop"),
        (["simulate"], cli, "decide"),
        (["simulate"], cli, "synthesize_supervisor"),
        (["export-dot", "--target", "closed-loop"], cli, "closed_loop"),
        (["export-dot", "--target", "closed-loop"], cli, "decide"),
        (["export-dot", "--target", "closed-loop"], cli, "synthesize_supervisor"),
        (["export-dot", "--target", "comm"], cli, "build_problem_automaton"),
        (["export-dot", "--target", "observer:2"], cli, "build_problem_automaton"),
        (["export-dot", "--target", "observer:2"], CommAutomaton, "observer"),
    ], ids=[
        "build-comm", "simulate", "simulate-decide", "simulate-synthesis", "closed-loop", "closed-loop-decide",
        "closed-loop-synthesis", "comm", "observer-automaton", "observer",
    ])
    def test_max_states_reaches_every_construction(self, capsys, models_dir, monkeypatch, argv, owner, name):
        """``build-comm``, ``simulate`` and ``export-dot`` pass their budget
        to each construction they run."""
        budgets = spy_budgets(monkeypatch, owner, name)
        code, _, _ = run(capsys, argv[0], fixture_path(models_dir), *argv[1:], "--max-states", "1234")
        assert code == 0 and budgets and set(budgets) == {1234}

    @pytest.mark.parametrize("argv", [["simulate"], ["export-dot", "--target", "closed-loop"]],
                             ids=["simulate", "closed-loop"])
    def test_a_printed_loop_is_not_verified(self, capsys, models_dir, monkeypatch, argv):
        """``simulate`` and the closed-loop drawing build the loop they
        print, and run neither the pass, the admissibility check nor the
        language comparison."""
        called = []
        for name in ("exact_loop_states", "check_admissibility", "language_equal"):
            def spy(*args, _real=getattr(synthesis, name), _name=name, **kwargs):
                called.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(synthesis, name, spy)
        code, out, _ = run(capsys, argv[0], fixture_path(models_dir), *argv[1:])
        assert code == 0 and out and called == []

    @pytest.mark.parametrize("argv", [
        ["build-comm"], ["simulate"], ["export-dot"], ["export-dot", "--target", "closed-loop"],
        ["export-dot", "--target", "observer:1"],
    ], ids=["build-comm", "simulate", "comm", "closed-loop", "observer"])
    def test_max_states_bounds_the_automaton_of_every_command(self, capsys, models_dir, argv):
        code, out, err = run(capsys, argv[0], fixture_path(models_dir), *argv[1:], "--max-states", "10")
        assert (code, out, err) == (2, "", "error: channel-augmented automaton exceeds 10 states\n")

    @pytest.mark.parametrize("command", ["check", "synthesize", "solve", "build-comm", "simulate", "export-dot"])
    def test_default_max_states_changes_no_byte(self, capsys, models_dir, command):
        default = run(capsys, command, fixture_path(models_dir))
        assert run(capsys, command, fixture_path(models_dir), "--max-states", "500000") == default


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

    def test_spec_state_the_plant_cannot_reach_is_trimmed(self, capsys, models_dir, tmp_path):
        """A plant state no run reaches, kept by the specification, leaves
        the problem before the subautomaton check: the problem solves, on
        the automaton built with that state removed from the specification."""
        def edit(doc):
            line = line_automaton(doc)
            line["states"].append("limbo")
            line["transitions"] += [
                {"from": "limbo", "event": "tick", "to": "limbo"},
                {"from": "limbo", "event": "a1", "to": "0"},
            ]

        path = edited_line_model(models_dir, tmp_path, edit)
        assert run(capsys, "solve", str(path))[0] == 0
        model = load_model(path)
        assert "limbo" in model.spec.states
        trimmed = automata.remove_states(model.spec, ["limbo"])
        comm = build_comm_automaton(model.plant, model.spec, model.network)
        assert comm == build_comm_automaton(model.plant, trimmed, model.network)
        line = load_model(fixture_path(models_dir))
        assert comm.keys == build_comm_automaton(line.plant, line.spec, line.network).keys

    def test_build_comm_automaton_rejects_what_solve_rejects(self, capsys, models_dir, tmp_path):
        """The Python API gate is the one the commands go through."""
        path = dead_end_model(models_dir, tmp_path)
        _, _, printed = run(capsys, "solve", str(path))
        model = load_model(path)
        with pytest.raises(ModelError) as excinfo:
            build_comm_automaton(model.plant, model.spec, model.network)
        assert printed == f"error: {excinfo.value}\n"


def empty_k_file(models_dir, tmp_path):
    """production_line.json with a specification that marks no state, so
    its marked language ``K`` is empty."""
    return str(edited_line_model(models_dir, tmp_path, set_field("spec", "marked", [])))


class TestOneDecisionPath:
    """``check``, ``solve`` and ``synthesize`` decide through
    ``synthesis.decide``: one verdict tuple, trimmed specification and all."""

    def decision_files(self, models_dir, tmp_path):
        files = [fixture_path(models_dir, name) for name in (
            "minimal.json", "production_line.json", "production_line_no_ch21.json")]
        files.append(empty_k_file(models_dir, tmp_path))
        for seed in range(20):
            inst = random_instance(seed)
            path = tmp_path / f"seed_{seed}.json"
            path.write_text(dump_json(model_to_dict(inst.plant, inst.spec, inst.net)), encoding="utf-8")
            files.append(str(path))
        return files

    def test_check_and_solve_report_the_same_verdicts(self, capsys, models_dir, tmp_path):
        codes = set()
        for path in self.decision_files(models_dir, tmp_path):
            check_code, check_out, _ = run(capsys, "check", path, "--format", "json")
            solve_code, solve_out, _ = run(capsys, "solve", path, "--format", "json")
            assert json.loads(check_out)["checks"] == json.loads(solve_out)["checks"], path
            assert check_code == solve_code, path
            codes.add(check_code)
        assert codes == {0, 1}

    @pytest.mark.parametrize("command", ["check", "solve"])
    def test_empty_marked_language_fails_nonblocking(self, capsys, models_dir, tmp_path, command):
        path = empty_k_file(models_dir, tmp_path)
        code, out, _ = run(capsys, command, path, "--format", "json")
        assert code == 1
        assert json.loads(out)["checks"][-1] == {
            "condition": "Nonblocking", "holds": False, "witness": {"mu": []}
        }
        code, out, _ = run(capsys, command, path)
        assert code == 1 and "nonblocking: FAILS (Nonblocking)\n" in out

    def test_synthesize_refuses_an_unsolvable_problem(self, capsys, models_dir):
        assert run(capsys, "synthesize", fixture_path(models_dir, "production_line_no_ch21.json")) == (
            2, "", "error: problem unsolvable; `netsup solve --diagnostic --format json`"
            " lists diagnostic supervisors\n",
        )

    def test_build_comm_and_export_dot_draw_what_solve_decides(self, capsys, tmp_path):
        """``build-comm`` and ``export-dot`` build the automaton ``solve``
        decides on, over seeds 0-99: the untrimmed build counted 19
        specification states for seed 12's 9, and drew 9 nodes for seed
        17's 6-state observer 1."""
        for seed in range(100):
            inst = random_instance(seed)
            path = tmp_path / f"seed_{seed}.json"
            path.write_text(dump_json(model_to_dict(inst.plant, inst.spec, inst.net)), encoding="utf-8")
            sizes = json.loads(run(capsys, "solve", str(path), "--diagnostic", "--format", "json")[1])["sizes"]
            built = json.loads(run(capsys, "build-comm", str(path))[1])
            assert (built["states"], built["spec_states"]) == (sizes["comm_states"], sizes["spec_states"]), seed
            for i in range(1, inst.net.n + 1):
                code, dot, _ = run(capsys, "export-dot", str(path), "--target", f"observer:{i}")
                assert code == 0 and len(NODE.findall(dot)) == sizes[f"observer_{i}_states"], (seed, i)
            if seed in {12, 17}:
                assert sizes["spec_states"] == {12: 9, 17: 1}[seed]
        assert len(NODE.findall(run(capsys, "export-dot", str(DATA / "random_seed_17.json"),
                                    "--target", "observer:1")[1])) == 6

    def test_seed_17_model_file_is_the_generated_instance(self):
        inst = random_instance(17)
        expected = dump_json(model_to_dict(inst.plant, inst.spec, inst.net))
        assert (DATA / "random_seed_17.json").read_text(encoding="utf-8") == expected

    def test_subautomaton_defect_in_a_blocking_state_exits_two(self, capsys, models_dir, tmp_path, line_model):
        """State 8 of the line plant reaches no marked state; a specification
        that keeps it without its tick move is rejected before any trim."""

        def edit(doc):
            spec = {**line_automaton(doc), "name": "spec"}
            spec["transitions"] = [m for m in spec["transitions"] if m["from"] != "8"]
            doc["spec"] = spec

        path = str(edited_line_model(models_dir, tmp_path, edit))
        defect = "transitions at state '8' must be exactly the plant's, restricted to the retained states"
        for command in ("check", "synthesize", "solve"):
            assert run(capsys, command, path) == (2, "", f"error: spec: {defect}\n")
        rows = {q: dict(line_model.plant.transitions[q]) for q in line_model.plant.states}
        rows["8"] = {}
        spec = dataclasses.replace(line_model.plant, name="spec", transitions=rows)
        with pytest.raises(ModelError, match=re.escape(f"'spec' is not a subautomaton of 'LINE': {defect}")):
            synthesis.decide(line_model.plant, spec, line_model.network)


class TestJsonOutputs:
    def test_validate_json(self, capsys, models_dir, tmp_path):
        """A valid model, and one whose plant breaks timed assumption 2."""
        head = '{\n  "spec_version": 1,\n  '
        assert run(capsys, "validate", fixture_path(models_dir, "minimal.json"), "--format", "json") == (
            0, head + '"valid": true,\n  "condition": null,\n  "message": ""\n}\n', ""
        )
        assert run(capsys, "validate", str(dead_end_model(models_dir, tmp_path)), "--format", "json") == (
            1, head + '"valid": false,\n  "condition": 2,\n  "message": "state \'dead\' has no active event"\n}\n', ""
        )

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


def line_file(models_dir, tmp_path, out, back):
    """production_line.json with delay bounds 1->2 = ``out`` and 2->1 =
    ``back``, written to a file."""
    doc = json.loads((models_dir / "production_line.json").read_text(encoding="utf-8"))
    for channel in doc["network"]["channels"]:
        channel["delay_bound"] = {(1, 2): out, (2, 1): back}[(channel["from"], channel["to"])]
    path = tmp_path / f"line_{out}_{back}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestOutputPins:
    """Exit code and sha256 of the output of each command, so that a faster
    pipeline cannot change a byte of it."""

    @pytest.mark.parametrize("model,delays,argv,expected", [
        ("minimal.json", None, ["solve", "--format", "json"],
         (0, "4f3d2c86b974283191e706c29843859acb67291961a4c53f4bbd7611150bd65e")),
        ("production_line.json", None, ["solve", "--format", "json"],
         (0, "b7043dafaa7fe30459550d3305186d9583921c89b98cfbd3a8de1e7b80d18beb")),
        ("production_line_no_ch21.json", None, ["solve", "--format", "json"],
         (1, "974a8ed1b99caa0ca7746748a748424623cfed38e42eecdd3a6d981e274f6030")),
        (None, (6, 1), ["solve", "--format", "json"],
         (0, "dfeaf10d15ceaaf638a2b989e7fb51ad819c61c26b8721e335be50f3375e1f9f")),
        (None, (1, 6), ["solve", "--format", "json", "--diagnostic"],
         (1, "3fc5c52f201f98968210d60ce73416562728875b6d692c926d3d0fb814b1a80a")),
        (None, (1, 6), ["export-dot", "--target", "closed-loop"],
         (0, "9dd58acdfbd008324d22bbc950a43a915db290c299dc41c70f6972b157f0050d")),
        ("production_line.json", None, ["simulate", "--seed", "5", "--steps", "300"],
         (0, "ff2278818c05eef7a8fa07e941511a56a5a4cec79d3622d19c4b3d01d8d74a2c")),
        ("production_line_no_ch21.json", None, ["simulate", "--seed", "5", "--steps", "300", "--diagnostic"],
         (0, "27020d4849ae4947cd7708a3fce00b6b8cd385462089fc02b9fa5f2844d1b845")),
        ("production_line.json", None, ["export-dot", "--target", "plant"],
         (0, "696e03b586ee7f2e111918c76cca571cf741492158f27f71cb2aaf335718db06")),
        ("production_line.json", None, ["export-dot", "--target", "spec"],
         (0, "4a2dbb327a9acda2051c57113160d699010d611f0eb471dc520b6c4c635e2bae")),
        ("production_line.json", None, ["export-dot", "--target", "comm"],
         (0, "d1e1ceb5590d6698fd4a600f725bfddde00f7060ed0d43d8b3d2009791cab66e")),
        ("production_line.json", None, ["export-dot", "--target", "observer:1"],
         (0, "f7e4143b29332b8c7569986488d826b02bc41b262f16812e6c35904ded25a96f")),
        ("production_line.json", None, ["export-dot", "--target", "observer:2"],
         (0, "061a12add80b5d7f0bce796bce33d049d062cb45d016de84ac69051c36a839fd")),
        (None, (1, 6), ["export-dot", "--target", "observer:2"],
         (0, "8fadbb30a3f310eb78b2ce7178679bf41867fc175ad5122fb0d508ed8cd04567")),
        ("production_line.json", None, ["build-comm", "--dot", "-"],
         (0, "9e33554bbd71a2fd4da62b3bc6361c0895673e8783240d739c17d6615a9e329e")),
        ("minimal.json", None, ["validate", "--format", "json"],
         (0, "f58b96ad82aee4a4d85db7917dc6f101a92d2827ab86453ae7d084e3ac69ce00")),
        ("production_line_no_ch21.json", None, ["check", "--format", "text"],
         (1, "d2282316950c3b36d96dc2c9971ba874c8827a499090edf9e23faa3817f81c86")),
        (None, None, ["oracle", "--instances", "20", "--bound", "6"],
         (0, "ae43617f5a9759a52361360a58d5ee796c46a87493e840487fd33a9fddbe617a")),
    ], ids=[
        "minimal", "line", "no_ch21", "line-6/1", "line-1/6-diagnostic", "line-1/6-closed-loop",
        "line-simulate", "no_ch21-simulate-diagnostic", "line-dot-plant", "line-dot-spec",
        "line-dot-comm", "line-dot-observer-1", "line-dot-observer-2", "line-1/6-dot-observer-2",
        "line-build-comm-dot", "minimal-validate", "no_ch21-check-text", "oracle",
    ])
    def test_output_bytes(self, capsys, models_dir, tmp_path, model, delays, argv, expected):
        if model:
            argv = [argv[0], fixture_path(models_dir, model), *argv[1:]]
        elif delays:
            argv = [argv[0], line_file(models_dir, tmp_path, *delays), *argv[1:]]
        code, out, _ = run(capsys, *argv)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == expected


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
        monkeypatch.setattr(cli, "build_problem_automaton", lambda *a, **k: pytest.fail("built the automaton"))
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

    @pytest.mark.parametrize("target", ["plant", "spec", "comm", "observer:1", "closed-loop"])
    def test_backslash_in_a_state_name_is_escaped(self, capsys, models_dir, tmp_path, target):
        """minimal.json with its state named ``q0\\``: every quoted DOT
        string ends where it should, and its label reads the name back."""
        path = tmp_path / "backslash.json"
        path.write_text(
            (models_dir / "minimal.json").read_text(encoding="utf-8").replace('"q0"', '"q0\\\\"'),
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "export-dot", str(path), "--target", target)
        assert code == 0
        labels = []
        for line in out.splitlines():
            assert '"' not in QUOTED.sub("", line), line
            labels += [re.sub(r"\\(.)", r"\1", text) for text in QUOTED.findall(line)]
        assert any("q0\\" in label for label in labels), labels


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

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        argv = ["oracle", "--instances", "2", "--bound", "4", "--jobs", "10000",
                "--artifacts", str(tmp_path)]
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        assert run(capsys, *argv)[0] == 0
        assert workers == [3]
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        assert run(capsys, *argv)[0] == 0
        assert workers == [3]  # an unknown CPU count runs serially

    def test_cli_import_leaves_the_pool_unloaded(self):
        """Only ``oracle --jobs N`` with N > 1 needs the process pool, so
        importing the CLI in a fresh interpreter does not load it."""
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run(
            [sys.executable, "-c", "import sys, netsup.cli; print('concurrent.futures' in sys.modules)"],
            capture_output=True, env=env, timeout=120, text=True,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\n"


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
