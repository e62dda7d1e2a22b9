"""Model document parsing, validation errors, and round-tripping."""

import json

import pytest

from netsup.errors import DeterminismError, SchemaError, UnknownNameError
from netsup.modelio import dump_json, model_to_dict, parse_model
from netsup.network import ChannelLink, NetworkConfig


def minimal_doc():
    return {
        "automata": [
            {
                "name": "M",
                "states": ["q0"],
                "initial": "q0",
                "marked": ["q0"],
                "alphabet": ["tick"],
                "transitions": [{"from": "q0", "event": "tick", "to": "q0"}],
            }
        ],
        "network": {
            "n": 1,
            "supervisors": [
                {"alphabet": ["tick"], "controllable": ["tick"], "observable": ["tick"]}
            ],
            "enforceable": [],
            "com": [[0]],
            "channels": [],
        },
        "plant": "M",
        "spec": {"remove_states": []},
    }


def test_minimal_document_parses():
    model = parse_model(minimal_doc())
    assert model.plant.states == ("q0",)
    assert model.spec.states == ("q0",)
    assert "marked" not in model_to_dict(model.plant, model.spec, model.network)["spec"]


def test_parse_accepts_json_text():
    model = parse_model(json.dumps(minimal_doc()))
    assert model.network.n == 1


def test_alphabet_disjointness_error():
    doc = minimal_doc()
    doc["network"] = {
        "n": 2,
        "supervisors": [
            {"alphabet": ["tick", "a"], "controllable": [], "observable": ["tick"]},
            {"alphabet": ["tick", "a"], "controllable": [], "observable": ["tick"]},
        ],
        "enforceable": [],
        "com": [[0, 0], [0, 0]],
        "channels": [],
    }
    with pytest.raises(SchemaError, match="share events"):
        parse_model(doc)


def test_duplicate_transition_is_determinism_error():
    doc = minimal_doc()
    doc["automata"][0]["transitions"].append({"from": "q0", "event": "tick", "to": "q0"})
    with pytest.raises(DeterminismError):
        parse_model(doc)


def test_unknown_event_reference():
    doc = minimal_doc()
    doc["automata"][0]["transitions"].append({"from": "q0", "event": "ghost", "to": "q0"})
    with pytest.raises(UnknownNameError):
        parse_model(doc)


def test_tick_in_channel_events_is_schema_error():
    doc = minimal_doc()
    doc["network"] = {
        "n": 2,
        "supervisors": [
            {"alphabet": ["tick", "a"], "controllable": [], "observable": ["tick", "a"]},
            {"alphabet": ["tick", "b"], "controllable": [], "observable": ["tick"]},
        ],
        "enforceable": [],
        "com": [[0, 1], [0, 0]],
        "channels": [
            {"from": 1, "to": 2, "events": ["tick"], "lossy": [], "delay_bound": 1}
        ],
    }
    with pytest.raises(SchemaError, match="never communicated"):
        parse_model(doc)


def test_channel_requires_com_entry():
    doc = minimal_doc()
    doc["network"] = {
        "n": 2,
        "supervisors": [
            {"alphabet": ["tick", "a"], "controllable": [], "observable": ["tick", "a"]},
            {"alphabet": ["tick", "b"], "controllable": [], "observable": ["tick"]},
        ],
        "enforceable": [],
        "com": [[0, 0], [0, 0]],
        "channels": [
            {"from": 1, "to": 2, "events": ["a"], "lossy": [], "delay_bound": 1}
        ],
    }
    with pytest.raises(SchemaError, match="com matrix entry is 0"):
        parse_model(doc)


def line_doc(models_dir):
    return json.loads((models_dir / "production_line.json").read_text(encoding="utf-8"))


def test_boolean_count_is_schema_error():
    # true == 1, so the one-supervisor document would otherwise parse
    doc = minimal_doc()
    doc["network"]["n"] = True
    with pytest.raises(SchemaError, match="network: field 'n' has the wrong type"):
        parse_model(doc)


@pytest.mark.parametrize("field", ["from", "to", "delay_bound"])
def test_boolean_channel_field_is_schema_error(models_dir, field):
    doc = line_doc(models_dir)
    # a channel where the field is 1, so true would read as the same value
    channel = next(c for c in doc["network"]["channels"] if c[field] == 1)
    channel[field] = True
    with pytest.raises(SchemaError, match=f"channel: field '{field}' has the wrong type"):
        parse_model(doc)


@pytest.mark.parametrize("entry", ["no", 2, -1, True, 1.0, None, [1]])
def test_com_entry_other_than_zero_or_one_is_schema_error(models_dir, entry):
    doc = line_doc(models_dir)
    com = doc["network"]["com"]
    i, j = next((i, j) for i, row in enumerate(com) for j, x in enumerate(row) if x == 1)
    com[i][j] = entry
    with pytest.raises(SchemaError, match="network: com entries must be 0 or 1"):
        parse_model(doc)


def test_channel_events_must_be_sender_observable():
    doc = minimal_doc()
    doc["network"] = {
        "n": 2,
        "supervisors": [
            {"alphabet": ["tick", "a"], "controllable": [], "observable": ["tick"]},
            {"alphabet": ["tick", "b"], "controllable": [], "observable": ["tick"]},
        ],
        "enforceable": [],
        "com": [[0, 1], [0, 0]],
        "channels": [
            {"from": 1, "to": 2, "events": ["a"], "lossy": [], "delay_bound": 1}
        ],
    }
    with pytest.raises(SchemaError, match="observable to supervisor"):
        parse_model(doc)


@pytest.mark.parametrize("changes,message", [
    ({"alphabets": [["a", "tick"]]}, "network: per-supervisor lists must have length n"),
    ({"channels": {(0, 2): ChannelLink(frozenset(["a"]), frozenset(), 1)}}, "channel (1,3): index out of range"),
    ({"channels": {(0, 0): ChannelLink(frozenset(["a"]), frozenset(), 1)}},
     "channel (1,1): a supervisor has no channel to itself"),
], ids=["list length", "channel index", "self channel"])
def test_network_build_rejects_what_no_file_can_hold(changes, message):
    """``_parse_network`` rejects these shapes before ``NetworkConfig.build``
    sees them, so only a Python caller reaches its own checks."""
    args = {
        "n": 2,
        "alphabets": [["a", "tick"], ["b", "tick"]],
        "controllable": [["a"], ["b"]],
        "observable": [["a", "tick"], ["b", "tick"]],
        "enforceable": [],
        "channels": {(0, 1): ChannelLink(frozenset(["a"]), frozenset(), 1)},
        **changes,
    }
    with pytest.raises(SchemaError) as excinfo:
        NetworkConfig.build(**args)
    assert str(excinfo.value) == message


def test_fixture_document_shape(line_model):
    r1 = next(a for a in line_model.automata if a.name == "R1")
    r2 = next(a for a in line_model.automata if a.name == "R2")
    assert len(r1.states) == len(r2.states) == 3
    assert r1.alphabet == {"a1", "b1", "tick"}
    assert r2.alphabet == {"a2", "b2", "tick"}
    assert line_model.network.channels[(0, 1)].events == {"a1", "b1"}
    assert line_model.network.channels[(1, 0)].lossy == {"b2"}


def test_spec_cannot_remove_initial_state(line_model):
    doc = minimal_doc()
    doc["spec"] = {"remove_states": ["q0"]}
    with pytest.raises(SchemaError, match="initial"):
        parse_model(doc)


def test_plant_composition_expression():
    doc = minimal_doc()
    doc["automata"] = [
        {
            "name": "A",
            "states": ["0"],
            "initial": "0",
            "marked": ["0"],
            "alphabet": ["tick", "a"],
            "transitions": [
                {"from": "0", "event": "tick", "to": "0"},
                {"from": "0", "event": "a", "to": "0"},
            ],
        },
        {
            "name": "B",
            "states": ["0"],
            "initial": "0",
            "marked": ["0"],
            "alphabet": ["tick", "b"],
            "transitions": [{"from": "0", "event": "tick", "to": "0"}],
        },
    ]
    doc["network"] = {
        "n": 2,
        "supervisors": [
            {"alphabet": ["tick", "a"], "controllable": ["a"], "observable": ["tick", "a"]},
            {"alphabet": ["tick", "b"], "controllable": [], "observable": ["tick"]},
        ],
        "enforceable": [],
        "com": [[0, 0], [0, 0]],
        "channels": [],
    }
    doc["plant"] = "A||B"
    # condition 1 forbids the non-tick self-loop on a; parsing itself succeeds
    model = parse_model(doc)
    assert model.plant.states == ("(0,0)",)
    assert model.plant.alphabet == {"tick", "a", "b"}


def test_marking_override_must_be_subset():
    doc = minimal_doc()
    doc["automata"][0]["states"] = ["q0", "q1"]
    doc["automata"][0]["marked"] = ["q0"]
    doc["automata"][0]["transitions"] = [
        {"from": "q0", "event": "tick", "to": "q1"},
        {"from": "q1", "event": "tick", "to": "q0"},
    ]
    doc["spec"] = {"remove_states": [], "marked": ["q1"]}
    with pytest.raises(SchemaError, match="subset of the inherited"):
        parse_model(doc)
    doc["spec"] = {"remove_states": [], "marked": []}
    model = parse_model(doc)
    assert model_to_dict(model.plant, model.spec, model.network)["spec"]["marked"] == []
    assert model.spec.marked == frozenset()


def test_explicit_spec_automaton_must_be_induced(line_model):
    doc = json.loads(dump_json(model_to_dict(line_model.plant, line_model.spec, line_model.network)))
    # replace remove_states form with an explicit automaton missing one induced transition
    from netsup.modelio import automaton_to_dict

    explicit = automaton_to_dict(line_model.spec)
    explicit["transitions"] = [
        t for t in explicit["transitions"] if not (t["from"] == "0" and t["event"] == "a1")
    ]
    doc["spec"] = explicit
    with pytest.raises(SchemaError, match="restricted to the retained states"):
        parse_model(doc)


def test_model_roundtrip(line_model):
    doc = model_to_dict(line_model.plant, line_model.spec, line_model.network)
    again = parse_model(doc)
    assert again.plant == line_model.plant
    assert set(again.spec.states) == set(line_model.spec.states)
    assert again.network.channels == line_model.network.channels
