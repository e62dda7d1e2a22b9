"""Model documents: parsing, validation and serialization.

One JSON document declares named automata, the supervisor network, which
automaton (or composition expression, e.g. ``"A||B"``) is the plant, and the
specification -- either states to remove from the plant or an explicit
subautomaton.  Supervisor and channel indices are 1-based in files and
0-based everywhere else.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from pathlib import Path
from typing import Union

from .automata import TimedAutomaton, parallel_compose, remove_states, subautomaton_defect
from .errors import SchemaError, UnknownNameError
from .network import ChannelLink, NetworkConfig


@dataclass(frozen=True)
class Model:
    automata: tuple[TimedAutomaton, ...]
    network: NetworkConfig
    plant: TimedAutomaton
    spec: TimedAutomaton
    marking_overridden: bool


def _require(mapping: dict, key: str, kind, where: str):
    if key not in mapping:
        raise SchemaError(f"{where}: missing field {key!r}")
    value = mapping[key]
    if kind is not None and not isinstance(value, kind):
        raise SchemaError(f"{where}: field {key!r} has the wrong type")
    return value


def _parse_automaton(entry: dict) -> TimedAutomaton:
    if not isinstance(entry, dict):
        raise SchemaError("automaton entry must be an object")
    name = _require(entry, "name", str, "automaton")
    where = f"automaton {name!r}"
    states = _require(entry, "states", list, where)
    initial = _require(entry, "initial", str, where)
    marked = _require(entry, "marked", list, where)
    alphabet = _require(entry, "alphabet", list, where)
    raw_transitions = _require(entry, "transitions", list, where)
    transitions = []
    for t in raw_transitions:
        if not isinstance(t, dict):
            raise SchemaError(f"{where}: transition entries must be objects")
        transitions.append(
            (
                _require(t, "from", str, where),
                _require(t, "event", str, where),
                _require(t, "to", str, where),
            )
        )
    return TimedAutomaton.build(name, states, alphabet, transitions, initial, marked)


def _parse_network(entry: dict) -> NetworkConfig:
    where = "network"
    n = _require(entry, "n", int, where)
    supervisors = _require(entry, "supervisors", list, where)
    if len(supervisors) != n:
        raise SchemaError(f"{where}: expected {n} supervisor entries")
    alphabets, controllable, observable = [], [], []
    for idx, sup in enumerate(supervisors):
        sw = f"supervisor {idx + 1}"
        alphabets.append(_require(sup, "alphabet", list, sw))
        controllable.append(_require(sup, "controllable", list, sw))
        observable.append(_require(sup, "observable", list, sw))
    com = _require(entry, "com", list, where)
    channels: dict[tuple[int, int], ChannelLink] = {}
    for raw in entry.get("channels", []):
        cw = "channel"
        i = _require(raw, "from", int, cw)
        j = _require(raw, "to", int, cw)
        if not (1 <= i <= n and 1 <= j <= n):
            raise SchemaError(f"channel ({i},{j}): supervisor index out of range")
        key = (i - 1, j - 1)
        if key in channels:
            raise SchemaError(f"channel ({i},{j}): declared twice")
        channels[key] = ChannelLink(
            frozenset(_require(raw, "events", list, cw)),
            frozenset(raw.get("lossy", [])),
            _require(raw, "delay_bound", int, cw),
        )
    return NetworkConfig.build(
        n,
        alphabets,
        controllable,
        observable,
        entry.get("enforceable", []),
        com,
        channels,
    )


def _resolve_plant(expr: str, by_name: dict[str, TimedAutomaton]) -> TimedAutomaton:
    names = [part.strip() for part in expr.split("||")]
    parts = []
    for name in names:
        if name not in by_name:
            raise UnknownNameError(f"plant expression references unknown automaton {name!r}")
        parts.append(by_name[name])
    if len(parts) == 1:
        return parts[0]
    return reduce(parallel_compose, parts)


def _resolve_spec(raw, plant: TimedAutomaton) -> tuple[TimedAutomaton, bool]:
    """Returns the specification automaton and whether its marking overrides
    the inherited one (explicit strict subset)."""
    if isinstance(raw, dict) and "remove_states" in raw:
        spec = remove_states(plant, raw["remove_states"], name="spec")
        if "marked" in raw:
            spec = TimedAutomaton(
                spec.name, spec.states, spec.alphabet, spec.transitions, spec.initial,
                frozenset(raw["marked"]),
            )
    elif isinstance(raw, dict):
        entry = dict(raw)
        entry.setdefault("name", "spec")
        entry.setdefault("alphabet", sorted(plant.alphabet))
        spec = _parse_automaton(entry)
    else:
        raise SchemaError("spec must be an object ({'remove_states': [...]} or an automaton)")
    defect = subautomaton_defect(spec, plant)
    if defect is not None:
        raise SchemaError(f"spec: {defect}")
    return spec, spec.marked != plant.marked & set(spec.states)


def parse_model(document: Union[str, dict]) -> Model:
    """Parse and fully validate one model document (JSON text or dict)."""
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise SchemaError("model document must be a JSON object")
    automata = tuple(_parse_automaton(a) for a in _require(document, "automata", list, "model"))
    by_name = {}
    for auto in automata:
        if auto.name in by_name:
            raise SchemaError(f"duplicate automaton name {auto.name!r}")
        by_name[auto.name] = auto
    network = _parse_network(_require(document, "network", dict, "model"))
    plant = _resolve_plant(_require(document, "plant", str, "model"), by_name)
    missing = plant.alphabet - network.events
    if missing:
        raise UnknownNameError(
            f"plant events {sorted(missing)} belong to no supervisor alphabet"
        )
    spec, overridden = _resolve_spec(_require(document, "spec", None, "model"), plant)
    return Model(automata, network, plant, spec, overridden)


def load_model(path: Union[str, Path]) -> Model:
    return parse_model(Path(path).read_text(encoding="utf-8"))


# -- serialization ---------------------------------------------------------

def automaton_to_dict(auto: TimedAutomaton) -> dict:
    return {
        "name": auto.name,
        "states": list(auto.states),
        "initial": auto.initial,
        "marked": sorted(auto.marked),
        "alphabet": sorted(auto.alphabet),
        "transitions": [
            {"from": q, "event": e, "to": t}
            for q in auto.states
            for e, t in auto.transitions[q].items()
        ],
    }


def network_to_dict(net: NetworkConfig) -> dict:
    return {
        "n": net.n,
        "supervisors": [
            {
                "alphabet": sorted(net.alphabets[i]),
                "controllable": sorted(net.controllable[i]),
                "observable": sorted(net.observable[i]),
            }
            for i in range(net.n)
        ],
        "enforceable": sorted(net.enforceable),
        "com": [[1 if net.com[i][j] else 0 for j in range(net.n)] for i in range(net.n)],
        "channels": [
            {
                "from": i + 1,
                "to": j + 1,
                "events": sorted(link.events),
                "lossy": sorted(link.lossy),
                "delay_bound": link.delay_bound,
            }
            for (i, j), link in sorted(net.channels.items())
        ],
    }


def model_to_dict(plant: TimedAutomaton, spec: TimedAutomaton, net: NetworkConfig) -> dict:
    """A replayable document for a (plant, spec, network) triple.

    The specification is stored as the list of plant states it removes, plus
    an explicit marked list when the marking is overridden.
    """
    removed = [q for q in plant.states if q not in set(spec.states)]
    spec_entry: dict = {"remove_states": removed}
    if spec.marked != plant.marked & set(spec.states):
        spec_entry["marked"] = sorted(spec.marked)
    return {
        "automata": [automaton_to_dict(plant)],
        "network": network_to_dict(net),
        "plant": plant.name,
        "spec": spec_entry,
    }


def dump_json(payload: dict) -> str:
    """Canonical JSON rendering: stable key order as constructed, UTF-8
    verbatim, trailing newline."""
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
