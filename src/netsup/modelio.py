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

from .automata import TimedAutomaton, parallel_compose, remove_states, require_supervised, subautomaton_defect
from .errors import SchemaError, UnknownNameError
from .network import ChannelLink, NetworkConfig


@dataclass(frozen=True)
class Model:
    automata: tuple[TimedAutomaton, ...]
    network: NetworkConfig
    plant: TimedAutomaton
    spec: TimedAutomaton


def _require(mapping: dict, key: str, kind, where: str):
    if not isinstance(mapping, dict):
        raise SchemaError(f"{where}: entry must be an object")
    if key not in mapping:
        raise SchemaError(f"{where}: missing field {key!r}")
    value = mapping[key]
    # a JSON boolean is a Python bool, which is an int
    if kind is not None and (not isinstance(value, kind) or (kind is int and isinstance(value, bool))):
        raise SchemaError(f"{where}: field {key!r} has the wrong type")
    return value


def _require_names(mapping: dict, key: str, where: str, optional: bool = False) -> list[str]:
    """A list-of-strings field; an ``optional`` one defaults to empty."""
    if optional and key not in mapping:
        return []
    value = _require(mapping, key, list, where)
    if not all(isinstance(v, str) for v in value):
        raise SchemaError(f"{where}: field {key!r} must be a list of strings")
    return value


def _parse_automaton(entry: dict) -> TimedAutomaton:
    if not isinstance(entry, dict):
        raise SchemaError("automaton entry must be an object")
    name = _require(entry, "name", str, "automaton")
    where = f"automaton {name!r}"
    states = _require_names(entry, "states", where)
    initial = _require(entry, "initial", str, where)
    marked = _require_names(entry, "marked", where)
    alphabet = _require_names(entry, "alphabet", where)
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
        alphabets.append(_require_names(sup, "alphabet", sw))
        controllable.append(_require_names(sup, "controllable", sw))
        observable.append(_require_names(sup, "observable", sw))
    com = _require(entry, "com", list, where)
    if len(com) != n or not all(isinstance(row, list) and len(row) == n for row in com):
        raise SchemaError(f"{where}: com matrix must be n x n")
    if not all(type(x) is int and x in (0, 1) for row in com for x in row):
        raise SchemaError(f"{where}: com entries must be 0 or 1")
    channels: dict[tuple[int, int], ChannelLink] = {}
    for raw in _require(entry, "channels", list, where) if "channels" in entry else []:
        cw = "channel"
        i = _require(raw, "from", int, cw)
        j = _require(raw, "to", int, cw)
        if not (1 <= i <= n and 1 <= j <= n):
            raise SchemaError(f"channel ({i},{j}): supervisor index out of range")
        key = (i - 1, j - 1)
        if key in channels:
            raise SchemaError(f"channel ({i},{j}): declared twice")
        channels[key] = ChannelLink(
            frozenset(_require_names(raw, "events", cw)),
            frozenset(_require_names(raw, "lossy", cw, optional=True)),
            _require(raw, "delay_bound", int, cw),
        )
    # com only says which channels exist, and the network keeps the channels
    for i, j in channels:
        if not com[i][j]:
            raise SchemaError(f"channel ({i + 1},{j + 1}): com matrix entry is 0")
    for i in range(n):
        for j in range(n):
            if com[i][j] and i == j:
                raise SchemaError(f"com[{i + 1}][{i + 1}] must be 0")
            if com[i][j] and (i, j) not in channels:
                raise SchemaError(f"com[{i + 1}][{j + 1}] is 1 but no channel is declared")
    return NetworkConfig.build(
        n,
        alphabets,
        controllable,
        observable,
        _require_names(entry, "enforceable", where, optional=True),
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


def _resolve_spec(raw, plant: TimedAutomaton) -> TimedAutomaton:
    """The specification automaton, a subautomaton of ``plant`` whose
    marking may be an explicit subset of the inherited one."""
    if isinstance(raw, dict) and "remove_states" in raw:
        spec = remove_states(plant, _require_names(raw, "remove_states", "spec"), name="spec")
        if "marked" in raw:
            spec = TimedAutomaton(
                spec.name, spec.states, spec.alphabet, spec.transitions, spec.initial,
                frozenset(_require_names(raw, "marked", "spec")),
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
    return spec


def parse_model(document: Union[str, dict]) -> Model:
    """Parse and fully validate one model document (JSON text or dict)."""
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}") from exc
        except RecursionError as exc:
            raise SchemaError("invalid JSON: nested too deeply") from exc
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
    require_supervised(plant, network)
    spec = _resolve_spec(_require(document, "spec", None, "model"), plant)
    return Model(automata, network, plant, spec)


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
        "com": [[int((i, j) in net.channels) for j in range(net.n)] for i in range(net.n)],
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
    verbatim, trailing newline.  A payload is a tree of dicts and lists
    built for the call, never a cycle, so the encoder skips that check."""
    return json.dumps(payload, indent=2, ensure_ascii=False, check_circular=False) + "\n"
