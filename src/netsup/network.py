"""Static description of the supervisor network: alphabets, control and
observation partitions, communication topology, and per-channel parameters.

Supervisor indices are 0-based internally; model files use 1-based indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .automata import TICK, event_order
from .errors import SchemaError


@dataclass(frozen=True)
class ChannelLink:
    """One directed communication link: which events it carries, which of
    those may be lost, and the delay bound in tick counts."""

    events: frozenset[str]
    lossy: frozenset[str]
    delay_bound: int


@dataclass(frozen=True)
class NetworkConfig:
    n: int
    alphabets: tuple[frozenset[str], ...]      # per supervisor, tick included
    controllable: tuple[frozenset[str], ...]
    observable: tuple[frozenset[str], ...]
    enforceable: frozenset[str]
    channels: Mapping[tuple[int, int], ChannelLink]  # its keys are the paper's com matrix

    @classmethod
    def build(
        cls,
        n: int,
        alphabets: Iterable[Iterable[str]],
        controllable: Iterable[Iterable[str]],
        observable: Iterable[Iterable[str]],
        enforceable: Iterable[str],
        channels: Mapping[tuple[int, int], ChannelLink],
    ) -> "NetworkConfig":
        alpha = tuple(frozenset(a) for a in alphabets)
        ctrl = tuple(frozenset(c) for c in controllable)
        obs = tuple(frozenset(o) for o in observable)
        if len(alpha) != n or len(ctrl) != n or len(obs) != n:
            raise SchemaError("network: per-supervisor lists must have length n")
        net = cls(n, alpha, ctrl, obs, frozenset(enforceable), dict(channels))
        net.validate()
        return net

    def validate(self) -> None:
        for i, alpha in enumerate(self.alphabets):
            if TICK not in alpha:
                raise SchemaError(f"supervisor {i + 1}: alphabet must contain {TICK!r}")
            if not self.controllable[i] <= alpha:
                raise SchemaError(f"supervisor {i + 1}: controllable set not within alphabet")
            if not self.observable[i] <= alpha:
                raise SchemaError(f"supervisor {i + 1}: observable set not within alphabet")
            if TICK not in self.observable[i]:
                raise SchemaError(f"supervisor {i + 1}: {TICK!r} must be observable")
        for i in range(self.n):
            for j in range(self.n):
                if i != j and self.alphabets[i] & self.alphabets[j] != {TICK}:
                    overlap = sorted((self.alphabets[i] & self.alphabets[j]) - {TICK})
                    raise SchemaError(
                        f"supervisors {i + 1} and {j + 1} share events beyond {TICK!r}: {overlap}"
                    )
        if not self.enforceable <= self.events - {TICK}:
            raise SchemaError("enforceable events must be declared non-tick events")
        for (i, j), link in self.channels.items():
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise SchemaError(f"channel ({i + 1},{j + 1}): index out of range")
            if i == j:
                raise SchemaError(f"channel ({i + 1},{j + 1}): a supervisor has no channel to itself")
            if TICK in link.events or TICK in link.lossy:
                raise SchemaError(f"channel ({i + 1},{j + 1}): {TICK!r} is never communicated")
            if not link.events <= self.observable[i] - {TICK}:
                raise SchemaError(
                    f"channel ({i + 1},{j + 1}): events must be observable to supervisor {i + 1}"
                )
            if not link.lossy <= link.events:
                raise SchemaError(f"channel ({i + 1},{j + 1}): lossy events must be carried")
            if link.delay_bound < 0:
                raise SchemaError(f"channel ({i + 1},{j + 1}): delay bound must be >= 0")

    @cached_property
    def events(self) -> frozenset[str]:
        """Union of all supervisor alphabets (tick included)."""
        out: frozenset[str] = frozenset()
        for alpha in self.alphabets:
            out |= alpha
        return out

    @cached_property
    def uncontrollable(self) -> frozenset[str]:
        """Events uncontrollable for at least one supervisor."""
        out: frozenset[str] = frozenset()
        for i in range(self.n):
            out |= self.alphabets[i] - self.controllable[i]
        return out

    @cached_property
    def globally_controllable(self) -> frozenset[str]:
        return self.events - self.uncontrollable

    @cached_property
    def channel_keys(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.channels))

    def controllers(self, event: str) -> tuple[int, ...]:
        """Supervisors that may disable ``event``; all of them for tick."""
        if event == TICK:
            return tuple(range(self.n))
        return tuple(i for i in range(self.n) if event in self.controllable[i])

    def observation_alphabet(self, i: int) -> tuple[str, ...]:
        """Symbols supervisor ``i`` can observe: own observables plus events
        delivered over incoming channels, in ``event_order``: tick (always
        observable) first, then lexicographic."""
        symbols = set(self.observable[i])
        for (src, dst), link in self.channels.items():
            if dst == i:
                symbols |= link.events
        return tuple(sorted(symbols, key=event_order))
