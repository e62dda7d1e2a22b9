"""In-memory spans around the benchmark's calls into netsup, and a garbage
collection timer.

A span records its name, start, end, the op it belongs to and the span that
caused it.  Stage spans sit directly under their op's span; spans opened
outside any op (instance generation during set-up) belong to the op
``"setup"``.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import gc
from time import perf_counter
from typing import Iterator, Optional

_NO_SPAN = contextlib.nullcontext()


class NullTracer:
    """Tracing off: every span is the same reusable empty context."""

    def span(self, name: str) -> contextlib.AbstractContextManager:
        return _NO_SPAN


NULL_TRACER = NullTracer()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._next_id = 0
        self._op: object = "setup"
        self._parent: Optional[int] = None

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        span_id = self._next_id
        self._next_id += 1
        parent, self._parent = self._parent, span_id
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._parent = parent
            self.spans.append({
                "id": span_id, "op": self._op, "parent": parent,
                "name": name, "start": start, "end": end,
            })

    @contextlib.contextmanager
    def op(self, op_id: int) -> Iterator[None]:
        """The span of one op; every span opened inside shares its id."""
        previous, self._op = self._op, op_id
        try:
            with self.span("op"):
                yield
        finally:
            self._op = previous

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]


class GcTimer:
    """Counts collector passes and the time they take, through
    ``gc.callbacks``, while the context is open."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.collections = 0
        self._started = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = perf_counter()
        else:
            self.seconds += perf_counter() - self._started
            self.collections += 1

    def __enter__(self) -> "GcTimer":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)
