"""CPU-speed probe for rescaling wall times to a reference speed.

On the shared 2-core machine this benchmark was defined on, the speed of
the CPU given to one process swings by up to 2x within seconds (process time
equals wall time, so the process is not descheduled; it runs slower).
Medians of 20-second windows of a fixed loop spread by 18 % to 30 % from
that alone, more than any bound a regression check can use.

So while ops are timed, a SIGALRM handler runs a fixed probe every
``INTERVAL_S`` seconds, inside ops too.  An op's own time is its wall time
minus the probes that ran inside it, and it is rescaled by the median time
of the probes that ran inside it and the ``NEIGHBOURS`` probes on each side
(so a short op, with no probe inside, takes the probes around it):

    scaled = own time * REFERENCE_S / median probe time

A median, not a mean, because a probe that was descheduled reads several
times its usual time and would otherwise scale the whole op.

The probe explores a small product graph of tuple states, building a
frozenset of successors per state as netsup's constructions do, then
allocates and hashes small frozensets.  In trial runs of line-unsolvable
whose raw op times spread by 28 %, scaling by the allocations alone left a
spread of up to 10 % in the median op time; adding the exploration halved
it.  The probe runs no netsup code and runs with the collector off, so a
change to netsup does not change it.
"""

from __future__ import annotations

import gc
import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

# A typical probe time on the machine the benchmark was defined on; a scaled
# time is the time the op would take at that speed.
REFERENCE_S = 0.005
INTERVAL_S = 0.05
NEIGHBOURS = 2

_SUCCESSORS = {i: ((i * 7 + 3) % 60, (i * 11 + 5) % 60, (i + 1) % 60) for i in range(60)}


def _explore() -> int:
    start = (0, 0, ())
    seen = {start}
    stack = [start]
    moves = {}
    while stack:
        x, y, history = stack.pop()
        targets = []
        for a in _SUCCESSORS[x]:
            for b in _SUCCESSORS[y][:2]:
                target = (a, b, history[-1:] + (a % 3,))
                targets.append(target)
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
        moves[(x, y, history)] = frozenset(targets)
    return len(moves)


def _allocate() -> int:
    seen: dict = {}
    for i in range(3000):
        key = frozenset((i, i % 13))
        seen[key] = seen.get(key, 0) + i
    return len(seen)


def _probe_work() -> int:
    return _explore() + _allocate()


def probe() -> float:
    """Wall time of the fixed probe, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _probe_work()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Runs the probe from a SIGALRM handler while the context is open."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        start = perf_counter()
        duration = probe()
        self.starts.append(start)
        self.durations.append(duration)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()  # a probe before the first op
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()  # and one after the last

    def rescale(self, start: float, end: float) -> tuple[float, float]:
        """(own time, scaled time) of work that ran from ``start`` to ``end``."""
        lo = bisect_left(self.starts, start)
        hi = bisect_right(self.starts, end)
        own = end - start - sum(self.durations[lo:hi])
        window = self.durations[max(lo - NEIGHBOURS, 0):hi + NEIGHBOURS]
        return own, own * REFERENCE_S / statistics.median(window)
