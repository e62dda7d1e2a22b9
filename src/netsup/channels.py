"""FIFO channel queues and the four per-queue operators of the channel calculus.

Each directed channel holds a queue of plain (event, age) pairs; a channel state
is the tuple of all queues in ``net.channel_keys`` order, so channel ``k`` is
the one keyed ``net.channel_keys[k]``.  Ages count ticks since the event
entered the channel and may never exceed the channel's delay bound at a
reachable state.  The calculus is ``age`` (one tick later), ``enqueue`` (an
event sent), ``pop`` (the front event delivered) and ``drops`` (a lossy
entry lost), each on one queue; ``comm.build_comm_automaton`` splices the
result into the channel state.  ``age`` and ``pop`` return ``None`` where
the update is undefined -- definedness acts as a transition guard, never as
an error.
"""

from __future__ import annotations

from typing import Optional

# One queue of (event, age) pairs, front (oldest entry, next to deliver) first.
ChannelQueue = tuple[tuple[str, int], ...]

# All channel queues: position k holds the queue of ``net.channel_keys[k]``.
ChannelState = tuple[ChannelQueue, ...]

EMPTY_SYMBOL = "ε"  # rendering of an empty queue


def age(queue: ChannelQueue, delay_bound: int) -> Optional[ChannelQueue]:
    """The queue one tick later: every entry's age advanced by one.

    Undefined (None) when the aged front entry would exceed ``delay_bound``:
    the channel then blocks the tick until a delivery or loss clears the
    overdue entry.
    """
    if queue and queue[0][1] >= delay_bound:
        return None
    return tuple([(event, entry_age + 1) for event, entry_age in queue])


def enqueue(queue: ChannelQueue, event: str) -> ChannelQueue:
    """``queue`` with ``event`` appended at age 0."""
    return queue + ((event, 0),)


def pop(queue: ChannelQueue) -> Optional[tuple[str, ChannelQueue]]:
    """The front event of ``queue`` and the queue once it is delivered
    (FIFO: only the oldest entry can be); None for an empty queue."""
    return (queue[0][0], queue[1:]) if queue else None


def drops(queue: ChannelQueue, lossy: frozenset[str]) -> tuple[tuple[int, ChannelQueue], ...]:
    """Each entry of ``queue`` whose event is in ``lossy``, as its 1-based
    position and the queue without it, front first."""
    return tuple(
        (d, queue[: d - 1] + queue[d:]) for d, (event, _age) in enumerate(queue, 1) if event in lossy
    )


def render_queue(queue: ChannelQueue) -> str:
    """Exact textual form used in state labels and counterexamples."""
    if not queue:
        return EMPTY_SYMBOL
    return "".join(f"({event},{age})" for event, age in queue)


def render_state(state: ChannelState) -> str:
    return ",".join(render_queue(queue) for queue in state)
