"""FIFO channel queues and their four update operators.

Each directed channel holds a queue of plain (event, age) pairs; a channel state
is the tuple of all queues in ``net.channel_keys`` order, so channel ``k`` is
the one keyed ``net.channel_keys[k]``.  Ages count ticks since the event
entered the channel and may never exceed the channel's delay bound at a
reachable state.  The operators return ``None`` where the update is
undefined -- definedness acts as a transition guard, never as an error.
"""

from __future__ import annotations

from typing import Optional

from .network import NetworkConfig

# One queue of (event, age) pairs, front (oldest entry, next to deliver) first.
ChannelQueue = tuple[tuple[str, int], ...]

# All channel queues: position k holds the queue of ``net.channel_keys[k]``.
ChannelState = tuple[ChannelQueue, ...]

EMPTY_SYMBOL = "ε"  # rendering of an empty queue


def max_delay(queue: ChannelQueue) -> int:
    """Age of the front entry; 0 for an empty queue."""
    return queue[0][1] if queue else 0


def time_step(state: ChannelState, net: NetworkConfig) -> Optional[ChannelState]:
    """Advance every entry's age by one tick.

    Undefined (None) when any aged front entry would exceed its channel's
    delay bound: the channel then blocks the tick until a delivery or loss
    clears the overdue entry.
    """
    aged = []
    for key, queue in zip(net.channel_keys, state):
        bumped = tuple((event, age + 1) for event, age in queue)
        if max_delay(bumped) > net.channels[key].delay_bound:
            return None
        aged.append(bumped)
    return tuple(aged)


def push(state: ChannelState, event: str, net: NetworkConfig) -> ChannelState:
    """Append ``event`` with age 0 to every channel that carries it."""
    return tuple(
        queue + ((event, 0),) if event in net.channels[key].events else queue
        for key, queue in zip(net.channel_keys, state)
    )


def deliver(state: ChannelState, k: int, event: str) -> Optional[ChannelState]:
    """Remove the front entry of channel ``k``.

    Defined only when the queue is nonempty and its front event is ``event``
    (FIFO: only the oldest entry can be delivered).
    """
    queue = state[k]
    if not queue or queue[0][0] != event:
        return None
    return state[:k] + (queue[1:],) + state[k + 1:]


def lose(state: ChannelState, k: int, position: int, net: NetworkConfig) -> Optional[ChannelState]:
    """Drop the ``position``-th entry (1-based) of channel ``k``.

    Defined only when the queue is at least that long and the entry's event
    is declared lossy for the channel.
    """
    queue = state[k]
    if position < 1 or position > len(queue):
        return None
    if queue[position - 1][0] not in net.channels[net.channel_keys[k]].lossy:
        return None
    return state[:k] + (queue[: position - 1] + queue[position:],) + state[k + 1:]


def render_queue(queue: ChannelQueue) -> str:
    """Exact textual form used in state labels and counterexamples."""
    if not queue:
        return EMPTY_SYMBOL
    return "".join(f"({event},{age})" for event, age in queue)


def render_state(state: ChannelState) -> str:
    return ",".join(render_queue(queue) for queue in state)
