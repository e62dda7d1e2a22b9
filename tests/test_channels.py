"""Channel queue operators: exact example rows and randomized invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from netsup.channels import (
    ChannelEntry,
    deliver,
    lose,
    max_delay,
    push,
    render_queue,
    render_state,
    time_step,
)
from netsup.network import ChannelLink, NetworkConfig

TICK = "tick"


def two_way_net(n12=1, n21=1, lossy12=("a1",), lossy21=("b2",)):
    """The production-line network shape: channels 1->2 and 2->1."""
    return NetworkConfig.build(
        2,
        [["a1", "b1", TICK], ["a2", "b2", TICK]],
        [["a1", "b1", TICK], ["a2", "b2", TICK]],
        [["a1", "b1", TICK], ["a2", "b2", TICK]],
        [],
        [[0, 1], [1, 0]],
        {
            (0, 1): ChannelLink(frozenset(["a1", "b1"]), frozenset(lossy12), n12),
            (1, 0): ChannelLink(frozenset(["a2", "b2"]), frozenset(lossy21), n21),
        },
    )


def state(net, q12=(), q21=()):
    """Channel 1->2 (position 0) holds ``q12``, channel 2->1 (position 1) ``q21``."""
    assert net.channel_keys == ((0, 1), (1, 0))
    return (tuple(ChannelEntry(*e) for e in q12), tuple(ChannelEntry(*e) for e in q21))


class TestMaxDelay:
    def test_empty_queue(self):
        assert max_delay(()) == 0

    def test_single_entry(self):
        assert max_delay((ChannelEntry("b1", 1),)) == 1

    def test_front_entry_wins(self):
        assert max_delay((ChannelEntry("a", 2), ChannelEntry("b", 0))) == 2


class TestTimeStep:
    def test_all_empty_stays_empty(self):
        net = two_way_net()
        assert time_step(state(net), net) == state(net) == ((), ())

    def test_ages_increment(self):
        net = two_way_net()
        out = time_step(state(net, q12=[("b1", 0)]), net)
        assert out[0] == (ChannelEntry("b1", 1),)

    def test_blocked_at_delay_bound(self):
        net = two_way_net(n12=1)
        assert time_step(state(net, q12=[("b1", 1)]), net) is None


class TestPush:
    def test_appends_to_carrying_channel(self):
        net = two_way_net()
        out = push(state(net), "a1", net)
        assert out[0] == (ChannelEntry("a1", 0),)
        assert out[1] == ()

    def test_uncarried_event_changes_nothing(self):
        net = two_way_net()
        before = state(net, q12=[("b1", 1)])
        # a2 is carried by channel 2->1 only
        out = push(before, "a2", net)
        assert out[0] == before[0]
        assert out[1] == (ChannelEntry("a2", 0),)

    def test_fifo_append_at_back(self):
        net = two_way_net()
        out = push(state(net, q12=[("b1", 1)]), "a1", net)
        assert out[0] == (ChannelEntry("b1", 1), ChannelEntry("a1", 0))


class TestDeliver:
    def test_front_entry_removed(self):
        net = two_way_net()
        out = deliver(state(net, q12=[("b1", 1)]), 0, "b1")
        assert out[0] == ()

    def test_empty_queue_undefined(self):
        net = two_way_net()
        assert deliver(state(net), 0, "b1") is None

    def test_non_front_event_undefined(self):
        net = two_way_net()
        s = state(net, q12=[("a1", 1), ("b1", 0)])
        assert deliver(s, 0, "b1") is None


class TestLose:
    def test_lossy_front_dropped(self):
        net = two_way_net(lossy12=("a1",))
        out = lose(state(net, q12=[("a1", 0)]), 0, 1, net)
        assert out[0] == ()

    def test_position_beyond_queue_undefined(self):
        net = two_way_net()
        assert lose(state(net, q12=[("a1", 0)]), 0, 2, net) is None

    def test_non_lossy_entry_undefined(self):
        net = two_way_net(lossy12=("a1",))
        s = state(net, q12=[("a1", 1), ("b1", 0)])
        assert lose(s, 0, 2, net) is None

    def test_drops_exactly_one_preserving_order(self):
        net = two_way_net(lossy12=("a1", "b1"))
        s = state(net, q12=[("a1", 2), ("b1", 1), ("a1", 0)], q21=[("b2", 1)])
        out = lose(s, 0, 2, net)
        assert out[0] == (ChannelEntry("a1", 2), ChannelEntry("a1", 0))
        assert out[1] == s[1]


class TestRendering:
    def test_empty_renders_epsilon(self):
        assert render_queue(()) == "ε"

    def test_entries_render_in_order(self):
        q = (ChannelEntry("b1", 1), ChannelEntry("a1", 0))
        assert render_queue(q) == "(b1,1)(a1,0)"

    def test_state_rendering_joins_channels(self):
        net = two_way_net()
        s = state(net, q12=[("b1", 1)], q21=())
        assert render_state(s) == "(b1,1),ε"


def apply_random_ops(net, rng, length):
    """Drive a channel state through random operator applications, skipping
    undefined ones; returns every intermediate state."""
    s = state(net)
    history = [s]
    events = ["a1", "b1", "a2", "b2"]
    for _ in range(length):
        kind = rng.randrange(4)
        if kind == 0:
            nxt = time_step(s, net)
        elif kind == 1:
            nxt = push(s, rng.choice(events), net)
        elif kind == 2:
            k = rng.choice([0, 1])
            queue = s[k]
            front = queue[0].event if queue else rng.choice(events)
            nxt = deliver(s, k, front)
        else:
            k = rng.choice([0, 1])
            nxt = lose(s, k, rng.randint(1, max(1, len(s[k]))), net)
        if nxt is not None:
            s = nxt
            history.append(s)
    return history


def assert_channel_invariants(s, net):
    for (i, j), queue in zip(net.channel_keys, s):
        bound = net.channels[(i, j)].delay_bound
        ages = [e.age for e in queue]
        assert all(a <= bound for a in ages), "age within delay bound"
        assert ages == sorted(ages, reverse=True), "ages non-increasing front to back"


@given(seed=st.integers(0, 10_000), n12=st.integers(0, 2), n21=st.integers(0, 2))
@settings(max_examples=200, deadline=None)
def test_random_operator_sequences_keep_invariants(seed, n12, n21):
    net = two_way_net(n12=n12, n21=n21, lossy12=("a1",), lossy21=("b2",))
    rng = random.Random(seed)
    for s in apply_random_ops(net, rng, 30):
        assert_channel_invariants(s, net)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_delivered_is_subsequence_of_pushed_per_channel(seed):
    """FIFO means the delivery log replays as a prefix-respecting subsequence
    of the push log."""
    net = two_way_net(lossy12=("a1", "b1"), lossy21=("a2", "b2"))
    rng = random.Random(seed)
    s = state(net)
    pushed = {(0, 1): [], (1, 0): []}
    delivered = {(0, 1): [], (1, 0): []}
    for _ in range(50):
        kind = rng.randrange(4)
        if kind == 0:
            nxt = time_step(s, net)
        elif kind == 1:
            e = rng.choice(["a1", "b1", "a2", "b2"])
            nxt = push(s, e, net)
            for key in pushed:
                if e in net.channels[key].events:
                    pushed[key].append(e)
        elif kind == 2:
            k = rng.choice([0, 1])
            queue = s[k]
            if not queue:
                continue
            nxt = deliver(s, k, queue[0].event)
            delivered[net.channel_keys[k]].append(queue[0].event)
        else:
            k = rng.choice([0, 1])
            nxt = lose(s, k, rng.randint(1, max(1, len(s[k]))), net)
        if nxt is not None:
            s = nxt

    def is_subsequence(small, big):
        it = iter(big)
        return all(x in it for x in small)

    for key in pushed:
        assert is_subsequence(delivered[key], pushed[key])


def test_lose_changes_single_channel_only():
    net = two_way_net(lossy12=("a1",))
    s = state(net, q12=[("a1", 1), ("b1", 0)], q21=[("a2", 0)])
    out = lose(s, 0, 1, net)
    assert len(out[0]) == len(s[0]) - 1
    assert out[1] == s[1]
