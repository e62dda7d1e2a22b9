"""The per-queue channel calculus (``age``, ``enqueue``, ``pop``, ``drops``):
exact example rows and randomized invariants.  How the build splices one
queue into a channel state is checked on the built automaton, here for
pushes and losses and state by state in ``test_comm``'s
``TestMovesFollowTheQueueCalculus``."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from netsup.automata import TICK
from netsup.channels import age, drops, enqueue, pop, render_queue, render_state
from netsup.comm import Lose, Plant

# the production-line channels: 1->2 carries a1, b1 and 2->1 carries a2, b2
CARRIED = {(0, 1): ("a1", "b1"), (1, 0): ("a2", "b2")}


class TestTimeStep:
    def test_all_empty_stays_empty(self):
        """An empty queue ages to itself and never blocks tick, even at
        delay bound 0."""
        assert age((), 1) == ()
        assert age((), 0) == ()

    def test_ages_increment(self):
        assert age((("b1", 0),), 1) == (("b1", 1),)
        assert age((("a1", 1), ("b1", 0)), 2) == (("a1", 2), ("b1", 1))

    def test_blocked_at_delay_bound(self):
        assert age((("b1", 1),), 1) is None
        # the front entry is the oldest, so it alone decides
        assert age((("a1", 1), ("b1", 0)), 1) is None


class TestPush:
    def test_appends_to_carrying_channel(self):
        assert enqueue((), "a1") == (("a1", 0),)

    def test_uncarried_event_changes_nothing(self, line_comm):
        """In the built automaton, a plant event leaves every queue whose
        channel does not carry it as it was, and enqueues itself on the
        one that does."""
        net = line_comm.net
        kept_nonempty = 0
        for sid in range(line_comm.num_states):
            before = line_comm.channels_of(sid)
            for event, dst in line_comm.moves(sid):
                if not isinstance(event, Plant) or event.event == TICK:
                    continue
                after = line_comm.channels_of(dst)
                for key, old, new in zip(net.channel_keys, before, after):
                    if event.event in net.channels[key].events:
                        assert new == enqueue(old, event.event)
                    else:
                        assert new == old
                        kept_nonempty += bool(old)
        assert kept_nonempty > 0

    def test_fifo_append_at_back(self):
        assert enqueue((("b1", 1),), "a1") == (("b1", 1), ("a1", 0))


class TestDeliver:
    def test_front_entry_removed(self):
        assert pop((("b1", 1),)) == ("b1", ())

    def test_empty_queue_undefined(self):
        assert pop(()) is None

    def test_non_front_event_undefined(self):
        """``pop`` yields only the front event: b1 behind a1 cannot be
        delivered first."""
        assert pop((("a1", 1), ("b1", 0))) == ("a1", (("b1", 0),))


class TestLose:
    def test_lossy_front_dropped(self):
        assert drops((("a1", 0),), frozenset(["a1"])) == ((1, ()),)

    def test_position_beyond_queue_undefined(self):
        assert 2 not in dict(drops((("a1", 0),), frozenset(["a1"])))

    def test_non_lossy_entry_undefined(self):
        """Position 2 holds b1, which is not lossy, so it is absent."""
        assert drops((("a1", 1), ("b1", 0)), frozenset(["a1"])) == ((1, (("b1", 0),)),)

    def test_drops_exactly_one_preserving_order(self):
        queue = (("a1", 2), ("b1", 1), ("a1", 0))
        assert drops(queue, frozenset(["a1", "b1"])) == (
            (1, (("b1", 1), ("a1", 0))),
            (2, (("a1", 2), ("a1", 0))),
            (3, (("a1", 2), ("b1", 1))),
        )


class TestRendering:
    def test_empty_renders_epsilon(self):
        assert render_queue(()) == "ε"

    def test_entries_render_in_order(self):
        q = (("b1", 1), ("a1", 0))
        assert render_queue(q) == "(b1,1)(a1,0)"

    def test_state_rendering_joins_channels(self):
        assert render_state(((("b1", 1),), ())) == "(b1,1),ε"


def random_queue_run(rng, bound, carried, lossy, length):
    """Drive one queue through ``length`` random operator applications,
    skipping undefined ones.  Returns every queue it held, the events
    enqueued and the events delivered, in order."""
    queue = ()
    history, sent, delivered = [queue], [], []
    for _ in range(length):
        kind = rng.randrange(4)
        if kind == 0:
            nxt = age(queue, bound)
        elif kind == 1:
            event = rng.choice(carried)
            nxt = enqueue(queue, event)
            sent.append(event)
        elif kind == 2:
            popped = pop(queue)
            if popped is None:
                continue
            delivered.append(popped[0])
            nxt = popped[1]
        else:
            nxt = dict(drops(queue, lossy)).get(rng.randint(1, max(1, len(queue))))
        if nxt is not None:
            queue = nxt
            history.append(queue)
    return history, sent, delivered


def assert_queue_invariants(queue, bound):
    ages = [entry_age for _event, entry_age in queue]
    assert all(a <= bound for a in ages), "age within delay bound"
    assert ages == sorted(ages, reverse=True), "ages non-increasing front to back"


@given(seed=st.integers(0, 10_000), n12=st.integers(0, 2), n21=st.integers(0, 2))
@settings(max_examples=200, deadline=None)
def test_random_operator_sequences_keep_invariants(seed, n12, n21):
    rng = random.Random(seed)
    for bound, carried, lossy in ((n12, CARRIED[0, 1], {"a1"}), (n21, CARRIED[1, 0], {"b2"})):
        history, _sent, _delivered = random_queue_run(rng, bound, carried, frozenset(lossy), 30)
        for queue in history:
            assert_queue_invariants(queue, bound)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_delivered_is_subsequence_of_pushed_per_channel(seed):
    """FIFO means the delivery log replays as a prefix-respecting subsequence
    of the push log."""
    rng = random.Random(seed)

    def is_subsequence(small, big):
        it = iter(big)
        return all(x in it for x in small)

    for carried in CARRIED.values():
        _history, sent, delivered = random_queue_run(rng, 1, carried, frozenset(carried), 50)
        assert is_subsequence(delivered, sent)


def test_lose_changes_single_channel_only(line_comm):
    """In the built automaton, a loss keeps the plant state and every other
    queue, and leaves its own queue as ``drops`` says."""
    net = line_comm.net
    losses = 0
    for sid in range(line_comm.num_states):
        q, before = line_comm.keys[sid]
        for event, dst in line_comm.moves(sid):
            if not isinstance(event, Lose):
                continue
            losses += 1
            k = net.channel_keys.index((event.sender, event.receiver))
            rest = dict(drops(before[k], net.channels[event.sender, event.receiver].lossy))[event.position]
            assert line_comm.keys[dst] == (q, before[:k] + (rest,) + before[k + 1:])
    assert losses > 0
