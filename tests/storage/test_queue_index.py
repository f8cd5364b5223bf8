"""Differential tests: the indexed queue against the list-scan oracle.

:class:`~repro.storage.queue.state.QueueState` finds visible messages
through a sorted index and a next-visible heap; :class:`ScanQueue` scans
a plain list.  Driven with the same operations on the same clock, both
must return the same message ids, pop receipts, dequeue counts and
counts, with the reordering model off and on (the reordering draws must
line up too).  The clock is a :class:`~repro.geo.replication.ReplayClock`,
so it also runs *backwards* when pinned to an earlier instant, the way a
geo replica replays the primary's writes.
"""

import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.geo.replication import ReplayClock
from repro.storage import LIMITS_2012, QueueServiceState

from .queue_oracle import ScanQueue


class _Usage:
    def __init__(self) -> None:
        self.bytes = 0

    def adjust_usage(self, delta: int) -> None:
        self.bytes += delta

    def __call__(self, delta: int) -> None:
        self.bytes += delta


def _view(m):
    return (m.message_id, m.content.to_bytes(), m.insertion_time,
            m.expiration_time, m.next_visible_time, m.dequeue_count,
            m.pop_receipt)


def _outcome(fn):
    try:
        result = fn()
    except Exception as exc:  # compared, not swallowed
        return ("error", type(exc).__name__, str(exc))
    if isinstance(result, list):
        return ("ok", [_view(m) if hasattr(m, "message_id") else m
                       for m in result])
    if hasattr(result, "message_id"):
        return ("ok", _view(result))
    return ("ok", result)


class _Pair:
    """The indexed queue and the oracle, on one pinnable clock."""

    def __init__(self, seed) -> None:
        self.env = SimpleNamespace(now=0.0)
        self.clock = ReplayClock(self.env)
        self.usage = _Usage()
        self.oracle_usage = _Usage()
        service = QueueServiceState(self.clock, LIMITS_2012,
                                    account=self.usage,
                                    fifo_jitter_seed=seed)
        self.queue = service.create_queue("que")
        self.oracle = ScanQueue(
            "que", self.clock, LIMITS_2012,
            rng=None if seed is None else np.random.default_rng(seed),
            account_delta=self.oracle_usage)
        #: (message_id, pop_receipt) pairs handed out so far.
        self.handles = [("que-0", "rcpt-0")]

    def both(self, method, *args, **kwargs):
        got = _outcome(lambda: getattr(self.queue, method)(*args, **kwargs))
        want = _outcome(lambda: getattr(self.oracle, method)(*args, **kwargs))
        assert got == want, (method, args, kwargs)
        if got[0] == "ok" and method in ("get_messages", "update_message"):
            views = got[1] if method == "get_messages" else [got[1]]
            self.handles.extend((v[0], v[6]) for v in views)
        return got

    def check(self) -> None:
        assert ([_view(m) for m in self.queue.messages()]
                == [_view(m) for m in self.oracle.messages()])
        assert (self.queue.approximate_message_count()
                == self.oracle.approximate_message_count())
        assert (self.queue.visible_message_count()
                == self.oracle.visible_message_count())
        assert self.usage.bytes == self.oracle_usage.bytes


_payload = st.binary(min_size=1, max_size=24)
_timeout = st.floats(0.5, 40.0)


class QueueIndexMachine(RuleBasedStateMachine):
    """Random queue ops, clock advances and rewinds, on both queues."""

    SEED = None

    def __init__(self) -> None:
        super().__init__()
        self.pair = _Pair(self.SEED)

    @rule(data=_payload,
          delay=st.one_of(st.just(0.0), _timeout),
          ttl=st.one_of(st.none(), st.floats(5.0, 200.0)))
    def put(self, data, delay, ttl):
        self.pair.both("put_message", data, ttl=ttl, visibility_delay=delay)

    @rule(n=st.integers(1, 4), vt=st.one_of(st.none(), _timeout))
    def get(self, n, vt):
        self.pair.both("get_messages", n, visibility_timeout=vt)

    @rule(n=st.integers(1, 4))
    def peek(self, n):
        self.pair.both("peek_messages", n)

    @rule(n=st.integers(1, 4))
    def sizes(self, n):
        self.pair.both("visible_sizes", n)

    @rule(pick=st.integers(0, 10_000))
    def delete(self, pick):
        handles = self.pair.handles
        self.pair.both("delete_message", *handles[pick % len(handles)])

    @rule(pick=st.integers(0, 10_000),
          vt=st.one_of(st.just(0.0), _timeout),
          data=st.one_of(st.none(), _payload))
    def update(self, pick, vt, data):
        handles = self.pair.handles
        self.pair.both("update_message", *handles[pick % len(handles)],
                       data, visibility_timeout=vt)

    @rule(pick=st.integers(0, 10_000))
    def make_visible(self, pick):
        handles = self.pair.handles
        self.pair.both("make_visible", handles[pick % len(handles)][0])

    @rule(dt=st.floats(0.0, 30.0))
    def advance(self, dt):
        self.pair.env.now += dt

    @rule(back=st.floats(0.0, 60.0))
    def pin_earlier(self, back):
        self.pair.clock.pin(max(0.0, self.pair.env.now - back))

    @rule()
    def unpin(self):
        self.pair.clock.unpin()

    @invariant()
    def same_state(self):
        self.pair.check()


class ReorderingQueueIndexMachine(QueueIndexMachine):
    SEED = 11


_SETTINGS = settings(max_examples=60, stateful_step_count=60, deadline=None)
TestQueueIndexMachine = QueueIndexMachine.TestCase
TestQueueIndexMachine.settings = _SETTINGS
TestReorderingQueueIndexMachine = ReorderingQueueIndexMachine.TestCase
TestReorderingQueueIndexMachine.settings = _SETTINGS


@pytest.mark.parametrize("seed", [None, 5])
def test_long_random_run_matches_oracle(seed):
    """Thousands of ops on a queue of hundreds: the heap's stale entries
    pile up and get compacted, and rewinds hit a large index."""
    rnd = random.Random(seed or 0)
    pair = _Pair(seed)
    for step in range(3000):
        r = rnd.random()
        if r < 0.35:
            pair.both("put_message", b"x" * rnd.randint(1, 9),
                      visibility_delay=rnd.choice([0.0, 0.0, 3.0]))
        elif r < 0.6:
            pair.both("get_messages", rnd.randint(1, 3),
                      visibility_timeout=rnd.choice([0.5, 5.0, 60.0]))
        elif r < 0.8:
            handle = pair.handles[rnd.randrange(len(pair.handles))]
            pair.both("delete_message", *handle)
        elif r < 0.85:
            handle = pair.handles[rnd.randrange(len(pair.handles))]
            pair.both("update_message", *handle,
                      visibility_timeout=rnd.choice([0.0, 2.0]))
        elif r < 0.88:
            handle = pair.handles[rnd.randrange(len(pair.handles))]
            pair.both("make_visible", handle[0])
        elif r < 0.97:
            pair.env.now += rnd.random()
        elif r < 0.99:
            pair.clock.pin(max(0.0, pair.env.now - 10 * rnd.random()))
        else:
            pair.clock.unpin()
        if step % 100 == 0:
            pair.check()
    pair.check()
    assert pair.queue.approximate_message_count() > 100


def test_rewound_clock_hides_messages_indexed_as_visible():
    """A message that became visible at the live time is invisible again
    while the clock is pinned to an instant before its visibility time."""
    pair = _Pair(None)
    pair.both("put_message", b"a", visibility_delay=5.0)
    pair.env.now = 10.0
    assert pair.queue.visible_message_count() == 1
    pair.clock.pin(2.0)
    assert pair.both("peek_messages", 1) == ("ok", [])
    assert pair.queue.visible_message_count() == 0
    pair.clock.unpin()
    assert pair.both("get_messages", 1)[1][0][0] == "que-1"
    pair.check()
