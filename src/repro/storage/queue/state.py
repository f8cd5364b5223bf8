"""Data plane of the Windows Azure Queue service (2012 semantics).

Implements the behaviours the paper's Algorithms 2-4 depend on:

* ``PutMessage`` / ``GetMessage`` / ``PeekMessage`` / ``DeleteMessage``;
* **visibility timeouts** — a gotten message becomes invisible to other
  consumers and *reappears* unless deleted in time ("if the consumer does
  not delete the message after its consumption, it reappears in the queue
  after a certain time") — this is the platform's built-in fault tolerance;
* **TTL expiry** — messages left longer than 7 days (2 hours in the 2010-era
  limits) vanish;
* **no FIFO guarantee** — retrieval is approximately FIFO; an optional
  seeded shuffle models the observable reordering the paper warns about;
* the 64 KB message limit with only 48 KB of usable payload;
* ``approximate_message_count``, which Algorithm 2's barrier polls.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from heapq import heapify, heappop, heappush
from itertools import count
from typing import Dict, Iterable, List, Optional, Tuple, ValuesView

import numpy as np

from ..clock import Clock
from ..content import Content, as_content
from ..errors import (
    InvalidOperationError,
    MessageNotFoundError,
    MessageTooLargeError,
    QueueNotFoundError,
    ResourceExistsError,
)
from ..limits import LIMITS_2012, ServiceLimits
from ..naming import validate_queue_name

__all__ = ["QueueServiceState", "QueueState", "QueueMessage"]

#: Metadata overhead per message: of the 64 KB wire limit only 48 KB carry
#: payload ("rest of the message content is metadata", paper IV.B).
_MESSAGE_OVERHEAD_FACTOR = 4 / 3

_INF = float("inf")


@dataclass
class QueueMessage:
    """One queue message, including its server-side bookkeeping."""

    message_id: str
    content: Content
    insertion_time: float
    expiration_time: float
    #: Time before which the message is invisible to consumers.
    next_visible_time: float
    dequeue_count: int = 0
    #: Receipt returned by the last ``get``; required to delete/update.
    pop_receipt: Optional[str] = None

    def visible(self, now: float) -> bool:
        return now >= self.next_visible_time

    def expired(self, now: float) -> bool:
        return now >= self.expiration_time

    @property
    def size(self) -> int:
        return self.content.size


class _FifoIndex:
    """Sorted sequence numbers, cheap to take from and put back at the front.

    The live entries are ``seqs[head:]``.  Removing the first one (what a
    FIFO get does) advances ``head`` instead of shifting the whole list,
    and an entry older than every live one (a message whose visibility
    timeout lapsed) takes the free slot in front of them.  Other entries
    are inserted and removed in place, found by ``bisect``.
    """

    __slots__ = ("seqs", "head")

    def __init__(self, seqs: Iterable[int] = ()) -> None:
        self.seqs: List[int] = list(seqs)
        self.head = 0

    def __len__(self) -> int:
        return len(self.seqs) - self.head

    def live(self) -> List[int]:
        return self.seqs[self.head:]

    def first(self, n: int) -> List[int]:
        return self.seqs[self.head:self.head + n]

    def add(self, seq: int) -> None:
        seqs, head = self.seqs, self.head
        i = bisect_left(seqs, seq, head)
        if i < len(seqs) and seqs[i] == seq:
            return
        if i == head and head:
            self.head = head - 1
            seqs[head - 1] = seq
        else:
            seqs.insert(i, seq)

    def discard(self, seq: int) -> None:
        seqs, head = self.seqs, self.head
        i = bisect_left(seqs, seq, head)
        if i == len(seqs) or seqs[i] != seq:
            return
        if i != head:
            del seqs[i]
            return
        head += 1
        if 2 * head > len(seqs):
            del seqs[:head]
            head = 0
        self.head = head


class QueueState:
    """One named queue: an (approximately FIFO) list of messages.

    Messages live in a dict keyed by their sequence number, so insertion
    order is FIFO order and a lookup by id is O(1).  Two indexes keep
    every operation's cost independent of how many messages are stored:

    * ``_visible``: the sorted sequence numbers of the messages indexed as
      visible, i.e. FIFO order over the visible messages (a
      :class:`_FifoIndex`);
    * ``_hidden``: a lazy ``(next_visible_time, seq)`` heap of the other
      messages.  An entry whose message was deleted or got a new
      visibility time since is skipped when it is popped.

    A message joins ``_visible`` once the clock reaches its
    ``next_visible_time``.  The clock may also go *back* (a geo replica
    replays writes on a clock pinned to the primary's earlier instants),
    so ``_visible_until`` bounds the visibility times in ``_visible``:
    below it, indexed messages that are not yet visible are skipped.
    """

    def __init__(self, service: "QueueServiceState", name: str) -> None:
        self._service = service
        self.name = validate_queue_name(name)
        self._by_seq: Dict[int, QueueMessage] = {}
        self._seq_of: Dict[str, int] = {}
        self._visible = _FifoIndex()
        self._visible_until = -_INF
        self._hidden: List[Tuple[float, int]] = []
        self._ids = count(1)
        self._receipts = count(1)
        self.created_at = service._clock.now()
        #: Earliest expiration among stored messages; a full purge scan only
        #: runs once the clock passes it (keeps per-op cost O(1) while the
        #: 7-day TTL is far away, which is every benchmark).
        self._next_expiry = _INF

    # -- internal ---------------------------------------------------------
    def _now(self) -> float:
        return self._service._clock.now()

    def _purge_expired(self) -> None:
        now = self._now()
        if now < self._next_expiry:
            return
        kept: Dict[int, QueueMessage] = {}
        next_expiry = _INF
        for seq, m in self._by_seq.items():
            if m.expired(now):
                self._service._account_delta(-m.size)
                del self._seq_of[m.message_id]
            else:
                kept[seq] = m
                if m.expiration_time < next_expiry:
                    next_expiry = m.expiration_time
        self._by_seq = kept
        self._visible = _FifoIndex(
            s for s in self._visible.live() if s in kept)
        self._next_expiry = next_expiry

    def _list(self, seq: int, m: QueueMessage) -> None:
        self._visible.add(seq)
        if m.next_visible_time > self._visible_until:
            self._visible_until = m.next_visible_time

    def _set_visible_at(self, seq: int, m: QueueMessage, when: float,
                        now: float) -> None:
        """Set ``m``'s visibility time and file it under the right index."""
        m.next_visible_time = when
        if when <= now:
            self._list(seq, m)
            return
        self._visible.discard(seq)
        heappush(self._hidden, (when, seq))
        if len(self._hidden) > 2 * len(self._by_seq) + 64:
            # Mostly stale entries: rebuild from the unlisted messages.
            listed = set(self._visible.live())
            self._hidden = [(x.next_visible_time, s)
                            for s, x in self._by_seq.items()
                            if s not in listed]
            heapify(self._hidden)

    def _visible_seqs(self, now: float) -> _FifoIndex:
        """Sequence numbers of the messages visible at ``now``, FIFO order.

        May return the index itself: callers must not mutate it.
        """
        hidden = self._hidden
        by_seq = self._by_seq
        while hidden and hidden[0][0] <= now:
            seq = heappop(hidden)[1]
            m = by_seq.get(seq)
            if m is not None and m.next_visible_time <= now:
                self._list(seq, m)
        if now >= self._visible_until:
            return self._visible
        # The clock went back: skip indexed messages not yet visible, and
        # tighten the bound so the fast path resumes once time catches up.
        seqs = []
        until = -_INF
        for s in self._visible.live():
            t = by_seq[s].next_visible_time
            if t <= now:
                seqs.append(s)
            if t > until:
                until = t
        self._visible_until = until
        return _FifoIndex(seqs)

    def _select(self, limit: int) -> List[QueueMessage]:
        """The live messages a get or peek of ``limit`` would return."""
        visible = self._visible_seqs(self._now())
        rng = self._service._reorder_rng
        if rng is not None and len(visible) > 1:
            # Model the lack of a FIFO guarantee: the storage front-ends may
            # serve any visible message. A light shuffle keeps it almost-FIFO
            # like the real service while exercising the non-FIFO code paths.
            # The whole permutation is drawn, as many values as there are
            # visible messages, so the generator's stream does not depend
            # on ``limit``.
            live = visible.live()
            seqs = [live[i] for i in rng.permutation(len(live))[:limit]]
        else:
            seqs = visible.first(limit)
        by_seq = self._by_seq
        return [by_seq[s] for s in seqs]

    def _find(self, message_id: str, pop_receipt: str, what: str
              ) -> Tuple[int, QueueMessage]:
        seq = self._seq_of.get(message_id)
        if seq is None:
            raise MessageNotFoundError(f"message {message_id!r} not found")
        m = self._by_seq[seq]
        if m.pop_receipt != pop_receipt or pop_receipt is None:
            raise MessageNotFoundError(
                f"pop receipt {pop_receipt!r} no longer valid{what}")
        return seq, m

    # -- producer API -------------------------------------------------------
    def put_message(self, data, *, ttl: Optional[float] = None,
                    visibility_delay: float = 0.0) -> QueueMessage:
        """Add a message (``PutMessage``).

        ``ttl`` defaults to (and is capped at) the era's maximum; payload is
        limited to 48 KB usable bytes (64 KB wire size).
        """
        content = as_content(data)
        limits = self._service.limits
        if content.size > limits.max_message_payload_bytes:
            raise MessageTooLargeError(
                f"payload of {content.size} B exceeds usable maximum "
                f"{limits.max_message_payload_bytes} B "
                f"(wire limit {limits.max_message_bytes} B incl. metadata)"
            )
        if visibility_delay < 0:
            raise InvalidOperationError("visibility_delay must be >= 0")
        now = self._now()
        max_ttl = limits.max_message_ttl_seconds
        if ttl is None or ttl > max_ttl:
            ttl = max_ttl
        if ttl <= 0:
            raise InvalidOperationError(f"ttl must be positive, got {ttl}")
        seq = next(self._ids)
        msg = QueueMessage(
            message_id=f"{self.name}-{seq}",
            content=content,
            insertion_time=now,
            expiration_time=now + ttl,
            next_visible_time=now + visibility_delay,
        )
        # Charge capacity first: a rejected put must not leave the message
        # behind.
        self._service._account_delta(msg.size)
        self._by_seq[seq] = msg
        self._seq_of[msg.message_id] = seq
        self._set_visible_at(seq, msg, msg.next_visible_time, now)
        if msg.expiration_time < self._next_expiry:
            self._next_expiry = msg.expiration_time
        return replace(msg)

    # -- consumer API ---------------------------------------------------------
    def get_messages(self, n: int = 1, *,
                     visibility_timeout: Optional[float] = None) -> List[QueueMessage]:
        """Retrieve up to ``n`` visible messages (``GetMessage``).

        Each returned message becomes invisible for ``visibility_timeout``
        seconds and carries a fresh pop receipt; its dequeue count is
        incremented.  Unless deleted before the timeout elapses, the message
        reappears for other consumers (at-least-once delivery).
        """
        if n < 1:
            raise InvalidOperationError("n must be >= 1")
        self._purge_expired()
        if visibility_timeout is None:
            visibility_timeout = self._service.limits.default_visibility_timeout_seconds
        if visibility_timeout <= 0:
            raise InvalidOperationError("visibility_timeout must be > 0")
        now = self._now()
        got: List[QueueMessage] = []
        for m in self._select(n):
            self._set_visible_at(self._seq_of[m.message_id], m,
                                 now + visibility_timeout, now)
            m.dequeue_count += 1
            m.pop_receipt = f"rcpt-{next(self._receipts)}"
            # Hand out a snapshot: the receipt a consumer holds must not
            # change when another consumer later re-gets the message.
            got.append(replace(m))
        return got

    def get_message(self, *, visibility_timeout: Optional[float] = None
                    ) -> Optional[QueueMessage]:
        """Retrieve one message, or ``None`` if none is visible."""
        got = self.get_messages(1, visibility_timeout=visibility_timeout)
        return got[0] if got else None

    def peek_messages(self, n: int = 1) -> List[QueueMessage]:
        """Look at up to ``n`` visible messages without any state change."""
        if n < 1:
            raise InvalidOperationError("n must be >= 1")
        self._purge_expired()
        return [replace(m) for m in self._select(n)]

    def peek_message(self) -> Optional[QueueMessage]:
        peeked = self.peek_messages(1)
        return peeked[0] if peeked else None

    def visible_sizes(self, n: int = 1) -> List[int]:
        """Sizes of the messages ``peek_messages(n)`` would return.

        Same selection and the same reordering draw as a peek, without
        copying the messages: the cost model reads it before a get.
        """
        if n < 1:
            raise InvalidOperationError("n must be >= 1")
        self._purge_expired()
        return [m.size for m in self._select(n)]

    def delete_message(self, message_id: str, pop_receipt: str) -> None:
        """Delete a previously-gotten message (receipt must match)."""
        self._purge_expired()
        seq, m = self._find(message_id, pop_receipt,
                            f" for message {message_id!r}")
        self._service._account_delta(-m.size)
        del self._by_seq[seq]
        del self._seq_of[message_id]
        self._visible.discard(seq)

    def update_message(self, message_id: str, pop_receipt: str, data=None, *,
                       visibility_timeout: float = 0.0) -> QueueMessage:
        """Update content and/or extend invisibility of a gotten message."""
        self._purge_expired()
        seq, m = self._find(message_id, pop_receipt, "")
        if data is not None:
            content = as_content(data)
            limits = self._service.limits
            if content.size > limits.max_message_payload_bytes:
                raise MessageTooLargeError(
                    f"payload of {content.size} B exceeds "
                    f"{limits.max_message_payload_bytes} B"
                )
            self._service._account_delta(content.size - m.size)
            m.content = content
        now = self._now()
        self._set_visible_at(seq, m, now + max(0.0, visibility_timeout), now)
        m.pop_receipt = f"rcpt-{next(self._receipts)}"
        return replace(m)

    def make_visible(self, message_id: str) -> bool:
        """Force a message visible *now*, ignoring its visibility timeout.

        Fault-injection/test helper: models duplicate delivery — the
        at-least-once anomaly where a gotten message is served to another
        consumer as well.  Returns False if the message no longer exists.
        """
        seq = self._seq_of.get(message_id)
        if seq is None:
            return False
        now = self._now()
        self._set_visible_at(seq, self._by_seq[seq], now, now)
        return True

    def clear(self) -> None:
        """Delete all messages."""
        for m in self._by_seq.values():
            self._service._account_delta(-m.size)
        self._by_seq = {}
        self._seq_of = {}
        self._visible = _FifoIndex()
        self._visible_until = -_INF
        self._hidden = []

    # -- introspection --------------------------------------------------------
    def messages(self) -> ValuesView[QueueMessage]:
        """Read-only live view of the stored messages, in FIFO order.

        Includes invisible messages and, until the next operation purges
        them, expired ones.  The messages are the queue's own records, not
        snapshots: do not mutate them.
        """
        return self._by_seq.values()

    def approximate_message_count(self) -> int:
        """Count of non-expired messages (visible or not).

        This is what Algorithm 2's barrier polls via ``GetMsgCount``; like
        the real service it counts invisible messages too.
        """
        self._purge_expired()
        return len(self._by_seq)

    def visible_message_count(self) -> int:
        """Count of currently visible messages (test/diagnostic helper)."""
        self._purge_expired()
        return len(self._visible_seqs(self._now()))

    def partition_key(self) -> str:
        """Queues are partitioned on the queue name alone (paper IV.B)."""
        return self.name

    def __len__(self) -> int:
        return self.approximate_message_count()


class QueueServiceState:
    """Root state of the queue service of one storage account."""

    def __init__(self, clock: Clock, limits: ServiceLimits = LIMITS_2012,
                 account=None, *, fifo_jitter_seed: Optional[int] = None) -> None:
        self._clock = clock
        self.limits = limits
        self._account = account
        self.queues: Dict[str, QueueState] = {}
        #: When set, visible-message selection is shuffled (non-FIFO model).
        self._reorder_rng = (
            np.random.default_rng(fifo_jitter_seed)
            if fifo_jitter_seed is not None else None
        )

    def _account_delta(self, delta: int) -> None:
        if self._account is not None:
            self._account.adjust_usage(delta)

    def create_queue(self, name: str, *, fail_on_exist: bool = False) -> QueueState:
        """Create a queue (idempotent unless ``fail_on_exist``)."""
        if name in self.queues:
            if fail_on_exist:
                raise ResourceExistsError(f"queue {name!r} already exists")
            return self.queues[name]
        queue = QueueState(self, name)
        self.queues[name] = queue
        return queue

    def get_queue(self, name: str) -> QueueState:
        try:
            return self.queues[name]
        except KeyError:
            raise QueueNotFoundError(f"queue {name!r} not found") from None

    def delete_queue(self, name: str) -> None:
        queue = self.get_queue(name)
        queue.clear()
        del self.queues[name]

    def list_queues(self, prefix: str = "") -> List[str]:
        return sorted(n for n in self.queues if n.startswith(prefix))

    def total_bytes(self) -> int:
        return sum(
            m.size for q in self.queues.values() for m in q.messages()
        )
