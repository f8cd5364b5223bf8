"""Reference queue for differential tests: the plain list-scan semantics.

:class:`ScanQueue` keeps messages in one insertion-ordered list and finds
visible ones by scanning it on every get and peek, exactly as the queue
data plane did before it grew a visible-message index.  It is slow on
long queues and obviously right, which is what an oracle should be.
Only the data-plane behaviour is modelled: no naming checks, no
service-level bookkeeping.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import count
from typing import Callable, List, Optional

from repro.storage import (
    InvalidOperationError,
    MessageNotFoundError,
    MessageTooLargeError,
    QueueMessage,
    as_content,
)


class ScanQueue:
    """One queue as a list of messages, scanned for visibility."""

    def __init__(self, name: str, clock, limits, *, rng=None,
                 account_delta: Callable[[int], None] = lambda d: None
                 ) -> None:
        self.name = name
        self._clock = clock
        self._limits = limits
        self._rng = rng
        self._account_delta = account_delta
        self._messages: List[QueueMessage] = []
        self._ids = count(1)
        self._receipts = count(1)

    def _purge_expired(self) -> None:
        now = self._clock.now()
        kept = []
        for m in self._messages:
            if m.expired(now):
                self._account_delta(-m.size)
            else:
                kept.append(m)
        self._messages = kept

    def _visible_indices(self, limit: int) -> List[int]:
        now = self._clock.now()
        idx = [i for i, m in enumerate(self._messages) if m.visible(now)]
        if self._rng is not None and len(idx) > 1:
            idx = [idx[i] for i in self._rng.permutation(len(idx))]
        return idx[:limit]

    def _find(self, message_id: str) -> Optional[QueueMessage]:
        for m in self._messages:
            if m.message_id == message_id:
                return m
        return None

    def put_message(self, data, *, ttl: Optional[float] = None,
                    visibility_delay: float = 0.0) -> QueueMessage:
        content = as_content(data)
        if content.size > self._limits.max_message_payload_bytes:
            raise MessageTooLargeError("payload too large")
        if visibility_delay < 0:
            raise InvalidOperationError("visibility_delay must be >= 0")
        now = self._clock.now()
        max_ttl = self._limits.max_message_ttl_seconds
        if ttl is None or ttl > max_ttl:
            ttl = max_ttl
        msg = QueueMessage(
            message_id=f"{self.name}-{next(self._ids)}", content=content,
            insertion_time=now, expiration_time=now + ttl,
            next_visible_time=now + visibility_delay)
        self._account_delta(msg.size)
        self._messages.append(msg)
        return replace(msg)

    def get_messages(self, n: int = 1, *,
                     visibility_timeout: Optional[float] = None
                     ) -> List[QueueMessage]:
        self._purge_expired()
        if visibility_timeout is None:
            visibility_timeout = self._limits.default_visibility_timeout_seconds
        now = self._clock.now()
        got = []
        for i in self._visible_indices(n):
            m = self._messages[i]
            m.next_visible_time = now + visibility_timeout
            m.dequeue_count += 1
            m.pop_receipt = f"rcpt-{next(self._receipts)}"
            got.append(replace(m))
        return got

    def peek_messages(self, n: int = 1) -> List[QueueMessage]:
        self._purge_expired()
        return [replace(self._messages[i]) for i in self._visible_indices(n)]

    def visible_sizes(self, n: int = 1) -> List[int]:
        return [m.size for m in self.peek_messages(n)]

    def delete_message(self, message_id: str, pop_receipt: str) -> None:
        self._purge_expired()
        m = self._find(message_id)
        if m is None:
            raise MessageNotFoundError(f"message {message_id!r} not found")
        if m.pop_receipt != pop_receipt or pop_receipt is None:
            raise MessageNotFoundError(
                f"pop receipt {pop_receipt!r} no longer valid for "
                f"message {message_id!r}")
        self._account_delta(-m.size)
        self._messages.remove(m)

    def update_message(self, message_id: str, pop_receipt: str, data=None, *,
                       visibility_timeout: float = 0.0) -> QueueMessage:
        self._purge_expired()
        m = self._find(message_id)
        if m is None:
            raise MessageNotFoundError(f"message {message_id!r} not found")
        if m.pop_receipt != pop_receipt or pop_receipt is None:
            raise MessageNotFoundError(
                f"pop receipt {pop_receipt!r} no longer valid")
        if data is not None:
            content = as_content(data)
            self._account_delta(content.size - m.size)
            m.content = content
        m.next_visible_time = self._clock.now() + max(0.0, visibility_timeout)
        m.pop_receipt = f"rcpt-{next(self._receipts)}"
        return replace(m)

    def make_visible(self, message_id: str) -> bool:
        m = self._find(message_id)
        if m is None:
            return False
        m.next_visible_time = self._clock.now()
        return True

    def messages(self) -> List[QueueMessage]:
        return list(self._messages)

    def approximate_message_count(self) -> int:
        self._purge_expired()
        return len(self._messages)

    def visible_message_count(self) -> int:
        self._purge_expired()
        now = self._clock.now()
        return sum(1 for m in self._messages if m.visible(now))
