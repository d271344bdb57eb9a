"""Bounded channels connecting pipeline stages.

A deque guarded by condition variables, with close semantics: a closed
channel raises :class:`ChannelClosed` on the consumer side once
drained, which is how stage workers learn the stream has ended.
Bounded capacity gives natural backpressure — a slow stage slows its
upstream instead of queueing unboundedly.

Close is a flag, not an in-band sentinel, so closing never blocks —
even when the channel is at capacity — and never consumes a capacity
slot (the historical sentinel-based implementation could stall a
worker's shutdown path on a full channel).  Closing also wakes every
blocked producer (which then sees :class:`StreamError`) and consumer
(which drains the remaining items, then sees :class:`ChannelClosed`),
so no thread is ever left parked on a dead channel.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any

from ..errors import StreamError


class ChannelClosed(StreamError):
    """Raised by :meth:`Channel.get` once a closed channel drains."""


class Channel:
    """A bounded, closable FIFO between two pipeline stages."""

    def __init__(self, capacity: int = 8):
        if capacity < 1:
            raise StreamError("channel capacity must be >= 1")
        self._capacity = capacity
        self._items: deque = deque()
        self._closed = False
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)

    def put(self, item: Any, timeout: float | None = None) -> None:
        """Enqueue an item, blocking while the channel is full.

        Raises:
            StreamError: the channel is (or becomes, while blocked)
                closed, or the wait timed out.
        """
        with self._not_full:
            if self._closed:
                raise StreamError("cannot put into a closed channel")
            while len(self._items) >= self._capacity:
                if not self._not_full.wait(timeout=timeout):
                    raise StreamError(
                        f"channel put timed out after {timeout}s"
                    )
                if self._closed:
                    raise StreamError(
                        "cannot put into a closed channel"
                    )
            self._items.append(item)
            self._not_empty.notify()

    def wait_for_room(self) -> None:
        """Block until the channel has a free slot, without taking it.

        Admission waits here before it builds an item, so it never
        holds one the channel cannot take: the credit of credit-based
        flow control.  The slot is not reserved, but a channel with one
        producer keeps it until that producer's :meth:`put`.

        Raises:
            StreamError: the channel is (or becomes, while blocked)
                closed.
        """
        with self._not_full:
            while not self._closed \
                    and len(self._items) >= self._capacity:
                self._not_full.wait()
            if self._closed:
                raise StreamError("cannot put into a closed channel")

    def put_front(self, item: Any) -> None:
        """Re-inject an item at the head, ignoring capacity.

        Used by the supervisor to return a restarted worker's
        in-flight item to its inbound channel; permitted even after
        close (the item still drains before :class:`ChannelClosed`
        surfaces) because the upstream producer finishing does not
        cancel work already admitted.
        """
        with self._not_empty:
            self._items.appendleft(item)
            self._not_empty.notify()

    def get(self, timeout: float | None = None) -> Any:
        """Dequeue an item; raises :class:`ChannelClosed` at stream end.

        Args:
            timeout: max seconds to wait; None blocks indefinitely.

        Raises:
            ChannelClosed: the producer closed and everything is drained.
            StreamError: on timeout.
        """
        with self._not_empty:
            while not self._items:
                if self._closed:
                    raise ChannelClosed("channel closed")
                if not self._not_empty.wait(timeout=timeout):
                    raise StreamError(
                        f"channel get timed out after {timeout}s"
                    )
            item = self._items.popleft()
            self._not_full.notify()
            return item

    def close(self) -> None:
        """Signal end-of-stream; consumers drain then see ChannelClosed.

        Never blocks, regardless of queue fullness, and wakes all
        blocked producers and consumers.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()

    def drain(self) -> list:
        """Atomically remove and return everything still queued.

        Shutdown-path helper: lets a winding-down consumer claim all
        stranded items (to dead-letter them) without racing producers
        or other consumers.  Works on open and closed channels; wakes
        blocked producers since capacity was freed.
        """
        with self._lock:
            items = list(self._items)
            self._items.clear()
            if items:
                self._not_full.notify_all()
            return items

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def capacity(self) -> int:
        return self._capacity

    def approx_size(self) -> int:
        return len(self._items)
