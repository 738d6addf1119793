"""Deterministic event queue: one FIFO per timestamp, a heap of times.

Events pop in ``(time, seq)`` order, where ``seq`` is push order:
events at equal timestamps fire in the order they were pushed, so
simulations are bit-for-bit reproducible.  The order holds by
construction rather than by a counter: equal times share one FIFO, a
push appends to its time's FIFO, and a heap holds each pending time
once.  Protocol messages arrive one link delay after the event that sent
them, so a DES run has few distinct times with many events at each, and
most pushes and pops are one ``deque`` operation that never touches the
heap.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Any

__all__ = ["EventQueue"]


class EventQueue:
    """Per-timestamp FIFOs of ``[item, queue]`` entries.

    ``_fifos`` maps each pending time to the deque of its entries in
    push order, and ``_times`` is a heap holding each of those times
    once; a FIFO leaves both as soon as it empties.  Items are opaque:
    the queue stores and returns them and never calls or compares them.

    A push returns its entry as the cancel handle; :meth:`cancel` nulls
    the item slot and the entry is dropped when it reaches its FIFO's
    head.  The trailing queue tag makes cancelling a handle from another
    queue instance (or any caller list that merely looks like an entry)
    a no-op.
    """

    __slots__ = ("_times", "_fifos")

    def __init__(self) -> None:
        self._times: list[float] = []
        self._fifos: dict[float, deque[list]] = {}

    def push(self, time: float, item: Any) -> list:
        """Schedule ``item`` at ``time``; returns an opaque handle.

        Pass the handle to :meth:`cancel` and nothing else.
        """
        time = float(time)
        # A chained comparison rejects NaN too: it compares False
        # against everything, which a plain ``time < 0`` would let in.
        if not 0.0 <= time < math.inf:
            raise ValueError(f"event time must be finite and non-negative, got {time}")
        entry = [item, self]
        fifo = self._fifos.get(time)
        if fifo is None:
            self._fifos[time] = deque((entry,))
            heapq.heappush(self._times, time)
        else:
            fifo.append(entry)
        return entry

    def cancel(self, handle) -> None:
        """Cancel a scheduled event.

        Fired, already cancelled, unknown and foreign handles are
        no-ops: a fired entry has left its FIFO, so nulling its item
        changes nothing.
        """
        if type(handle) is list and len(handle) == 2 and handle[1] is self:
            handle[0] = None

    def pop(self) -> tuple[float, Any] | None:
        """Earliest live ``(time, item)``, or None when empty."""
        times = self._times
        fifos = self._fifos
        while times:
            time = times[0]
            fifo = fifos[time]
            item = fifo.popleft()[0]
            if not fifo:
                heapq.heappop(times)
                del fifos[time]
            if item is not None:
                return time, item
        return None

    def peek_time(self) -> float | None:
        """Timestamp of the next live event without removing it."""
        times = self._times
        fifos = self._fifos
        while times:
            time = times[0]
            fifo = fifos[time]
            while fifo:
                if fifo[0][0] is not None:
                    return time
                fifo.popleft()
            heapq.heappop(times)
            del fifos[time]
        return None

    def __len__(self) -> int:
        # O(n): only error paths and tests count the queue.
        return sum(
            1 for fifo in self._fifos.values() for entry in fifo if entry[0] is not None
        )

    def __bool__(self) -> bool:
        return self.peek_time() is not None
