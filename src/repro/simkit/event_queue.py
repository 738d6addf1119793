"""Deterministic event queue: a binary heap with lazy cancellation.

Events pop in ``(time, seq)`` order, where ``seq`` is a monotone
insertion counter — events at equal timestamps fire in insertion
order, so simulations are bit-for-bit reproducible.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable

__all__ = ["EventQueue"]


class EventQueue:
    """Min-heap of ``[time, seq, action, queue]`` entries.

    A push returns its entry as the cancel handle; :meth:`cancel` nulls
    the action slot and the entry is dropped when it reaches the top.
    The trailing queue tag makes cancelling a handle from another queue
    instance (or any caller list that merely looks like an entry) a
    no-op.  ``seq`` is unique within a queue, so heap comparisons never
    reach the action slot.
    """

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: list[list] = []
        self._seq = 0

    def push(self, time: float, action: Callable[[], Any]) -> list:
        """Schedule ``action`` at ``time``; returns an opaque handle.

        Pass the handle to :meth:`cancel` and nothing else.
        """
        time = float(time)
        # A chained comparison rejects NaN too: it compares False
        # against everything, which a plain ``time < 0`` would let in.
        if not 0.0 <= time < math.inf:
            raise ValueError(f"event time must be finite and non-negative, got {time}")
        entry = [time, self._seq, action, self]
        self._seq += 1
        heapq.heappush(self._heap, entry)
        return entry

    def cancel(self, handle) -> None:
        """Cancel a scheduled event.

        Fired, already cancelled, unknown and foreign handles are
        no-ops: a fired entry has left the heap, so nulling its action
        changes nothing.
        """
        if type(handle) is list and len(handle) == 4 and handle[3] is self:
            handle[2] = None

    def pop(self) -> tuple[float, Callable[[], Any]] | None:
        """Earliest live ``(time, action)``, or None when empty."""
        heap = self._heap
        while heap:
            time, _, action, _ = heapq.heappop(heap)
            if action is not None:
                return time, action
        return None

    def peek_time(self) -> float | None:
        """Timestamp of the next live event without removing it."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[2] is not None:
                return entry[0]
            heapq.heappop(heap)
        return None

    def __len__(self) -> int:
        # O(n): only error paths and tests count the queue.
        return sum(1 for entry in self._heap if entry[2] is not None)

    def __bool__(self) -> bool:
        return self.peek_time() is not None
