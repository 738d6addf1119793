"""Deterministic event queue: one FIFO per timestamp, a heap of times.

Events run in ``(time, seq)`` order, where ``seq`` is push order:
events at equal timestamps fire in the order they were pushed, so
simulations are bit-for-bit reproducible.  The order holds by
construction rather than by a counter: equal times share one FIFO, a
push appends to its time's FIFO, and a heap holds each pending time
once.  Protocol messages arrive one link delay after the event that sent
them, so a DES run has few distinct times with many events at each: a
push is one ``deque`` append that never touches the heap, and a client
takes a whole time's FIFO at once (:meth:`EventQueue.pop_group`).
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Any

__all__ = ["EventQueue"]


class EventQueue:
    """Per-timestamp FIFOs of items.

    ``_fifos`` maps each pending time to the deque of its items in push
    order, and ``_times`` is a heap holding each of those times once; a
    FIFO leaves both when it is popped.  Items are opaque: the queue
    stores each in one FIFO slot and hands it back, and never calls,
    compares or looks inside one.  Nothing is cancelled: every pushed
    item is popped once, unless a client puts it back unused.
    """

    __slots__ = ("_times", "_fifos")

    def __init__(self) -> None:
        self._times: list[float] = []
        self._fifos: dict[float, deque] = {}

    def push(self, time: float, item: Any) -> None:
        """Schedule ``item`` at ``time``."""
        time = float(time)
        # A chained comparison rejects NaN too: it compares False
        # against everything, which a plain ``time < 0`` would let in.
        if not 0.0 <= time < math.inf:
            raise ValueError(f"event time must be finite and non-negative, got {time}")
        fifo = self._fifos.get(time)
        if fifo is None:
            self._fifos[time] = deque((item,))
            heapq.heappush(self._times, time)
        else:
            fifo.append(item)

    def pop_group(self) -> tuple[float, deque] | None:
        """The earliest time and its FIFO, removed; None when empty.

        The FIFO holds every item pushed at that time so far, in push
        order, and now belongs to the caller.  A later push at the same
        time starts a new FIFO, which pops as the next group, so items
        still come out in ``(time, push order)``.
        """
        times = self._times
        if not times:
            return None
        time = heapq.heappop(times)
        return time, self._fifos.pop(time)

    def put_back(self, time: float, rest: deque) -> None:
        """Return the unused ``rest`` of a group popped at ``time``.

        ``rest`` goes ahead of anything pushed at ``time`` since the pop,
        so the queue holds its items in ``(time, push order)`` again.
        """
        if not rest:
            return
        fifo = self._fifos.get(time)
        if fifo is None:
            heapq.heappush(self._times, time)
        else:
            rest.extend(fifo)
        self._fifos[time] = rest

    def peek_time(self) -> float | None:
        """Timestamp of the next group without removing it."""
        times = self._times
        return times[0] if times else None

    def __len__(self) -> int:
        return sum(map(len, self._fifos.values()))

    def __bool__(self) -> bool:
        return bool(self._times)
