"""The serving layer's clocks: one virtual and deterministic, one real.

Everything in :mod:`repro.serve` tells time through a ``Clock`` so the
same service + load-generator code runs in two regimes:

* :class:`VirtualClock` — simulated time on the asyncio event loop.
  ``sleep``/``sleep_until`` register timers on a heap; nothing fires
  until a driver calls :meth:`VirtualClock.advance`, which jumps
  ``now`` to the earliest deadline, wakes every timer due there
  (registration order breaks ties), and then lets the loop settle.
  asyncio's ready queue is FIFO and no real I/O is involved, so a
  seeded workload replays **bit-for-bit**: same arrivals, same batch
  compositions, same virtual latencies.  This is the clock every test
  and every persisted load table uses.
* :class:`WallClock` — real time (:mod:`repro.obs.clockio` /
  ``asyncio.sleep``) for live soak runs where wall-clock throughput is
  the point.  Wall time comes from the project's one sanctioned shim,
  :func:`repro.obs.clockio.wall_now` (the ``repro-check`` D101 rule
  keeps direct reads out of everything else), so a determinism audit
  of the serving layer reduces to "which clock was injected".

The settle loop after :meth:`~VirtualClock.advance` re-yields to the
event loop until the clock's activity counter stops moving — timer
registrations, timer fires, and explicit :meth:`~VirtualClock.note`
calls (the service marks batch flushes) all bump it — so chained
wakeups (timer fires batcher -> batcher resolves request futures ->
clients record completions and register their next timers) complete
before virtual time moves again.
"""

from __future__ import annotations

import asyncio
import math
from typing import Protocol

from repro.obs.clockio import wall_now
from repro.simkit.event_queue import EventQueue


class Clock(Protocol):
    """What the serving layer needs from a time source."""

    #: True when a driver must pump :meth:`advance` for time to move.
    virtual: bool

    def now(self) -> float: ...

    async def sleep(self, delay: float) -> None: ...


class VirtualClock:
    """Deterministic simulated time for the asyncio serving stack."""

    virtual = True

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        #: Timers ride the simkit :class:`EventQueue`: the queue keeps
        #: one FIFO per deadline, so same-deadline wakeups fire in
        #: registration order (deterministic tie-breaking).
        self._timers = EventQueue()
        #: Monotone activity counter; the settle loop runs until one
        #: full yield round leaves it unchanged.
        self.activity = 0

    def now(self) -> float:
        return self._now

    def note(self) -> None:
        """Mark externally visible progress (keeps the settle loop going)."""
        self.activity += 1

    async def sleep(self, delay: float) -> None:
        await self.sleep_until(self._now + float(delay))

    async def sleep_until(self, when: float) -> None:
        when = float(when)
        if when <= self._now:
            # Already due: still yield once so a zero-delay sleep is a
            # cooperative scheduling point, exactly like asyncio.sleep(0).
            await asyncio.sleep(0)
            return
        fut = asyncio.get_running_loop().create_future()
        if when == math.inf:
            # "Sleep forever until cancelled": the event queue
            # rejects non-finite deadlines, so wait on the future
            # without queueing a timer — only cancellation ends the
            # wait, and :meth:`advance` correctly reports no live
            # deadline for it.
            self.activity += 1
            await fut
            return
        self._timers.push(when, fut)  # rejects NaN before registration
        self.activity += 1
        await fut

    async def advance(self) -> bool:
        """Jump to the earliest deadline and wake everything due there.

        Returns False when, after a settle round, no live timer is
        registered — the driver's signal that every remaining task is
        either finished or waiting on something other than time.
        Settling happens *before* the emptiness check so freshly
        created tasks get to run and register their first timers.
        """
        await self._settle()
        # Pop the earliest deadline group that still holds a live timer,
        # discarding cancelled ones; later groups stay queued, in
        # registration order, for the next advance.
        due: list[asyncio.Future] = []
        while not due:
            group = self._timers.pop_group()
            if group is None:
                return False
            when, futs = group
            due = [fut for fut in futs if not fut.cancelled()]
        self._now = when
        for fut in due:
            fut.set_result(None)
            self.activity += 1
        await self._settle()
        return True

    async def _settle(self) -> None:
        """Yield to the loop until a full round adds no new activity."""
        previous = None
        while previous != self.activity:
            previous = self.activity
            # Two yields per round: one lets just-woken tasks run, the
            # second lets anything they scheduled (resolved futures,
            # zero-delay sleeps) run too before we re-check.
            await asyncio.sleep(0)
            await asyncio.sleep(0)


class WallClock:
    """Real time — the wall-clock time source for live serving.

    Library code must never read the wall clock directly (repro-check
    D101); this class goes through the one sanctioned shim,
    :func:`repro.obs.clockio.wall_now`.  Injecting :class:`VirtualClock`
    instead must be sufficient to make any serve-layer run
    deterministic.
    """

    virtual = False

    def now(self) -> float:
        # Live soak latencies/throughput are wall-clock by definition;
        # every deterministic consumer injects VirtualClock instead.
        return wall_now()

    async def sleep(self, delay: float) -> None:
        await asyncio.sleep(delay)
