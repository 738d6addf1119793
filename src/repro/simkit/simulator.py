"""The simulation executive: clock + event loop.

An event is an action and its positional arguments, scheduled the way
asyncio's ``call_later`` takes them: ``schedule(delay, action, *args)``
queues the pair ``(action, args)`` in one FIFO slot and the loop calls
``action(*args)``.  No event builds a closure, nothing is cancelled,
and the loop visits the queue once per timestamp: it pops that time's
whole FIFO and runs it in push order.  Timers and actions come through
:meth:`Simulator.schedule`; an uncontended message send pushes its
``(deliver, (network, msg))`` pair onto ``queue`` itself (see
:meth:`repro.simkit.network.MeshNetwork.transmit`).
"""

from __future__ import annotations

import math
from typing import Any, Callable

from repro import obs
from repro.simkit.event_queue import EventQueue


class Simulator:
    """Drives an :class:`EventQueue` with a monotone simulation clock."""

    def __init__(self) -> None:
        self.queue = EventQueue()
        self.now: float = 0.0
        self.events_processed: int = 0
        #: Optional event observer with ``before_event(now)`` /
        #: ``after_event()`` hooks, called around every executed action.
        #: The session-isolation sanitizer
        #: (:func:`repro.analysis.sanitize.sanitize_network`) attaches
        #: here.  ``run`` reads it once at entry, so attach it before
        #: starting a run, never from inside an event action.
        self.observer = None

    def schedule(self, delay: float, action: Callable[..., Any], *args: Any) -> None:
        """Call ``action(*args)`` after ``delay`` time units."""
        # Same guard as EventQueue.push: the chained comparison rejects
        # NaN, which a plain ``delay < 0`` would let in.
        if not 0.0 <= delay < math.inf:
            raise ValueError(f"delay must be finite and non-negative, got {delay}")
        self.queue.push(self.now + delay, (action, args))

    def run(
        self,
        until: float | None = None,
        max_events: int | None = None,
    ) -> int:
        """Process events in time order.

        Stops when the queue drains, when the next event would pass
        ``until``, or after ``max_events`` events (a runaway-protocol
        guard).  Returns the number of events processed by this call.
        An action that raises ends the run; ``events_processed`` still
        counts every event that ran, including the one that raised.

        Each turn pops the earliest time's FIFO (``pop_group``) and runs
        it in push order.  An event an action pushes at that same time
        joins the next group, so it still runs after the FIFO.  While
        the FIFO runs, its events not yet run are held here, outside the
        queue; when the run stops inside it, by the budget or a raise,
        they go back to the front of their time (``put_back``), so the
        queue then holds exactly the events not yet run.
        """
        if max_events is not None and max_events < 0:
            raise ValueError(f"max_events must be non-negative, got {max_events}")
        queue = self.queue
        observer = self.observer
        now = self.now
        # The count starts at 0 and only rises, so -1 is no budget.
        budget = -1 if max_events is None else max_events
        processed = 0
        time = fifo = None
        try:
            while processed != budget:
                if until is not None:
                    next_time = queue.peek_time()
                    if next_time is None or next_time > until:
                        break
                group = queue.pop_group()
                if group is None:
                    break
                time, fifo = group
                if time > now:
                    now = self.now = time
                popleft = fifo.popleft
                while fifo and processed != budget:
                    action, args = popleft()
                    processed += 1
                    if observer is None:
                        action(*args)
                    else:
                        observer.before_event(now)
                        try:
                            action(*args)
                        finally:
                            observer.after_event()
        finally:
            if fifo:
                queue.put_back(time, fifo)
            self.events_processed += processed
        return processed

    def run_to_quiescence(self, max_events: int = 10_000_000) -> int:
        """Drain the queue completely (protocol convergence).

        Raises ``RuntimeError`` if the event budget is exhausted — a
        protocol that never quiesces is a bug worth failing loudly on.
        """
        with obs.span("run_to_quiescence", cat="des") as sp:
            sp.set_vt(start=self.now)
            before = self.events_processed
            try:
                processed = self.run(max_events=max_events)
            finally:
                sp.set_vt(end=self.now)
                sp.set(events=self.events_processed - before)
        if self.queue.peek_time() is not None:
            raise RuntimeError(
                f"simulation did not quiesce within {max_events} events "
                f"(t={self.now}, pending={len(self.queue)})"
            )
        return processed

    @property
    def idle(self) -> bool:
        return self.queue.peek_time() is None
