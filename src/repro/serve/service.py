"""Always-on asyncio routing service over the online fault model.

:class:`AsyncRoutingService` is the long-lived front-end the ROADMAP's
"millions of users" north star asks for: concurrent clients
``await service.route(s, d)``, a configurable **batching window**
coalesces everything that arrived during a tick into one
``route_batch`` call through the underlying
:class:`~repro.online.OnlineRoutingService`, **fault events preempt the
queue** — every request in flight is flushed at its submission epoch
*before* the model mutates, the same invariant PR 6's epoch sanitizer
enforces on the batch layer — and **admission control** sheds load once
the pending queue passes its depth bound instead of letting latency
grow without limit.

The service *owns* its model stack: the
:class:`~repro.online.DynamicFaultModel`, the per-class label arrays,
and the reach caches all live inside the one
``OnlineRoutingService`` it wraps (built through
:func:`repro.service.make_service`), so there is exactly one mutation
path (:meth:`apply_event`) and one query path (:meth:`route`).

SLO metrics are pollable at any time via :meth:`metrics`: completed /
shed request counts, latency percentiles (p50/p99/max in clock units),
throughput over the observation window, epoch lag at delivery, batch
shape, and the scoped-invalidation cache retention inherited from the
online router.  With a :class:`~repro.serve.clock.VirtualClock` the
whole pipeline — arrivals, batch composition, latencies, metrics — is
a pure function of the seed; with a
:class:`~repro.serve.clock.WallClock` the same code serves live
traffic.  See ``tests/test_serve.py`` for the determinism, preemption,
parity, and shedding contracts.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro import obs
from repro.online.dynamic_model import FaultEvent
from repro.online.service import OnlineRoutingService
from repro.routing.engine import RouteResult
from repro.serve.clock import Clock, VirtualClock
from repro.service import make_service
from repro.util.validation import check_shape_member, check_workload

#: Default batching window (clock units; seconds on a WallClock).
DEFAULT_BATCH_WINDOW = 0.001

#: Default admission-control bound on queued-but-unbatched requests.
DEFAULT_MAX_QUEUE_DEPTH = 4096


class ServiceOverloadError(RuntimeError):
    """Admission control shed this request (queue depth at bound)."""


class ServiceStoppedError(RuntimeError):
    """route() called while the service is not running."""


@dataclass(frozen=True)
class MetricsSnapshot:
    """One pollable view of the service's SLO counters.

    Latencies are in clock units (virtual units under a VirtualClock,
    seconds under the WallClock); percentiles are computed over every
    completion since the service started (or since the last
    :meth:`AsyncRoutingService.reset_metrics`).  ``epoch_lag_*``
    measure ``service epoch at delivery - result epoch``: how many
    fault events landed between a verdict's model state and the moment
    the client saw it.  ``cache_hit_rate`` is the online router's
    scoped-invalidation retention (reach-mask entries kept / probed).
    """

    requests: int
    completed: int
    shed: int
    events: int
    batches: int
    max_batch: int
    mean_batch: float
    p50_latency: float
    p99_latency: float
    max_latency: float
    throughput: float
    epoch_lag_mean: float
    epoch_lag_max: int
    cache_hit_rate: float
    epoch: int
    queue_depth: int

    def as_row(self) -> dict[str, float | int]:
        """The snapshot as a flat dict (ResultTable/JSONL friendly)."""
        return dict(self.__dict__)


class AsyncRoutingService:
    """Serve concurrent ``await route(s, d)`` traffic over churning faults.

    Usage::

        service = AsyncRoutingService(mask, mode="mcc", clock=clock)
        async with service:                  # starts the batching loop
            result = await service.route((0, 0, 0), (7, 7, 7))
        service.metrics()                    # pollable SLO snapshot

    The wrapped :class:`~repro.online.OnlineRoutingService` is built
    through :func:`make_service` from ``fault_mask`` and ``mode`` and is
    owned by this front-end alone.
    """

    def __init__(
        self,
        fault_mask: np.ndarray,
        *,
        mode: str = "mcc",
        clock: Clock | None = None,
        batch_window: float = DEFAULT_BATCH_WINDOW,
        max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH,
    ):
        check_workload({"batch_window": batch_window})
        if max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {max_queue_depth}"
            )
        self.online: OnlineRoutingService = make_service(
            fault_mask, mode=mode, online=True
        )
        self.clock: Clock = clock if clock is not None else VirtualClock()
        self.batch_window = float(batch_window)
        self.max_queue_depth = int(max_queue_depth)
        #: (future, (source, dest), arrival_time) awaiting the next tick.
        self._pending: list[tuple[asyncio.Future, tuple, float]] = []
        self._batcher: asyncio.Task | None = None
        self.reset_metrics()

    # -- lifecycle ---------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._batcher is not None and not self._batcher.done()

    async def start(self) -> "AsyncRoutingService":
        """Start the batching loop (idempotent)."""
        if not self.running:
            self._batcher = asyncio.get_running_loop().create_task(
                self._run(), name="repro-serve-batcher"
            )
        return self

    async def stop(self) -> None:
        """Flush anything still pending, then stop the batching loop."""
        self._flush_pending()
        if self._batcher is not None:
            self._batcher.cancel()
            try:
                await self._batcher
            except asyncio.CancelledError:
                pass
            self._batcher = None

    async def __aenter__(self) -> "AsyncRoutingService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- serving -----------------------------------------------------------

    async def route(
        self, source: Sequence[int], dest: Sequence[int]
    ) -> RouteResult:
        """Route one pair; resolves at the next batch tick or fault event.

        Raises :class:`ServiceOverloadError` immediately when admission
        control sheds the request (pending queue at its depth bound),
        :class:`ServiceStoppedError` when the batching loop is not
        running (nothing would ever resolve the future), and the
        :func:`~repro.util.validation.check_shape_member` error for an
        off-mesh endpoint — before queueing, since a raise inside the
        batching loop would strand every queued request.
        """
        if not self.running:
            raise ServiceStoppedError(
                "AsyncRoutingService.route() outside start()/stop() — "
                "use 'async with service:' or await service.start()"
            )
        shape = self.online.fault_mask.shape
        check_shape_member("source", source, shape)
        check_shape_member("dest", dest, shape)
        self._requests += 1
        if len(self._pending) >= self.max_queue_depth:
            self._shed += 1
            raise ServiceOverloadError(
                f"queue depth {len(self._pending)} at bound "
                f"{self.max_queue_depth}; request shed"
            )
        fut = asyncio.get_running_loop().create_future()
        self._pending.append((fut, (source, dest), self.clock.now()))
        result: RouteResult = await fut
        lag = self.online.epoch - result.epoch
        self._epoch_lag_total += lag
        self._epoch_lag_max = max(self._epoch_lag_max, lag)
        return result

    def apply_event(self, kind: str, cells: Iterable[Sequence[int]]) -> FaultEvent:
        """Apply one fault event, preempting the batching window.

        Every request already queued is flushed *first*, so it is
        answered at the epoch it arrived under (the same
        flush-before-mutate contract :meth:`OnlineRoutingService.inject`
        keeps for its own queue — PR 6's epoch sanitizer checks both
        layers when ``REPRO_SANITIZE=1``).
        """
        if kind not in ("inject", "repair"):
            raise ValueError(f"unknown fault-event kind {kind!r}")
        with obs.span("serve_preempt", cat="serve", kind=kind) as sp:
            sp.set_vt(start=self.clock.now())
            self._flush_pending()
            event = (
                self.online.inject(cells)
                if kind == "inject"
                else self.online.repair(cells)
            )
            self._events += 1
            sp.set_vt(end=self.clock.now())
            sp.set(epoch=event.epoch)
        return event

    # -- internals ---------------------------------------------------------

    async def _run(self) -> None:
        while True:
            await self.clock.sleep(self.batch_window)
            self._flush_pending()

    def _flush_pending(self) -> None:
        """Coalesce the pending queue into one batched online call."""
        if not self._pending:
            return
        with obs.span("serve_tick", cat="serve", batch=len(self._pending)) as sp:
            sp.set_vt(start=self.clock.now())
            batch, self._pending = self._pending, []
            tickets = [
                self.online.submit(source, dest) for _, (source, dest), _ in batch
            ]
            flushed = self.online.flush()
            self.online.take_completed()  # drain the service-side done dict
            now = self.clock.now()
            self._batches += 1
            self._max_batch = max(self._max_batch, len(batch))
            for (fut, _pair, arrived), ticket in zip(batch, tickets, strict=True):
                result = flushed[ticket]
                self._completed += 1
                self._latencies.append(now - arrived)
                if not fut.cancelled():
                    fut.set_result(result)
            sp.set_vt(end=now)
        if getattr(self.clock, "virtual", False):
            self.clock.note()  # keep the driver's settle loop alive

    # -- metrics -----------------------------------------------------------

    def reset_metrics(self) -> None:
        """Zero every SLO counter and restart the observation window."""
        self._requests = 0
        self._completed = 0
        self._shed = 0
        self._events = 0
        self._batches = 0
        self._max_batch = 0
        self._latencies: list[float] = []
        self._epoch_lag_total = 0
        self._epoch_lag_max = 0
        self._window_start = self.clock.now()

    def metrics(self) -> MetricsSnapshot:
        """Snapshot the SLO counters (cheap; callable at any time)."""
        p50 = obs.percentile(self._latencies, 50)
        p99 = obs.percentile(self._latencies, 99)
        peak = float(max(self._latencies, default=0.0))
        elapsed = self.clock.now() - self._window_start
        router = self.online.router
        probes = router.evicted + router.retained
        return MetricsSnapshot(
            requests=self._requests,
            completed=self._completed,
            shed=self._shed,
            events=self._events,
            batches=self._batches,
            max_batch=self._max_batch,
            mean_batch=(
                self._completed / self._batches if self._batches else 0.0
            ),
            p50_latency=p50,
            p99_latency=p99,
            max_latency=peak,
            throughput=self._completed / elapsed if elapsed > 0 else 0.0,
            epoch_lag_mean=(
                self._epoch_lag_total / self._completed
                if self._completed
                else 0.0
            ),
            epoch_lag_max=self._epoch_lag_max,
            cache_hit_rate=router.retained / probes if probes else 1.0,
            epoch=self.online.epoch,
            queue_depth=len(self._pending),
        )
