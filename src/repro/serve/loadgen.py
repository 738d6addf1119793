"""Load harness for the async serving layer: seeded, replayable traffic.

A :class:`RequestTrace` is generated up front from one
:class:`numpy.random.Generator`: Poisson arrivals whose rate follows a
**profile** (``soak`` constant, ``ramp`` stepping up through stages,
``spike`` with a mid-run burst), pairs sampled among the initially
healthy cells, and optional fault-event times on a fixed cadence.  The
trace is pure data — replaying the same seed replays the same trace.

:func:`run_load` drives one trace against an
:class:`~repro.serve.service.AsyncRoutingService`: every request is an
asyncio client task that sleeps until its arrival time and awaits
``service.route``; an event task draws from the shared
:class:`~repro.online.FaultEventStream` at each event time and preempts
the batch queue via ``service.apply_event``.  On a
:class:`~repro.serve.clock.VirtualClock` the harness pumps
:meth:`~repro.serve.clock.VirtualClock.advance` until every client
resolves — fully deterministic; on the wall clock the same tasks just
run live.

:func:`run_offered_load_sweep` is the headline deliverable: one row per
offered load level with latency percentiles, throughput, shed and
delivery rates — the latency-vs-offered-load table, persisted through
the standard :class:`~repro.util.records.ResultTable` JSONL format and
byte-identical for any rerun of the same seed (CI-gated in
``benchmarks/bench_serve_soak.py``).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro import obs
from repro.experiments.workloads import random_fault_mask, sample_safe_pair
from repro.mesh.coords import Coord
from repro.online.events import FaultEventStream
from repro.serve.clock import VirtualClock
from repro.serve.service import AsyncRoutingService, ServiceOverloadError
from repro.util.records import ResultTable
from repro.util.rng import SeedLike, as_seed_sequence, make_rng
from repro.util.validation import check_workload

PROFILES = ("soak", "ramp", "spike")

#: Ramp profile: stages climb linearly to this multiple of the base rate.
RAMP_PEAK_FACTOR = 3.0
#: Spike profile: burst multiplier over the middle fifth of the run.
SPIKE_FACTOR = 10.0


@dataclass(frozen=True)
class TracedRequest:
    """One offered request: arrival time plus its (source, dest) pair."""

    arrival: float
    source: Coord
    dest: Coord


@dataclass(frozen=True)
class RequestTrace:
    """A replayable offered-load schedule for one fault pattern."""

    shape: tuple[int, ...]
    fault_count: int
    profile: str
    rate: float  # mean offered requests per clock unit (base rate)
    duration: float
    requests: tuple[TracedRequest, ...]
    event_times: tuple[float, ...]
    churn: int
    seed_mask: np.ndarray = field(repr=False, compare=False)

    @property
    def offered(self) -> int:
        return len(self.requests)


def _rate_at(profile: str, t: float, duration: float, rate: float) -> float:
    """Offered rate at time ``t`` under the profile (piecewise constant)."""
    if profile == "soak":
        return rate
    if profile == "ramp":
        # Four equal stages stepping linearly up to RAMP_PEAK_FACTOR.
        stage = min(3, int(4 * t / duration))
        return rate * (1.0 + (RAMP_PEAK_FACTOR - 1.0) * stage / 3.0)
    if profile == "spike":
        lo, hi = 0.4 * duration, 0.6 * duration
        return rate * SPIKE_FACTOR if lo <= t < hi else rate
    raise ValueError(f"unknown profile {profile!r}; pick from {PROFILES}")


def make_trace(
    shape: Sequence[int],
    fault_count: int,
    *,
    profile: str = "soak",
    rate: float = 200.0,
    duration: float = 1.0,
    events: int = 0,
    churn: int = 2,
    seed: SeedLike = 2005,
    min_distance: int = 2,
) -> RequestTrace:
    """Generate one replayable trace (mask, arrivals, pairs, event times).

    Arrivals are a time-varying Poisson process: exponential
    inter-arrival draws at the profile's instantaneous rate.  Pairs are
    sampled among the cells healthy in the *seed* mask (churn may fault
    some mid-run — that is the point: those requests exercise the
    endpoint-faulty path).  ``events`` fault events are spread evenly
    across the run, each churning ``churn`` cells when replayed.
    ``rate`` and ``duration`` must be finite and > 0, ``churn`` at least
    1 and ``events`` at least 0 (:func:`check_workload`).
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; pick from {PROFILES}")
    check_workload(
        {"rate": rate, "duration": duration, "churn": churn, "events": events}
    )
    rng = make_rng(seed)
    shape = tuple(int(k) for k in shape)
    mask = random_fault_mask(shape, int(fault_count), rng=rng)
    healthy = ~mask
    requests: list[TracedRequest] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / _rate_at(profile, t, duration, rate)))
        if t >= duration:
            break
        pair = sample_safe_pair(healthy, rng=rng, min_distance=min_distance)
        if pair is None:
            continue
        source, dest = pair
        requests.append(TracedRequest(arrival=t, source=source, dest=dest))
    event_times = tuple(
        duration * (k + 1) / (events + 1) for k in range(int(events))
    )
    return RequestTrace(
        shape=shape,
        fault_count=int(fault_count),
        profile=profile,
        rate=float(rate),
        duration=float(duration),
        requests=tuple(requests),
        event_times=event_times,
        churn=int(churn),
        seed_mask=mask,
    )


@dataclass(frozen=True)
class CompletedRequest:
    """One request's outcome as observed by its client task."""

    index: int
    arrival: float
    completed: float
    latency: float
    status: str  # "delivered" | "infeasible" | "stuck" | "shed"
    epoch: int  # -1 for shed requests (no verdict was computed)


async def run_load(
    service: AsyncRoutingService,
    trace: RequestTrace,
    event_rng: np.random.Generator | None = None,
) -> list[CompletedRequest]:
    """Drive one trace through the service; per-request records in order.

    The service must be built over ``trace.seed_mask`` (the harness
    checks) and not yet started — :func:`run_load` owns the lifecycle.
    ``event_rng`` seeds the :class:`FaultEventStream` drawing the churn
    cells at each traced event time (defaults to a fixed child of the
    trace content, so replays stay deterministic).
    """
    if not np.array_equal(service.online.fault_mask, trace.seed_mask):
        raise ValueError("service fault mask does not match the trace's seed mask")
    clock = service.clock
    records: list[CompletedRequest | None] = [None] * len(trace.requests)

    async def client(index: int, req: TracedRequest) -> None:
        await clock.sleep(max(0.0, req.arrival - clock.now()))
        arrival = clock.now()
        try:
            result = await service.route(req.source, req.dest)
        except ServiceOverloadError:
            records[index] = CompletedRequest(
                index=index,
                arrival=arrival,
                completed=clock.now(),
                latency=0.0,
                status="shed",
                epoch=-1,
            )
            return
        if result.delivered:
            status = "delivered"
        elif result.feasible is False:
            status = "infeasible"
        else:
            status = "stuck"
        done = clock.now()
        records[index] = CompletedRequest(
            index=index,
            arrival=arrival,
            completed=done,
            latency=done - arrival,
            status=status,
            epoch=result.epoch,
        )

    async def event_driver() -> None:
        if not trace.event_times:
            return
        rng = event_rng if event_rng is not None else np.random.default_rng(
            np.random.SeedSequence([trace.fault_count, len(trace.requests)])
        )
        stream = FaultEventStream(trace.churn, rng)
        for k, when in enumerate(trace.event_times):
            await clock.sleep(max(0.0, when - clock.now()))
            drawn = stream.next_event(service.online.fault_mask, k)
            if drawn is not None:
                service.apply_event(drawn.kind, drawn.cells)

    async with service:
        tasks = [
            asyncio.get_running_loop().create_task(client(i, req))
            for i, req in enumerate(trace.requests)
        ]
        tasks.append(
            asyncio.get_running_loop().create_task(event_driver())
        )
        gathered = asyncio.gather(*tasks)
        if getattr(clock, "virtual", False):
            while not gathered.done():
                progressed = await clock.advance()
                if not progressed and not gathered.done():
                    # No live timer and clients still pending: only the
                    # batcher can resolve them, and it always keeps a
                    # timer registered — so this is a real stall.
                    raise RuntimeError(
                        "virtual-clock load run stalled with pending clients"
                    )
        await gathered
    out = [r for r in records if r is not None]
    if len(out) != len(trace.requests):
        raise RuntimeError("some client tasks finished without a record")
    return out


def summarize(
    trace: RequestTrace, records: Sequence[CompletedRequest]
) -> dict[str, float | int]:
    """One table row: offered load vs latency percentiles and SLO rates."""
    served = [r for r in records if r.status != "shed"]
    latencies = [r.latency for r in served]
    completed_span = max((r.completed for r in served), default=0.0)
    row: dict[str, float | int] = {
        "profile": trace.profile,
        "offered_rate": trace.rate,
        "offered": trace.offered,
        "served": len(served),
        "shed": sum(r.status == "shed" for r in records),
        "delivered_rate": (
            sum(r.status == "delivered" for r in served) / len(served)
            if served
            else 0.0
        ),
        "p50_latency": obs.percentile(latencies, 50),
        "p90_latency": obs.percentile(latencies, 90),
        "p99_latency": obs.percentile(latencies, 99),
        "throughput": (
            len(served) / completed_span if completed_span > 0 else 0.0
        ),
        "events": len(trace.event_times),
    }
    return row


def run_offered_load_sweep(
    shape: Sequence[int],
    fault_count: int,
    rates: Sequence[float],
    *,
    profile: str = "soak",
    duration: float = 1.0,
    events: int = 0,
    churn: int = 2,
    batch_window: float = 0.01,
    max_queue_depth: int = 4096,
    mode: str = "mcc",
    seed: SeedLike = 2005,
    save: str | None = None,
    trace_out: str | None = None,
) -> ResultTable:
    """The latency-percentile-vs-offered-load table (seed-replayable).

    One sub-trace per offered rate, all derived positionally from
    ``seed`` (the same spawn discipline as the sharded sweeps), each
    run on its own service + fresh :class:`VirtualClock`, so the whole
    table — and its ``save``d JSONL bytes — is a pure function of the
    arguments.

    ``trace_out`` writes a Perfetto trace-event JSON of the sweep's
    spans (one track per offered rate: serve ticks, preemptions, and
    everything the online model does beneath them).  Tracing never
    changes the table.

    Every rate, ``duration``, ``churn`` and ``events`` go through
    :func:`check_workload` before the first rate runs.
    """
    check_workload(
        {"rates": rates, "duration": duration, "churn": churn, "events": events}
    )
    tracer = obs.Tracer() if trace_out is not None else None
    seqs = as_seed_sequence(seed).spawn(len(rates))
    table = ResultTable(
        title=(
            f"T7s serve load sweep — {'x'.join(map(str, shape))} mesh, "
            f"{fault_count} faults, profile {profile}, duration {duration}, "
            f"window {batch_window}, mode {mode}"
        )
    )
    for rate, seq in zip(rates, seqs, strict=True):
        trace = make_trace(
            shape,
            fault_count,
            profile=profile,
            rate=float(rate),
            duration=duration,
            events=events,
            churn=churn,
            seed=seq,
        )
        service = AsyncRoutingService(
            trace.seed_mask.copy(),
            mode=mode,
            clock=VirtualClock(),
            batch_window=batch_window,
            max_queue_depth=max_queue_depth,
        )
        if tracer is None:
            records = asyncio.run(run_load(service, trace))
        else:
            rate_tracer = obs.Tracer(track=f"rate-{rate:g}")
            with obs.tracing(rate_tracer):
                records = asyncio.run(run_load(service, trace))
            tracer.absorb([sp.to_dict() for sp in rate_tracer.spans])
        table.add(**summarize(trace, records))
    if tracer is not None:
        obs.write_perfetto(trace_out, tracer.spans)
    if save is not None:
        table.save(save)
    return table
