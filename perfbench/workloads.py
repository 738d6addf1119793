"""The three benchmark workloads: inputs, one timed pass, output checks.

Each workload generates every input from the seed in ``__init__`` (the
set-up phase) with the repository's own generators, then runs any
number of identical *passes*.  A pass starts from cold program caches
and fresh service/pipeline objects, times the phase that begins at the
first call building a model, service, network or pipeline, and returns
its outputs.  ``check`` validates one pass's outputs outside the timed
phase; ``digest`` hashes the deterministic outputs and the exact counts
read from program state, so two passes (or two runs, traced or not)
agree bit for bit or the run fails.

Why these three (see README.md for the layer map):

* ``static-sweep`` builds fault models from scratch and nothing else;
* ``des-lifecycle`` runs the message-passing protocol under churn and
  no numpy routing kernel;
* ``serve-churn`` serves live traffic over incremental relabelling,
  with no walls, no DES and no from-scratch labelling.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import gc
import hashlib
import json
import time

import numpy as np

from repro.core.labelling import label_grid
from repro.core.model_cache import clear_labelling_cache
from repro.distributed.pipeline import DistributedMCCPipeline
from repro.experiments.workloads import random_fault_mask, sample_safe_pair
from repro.mesh.coords import manhattan
from repro.mesh.orientation import Orientation
from repro.mesh.topology import Mesh
from repro.online.events import FaultEventStream
from repro.serve.clock import VirtualClock
from repro.serve.loadgen import make_trace, run_load
from repro.serve.service import AsyncRoutingService
from repro.service import make_service


def _rng(seed: int, stream: int) -> np.random.Generator:
    """An independent generator per input stream of one seed."""
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def _canonical(pair):
    a, b = pair
    return (
        tuple(min(x, y) for x, y in zip(a, b, strict=True)),
        tuple(max(x, y) for x, y in zip(a, b, strict=True)),
    )


def _healthy_pairs(mask, count, rng, canonical=False):
    pairs = []
    while len(pairs) < count:
        pair = sample_safe_pair(~mask, rng=rng, min_distance=2)
        if pair is None:
            raise RuntimeError("no healthy pair left in the fault pattern")
        pairs.append(_canonical(pair) if canonical else pair)
    return pairs


def digest_of(obj) -> str:
    """Stable short hash of a JSON-able structure."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.blake2b(text.encode(), digest_size=12).hexdigest()


#: Nominal time of one calibration point: normalized seconds are
#: seconds at the host speed where :func:`calibrate` returns this.
REF_ROUND_S = 5.0e-4
_CAL_GRID = np.zeros((16, 16, 16), dtype=bool)
_CAL_GRID[3, 4, 5] = True


def _round() -> float:
    t0 = time.perf_counter()
    acc, table = 0, {}
    for k in range(2000):
        acc += k * k
        table[k & 63] = acc
    grid = _CAL_GRID
    for _ in range(30):
        grid = np.roll(grid, 1, axis=0) | _CAL_GRID
        int(grid.sum())
    return time.perf_counter() - t0


def calibrate() -> float:
    """Time a fixed round of interpreter and small-array numpy work.

    The shared host's speed drifts by tens of percent over seconds to
    minutes, for this process's CPU time as much as for its wall time.
    The program's units run interpreter-bound Python and numpy calls on
    mesh-sized arrays; the round does the same mix, so its time next to
    a unit measures the speed that unit ran at.  The fastest of three
    rounds discards an interrupt that hit one of them.
    """
    return min(_round(), _round(), _round())


class PassResult:
    """One pass: per-unit times plus the pass's outputs."""

    def __init__(self, units, outputs, counts, samples=None):
        #: unit name -> (wall s, cpu s, speed), in pass order; speed is
        #: the calibration round's nominal time over its time around
        #: the unit (1.0 = reference speed, 0.8 = host 20% slower).
        self.units = units
        self.outputs = outputs
        #: Exact counts read from program state (determinism checks).
        self.counts = counts
        #: unit names of per-operation samples, by kind (serve-churn).
        self.samples = samples or {}

    @property
    def wall_s(self) -> float:
        return sum(u[0] for u in self.units.values())


class _Pass:
    """The timed phase of one pass: cold caches, then timed units.

    A calibration point is taken at every unit boundary; a unit's speed
    is derived from the points before and after it.  Calibration time
    spent inside a unit (the boundaries of units nested in it) is not
    the unit's time.
    """

    def __init__(self, prof):
        clear_labelling_cache()
        gc.collect()
        self.units = {}
        self._prof = prof
        self._spent = [0.0, 0.0]  # calibration wall, cpu
        self._cal = calibrate()

    @contextlib.contextmanager
    def unit(self, key):
        spent_wall, spent_cpu = self._spent
        c0 = time.process_time()
        t0 = time.perf_counter()
        yield
        wall = time.perf_counter() - t0 - (self._spent[0] - spent_wall)
        cpu = time.process_time() - c0 - (self._spent[1] - spent_cpu)
        c1 = time.process_time()
        t1 = time.perf_counter()
        before, self._cal = self._cal, self._prof.outside(calibrate)
        self._spent[0] += time.perf_counter() - t1
        self._spent[1] += time.process_time() - c1
        self.units[key] = (wall, cpu, 2 * REF_ROUND_S / (before + self._cal))


# -- static-sweep ---------------------------------------------------------------


class StaticSweep:
    """T2b's shape: score fresh services over four fault densities."""

    name = "static-sweep"
    SHAPE = (16, 16, 16)
    FAULTS = (20, 82, 205, 410)
    PAIRS = 300
    MODES = ("oracle", "mcc", "rfb")

    def __init__(self, seed: int):
        rng = _rng(seed, 1)
        self.patterns = []
        for count in self.FAULTS:
            mask = random_fault_mask(self.SHAPE, count, rng=rng)
            self.patterns.append((mask, _healthy_pairs(mask, self.PAIRS, rng)))

    @property
    def ops(self) -> int:
        return len(self.patterns) * self.PAIRS * len(self.MODES)

    def run_pass(self, prof) -> PassResult:
        verdicts = []
        timed = _Pass(prof)
        for index, (mask, pairs) in enumerate(self.patterns):
            with prof.region("pattern", f"pattern {index}"):
                scored = {}
                for mode in self.MODES:
                    with timed.unit(f"pattern {index} {mode}"):
                        scored[mode] = make_service(mask, mode=mode).feasible_batch(pairs)
                verdicts.append(scored)
        counts = {
            f"admitted.{self.FAULTS[i]}.{mode}": int(v[mode].sum())
            for i, v in enumerate(verdicts)
            for mode in self.MODES
        }
        return PassResult(timed.units, verdicts, counts)

    def digest(self, result: PassResult) -> str:
        return digest_of(
            {
                "verdicts": [
                    {m: np.packbits(v[m]).tobytes().hex() for m in self.MODES}
                    for v in result.outputs
                ],
                "counts": result.counts,
            }
        )

    def check(self, result: PassResult) -> int:
        """Failed pairs: a model admits what the oracle rejects, or mcc
        differs from the oracle where both endpoints are safe in the
        pair's direction class (the paper's exactness claim)."""
        failed = 0
        for (mask, pairs), verdicts in zip(self.patterns, result.outputs, strict=True):
            oracle, mcc, rfb = (verdicts[m] for m in self.MODES)
            classes = {}
            for i, (s, d) in enumerate(pairs):
                orientation = Orientation.for_pair(s, d, mask.shape)
                safe = classes.get(orientation.signs)
                if safe is None:
                    safe = classes[orientation.signs] = label_grid(
                        mask, orientation
                    ).safe_mask
                both_safe = safe[orientation.map_coord(s)] and safe[orientation.map_coord(d)]
                bad = (mcc[i] and not oracle[i]) or (rfb[i] and not oracle[i])
                if both_safe and mcc[i] != oracle[i]:
                    bad = True
                failed += int(bad)
        return failed


# -- des-lifecycle --------------------------------------------------------------


class DesLifecycle:
    """T4/T6d's shape: build, one drained batch, then churn epochs.

    Several patterns per density, each with a few epochs: the protocol's
    cost depends mostly on the fault pattern, so many short pattern
    lifecycles make a pass's work far less seed-dependent than a few
    long ones.
    """

    name = "des-lifecycle"
    SHAPE = (10, 10, 10)
    FAULTS = (5, 20, 50, 80)
    TRIALS = 8
    BATCH = 60
    EPOCH_SESSIONS = 30
    EPOCHS = 2
    CHURN = 2

    def __init__(self, seed: int):
        rng = _rng(seed, 2)
        self.patterns = []
        for count in self.FAULTS * self.TRIALS:
            mask = random_fault_mask(self.SHAPE, count, rng=rng)
            batch = _healthy_pairs(mask, self.BATCH, rng, canonical=True)
            stream = FaultEventStream(self.CHURN, rng)
            live = mask.copy()
            masks, epochs = [], []
            for epoch in range(self.EPOCHS):
                masks.append(live.copy())
                pairs = _healthy_pairs(live, self.EPOCH_SESSIONS, rng, canonical=True)
                event = stream.next_event(live, epoch)
                for cell in event.cells:
                    live[cell] = event.kind == "inject"
                epochs.append((pairs, event.kind, event.cells))
            self.patterns.append((mask, batch, epochs, masks))

    @property
    def ops(self) -> int:
        sessions = self.BATCH + self.EPOCHS * self.EPOCH_SESSIONS
        return len(self.patterns) * (sessions + self.EPOCHS)

    def run_pass(self, prof) -> PassResult:
        sessions, events, counts = [], [], {}
        timed = _Pass(prof)
        for index, (mask, batch, epochs, _masks) in enumerate(self.patterns):
            with prof.region("pattern", f"pattern {index}"):
                with timed.unit(f"pattern {index} build"):
                    pipe = DistributedMCCPipeline(Mesh(self.SHAPE), mask.copy())
                    pipe.build()
                with timed.unit(f"pattern {index} batch"):
                    for s, d in batch:
                        pipe.submit(s, d, strict=False)
                    sessions.append((index, 0, pipe.drain()))
                for epoch, (pairs, kind, cells) in enumerate(epochs):
                    unit = f"pattern {index} epoch {epoch}"
                    with prof.region("epoch", unit), timed.unit(unit):
                        for s, d in pairs:
                            pipe.submit(s, d, strict=False)
                        info = pipe.apply_event(kind, cells)
                    sessions.append((index, epoch, info["flushed"]))
                    events.append((index, kind, info["messages"], info["region_cells"]))
            counts[f"pattern{index}.events_processed"] = pipe.net.sim.events_processed
            counts[f"pattern{index}.messages"] = dict(sorted(pipe.net.stats.by_kind().items()))
        for status in ("delivered", "infeasible", "stuck"):
            counts[f"sessions.{status}"] = sum(
                r["status"] == status for _, _, records in sessions for r in records
            )
        counts["sessions.stuck_msgs"] = sum(
            r["msgs"] for _, _, records in sessions for r in records if r["status"] == "stuck"
        )
        return PassResult(timed.units, (sessions, events), counts)

    def digest(self, result: PassResult) -> str:
        sessions, events = result.outputs
        return digest_of(
            {
                "sessions": [
                    (i, e, [(r["status"], len(r["path"]) - 1, r["msgs"], r["epoch"]) for r in records])
                    for i, e, records in sessions
                ],
                "events": events,
                "counts": result.counts,
            }
        )

    def check(self, result: PassResult) -> int:
        """Failed sessions: answered at another epoch than submitted, or
        a delivered path that is not a minimal source-to-dest walk over
        cells healthy at that epoch."""
        sessions, _events = result.outputs
        failed = 0
        for index, epoch, records in sessions:
            masks = self.patterns[index][3]
            for r in records:
                path = [tuple(c) for c in r["path"]]
                bad = r["epoch"] != epoch
                if r["status"] == "delivered":
                    bad |= (
                        path[0] != r["source"]
                        or path[-1] != r["dest"]
                        or len(path) - 1 != manhattan(r["source"], r["dest"])
                        or any(manhattan(a, b) != 1 for a, b in zip(path, path[1:]))
                        or any(masks[epoch][c] for c in path)
                    )
                failed += int(bad)
        return failed


# -- serve-churn ----------------------------------------------------------------


class ServeChurn:
    """T7s on the paper's 3-D shape: a soak trace with fault events.

    The trace holds exactly ``REQUESTS`` arrivals and its fault events
    sit at the fixed times of a ``REQUESTS / RATE`` soak: a Poisson count
    would make the work per pass vary by about 4% from seed to seed, and
    event times that move with the seed would move each event's phase
    against the batching window, and with it how much the event's
    preemption flushes.  A soak trace's arrivals do not depend on its
    duration, so a longer draw from the same seed supplies the arrivals.
    """

    name = "serve-churn"
    SHAPE = (16, 16, 16)
    FAULTS = 205
    RATE = 600.0
    REQUESTS = 600
    EVENTS = 40
    CHURN = 2
    WINDOW = 0.008

    def __init__(self, seed: int):
        self.seed = seed

        def trace(duration):
            return make_trace(
                self.SHAPE,
                self.FAULTS,
                profile="soak",
                rate=self.RATE,
                duration=duration,
                events=self.EVENTS,
                churn=self.CHURN,
                seed=np.random.SeedSequence([seed, 3]),
            )

        nominal = trace(self.REQUESTS / self.RATE)
        longer = trace(2 * self.REQUESTS / self.RATE)
        if longer.requests[: nominal.offered] != nominal.requests:
            raise RuntimeError("soak arrivals depend on the trace duration")
        self.trace = dataclasses.replace(
            nominal, requests=longer.requests[: self.REQUESTS]
        )

    @property
    def ops(self) -> int:
        return self.trace.offered + self.EVENTS

    def run_pass(self, prof) -> PassResult:
        samples = {"tick": [], "inject": [], "repair": []}
        events, routed = [], []
        timed = _Pass(prof)
        with timed.unit("serve"):
            service = AsyncRoutingService(
                self.trace.seed_mask.copy(),
                mode="mcc",
                clock=VirtualClock(),
                batch_window=self.WINDOW,
            )
            _instrument(service, prof, timed, samples, events, routed)
            records = prof.call(
                "serve.run",
                asyncio.run,
                run_load(service, self.trace, event_rng=_rng(self.seed, 4)),
            )
        # Ticks and events are units of their own; "serve" keeps the rest.
        wall, cpu, speed = timed.units.pop("serve")
        for key in [k for names in samples.values() for k in names]:
            wall -= timed.units[key][0]
            cpu -= timed.units[key][1]
        timed.units["serve"] = (wall, cpu, speed)
        snapshot = service.metrics().as_row()
        model = service.online.model
        router = service.online.router
        counts = {
            **{f"serve.{k}": v for k, v in sorted(snapshot.items())},
            "online.dirty_cells": model.stats["dirty_cells"],
            "online.full_recomputes": model.stats["full_recomputes"],
            "online.reach_retained": router.retained,
            "online.reach_evicted": router.evicted,
            "serve.ticks": len(samples["tick"]),
        }
        return PassResult(timed.units, (records, events, routed), counts, samples)

    def digest(self, result: PassResult) -> str:
        records, events, _routed = result.outputs
        return digest_of(
            {
                "requests": [(r.status, r.epoch, repr(r.latency)) for r in records],
                "events": events,
                "counts": result.counts,
            }
        )

    def check(self, result: PassResult) -> int:
        """Failed requests: shed, lost, or a delivered path that is not a
        minimal walk over cells healthy at the epoch it was routed at."""
        records, events, routed = result.outputs
        failed = self.trace.offered - len(records)
        failed += sum(r.status == "shed" for r in records)
        masks = [self.trace.seed_mask.copy()]
        for kind, cells in events:
            mask = masks[-1].copy()
            for cell in cells:
                mask[tuple(cell)] = kind == "inject"
            masks.append(mask)
        for (source, dest), r in routed:
            if not r.delivered:
                continue
            path = r.path
            failed += int(
                path[0] != source
                or path[-1] != dest
                or not r.is_minimal()
                or any(manhattan(a, b) != 1 for a, b in zip(path, path[1:]))
                or any(masks[r.epoch][c] for c in path)
            )
        return failed


def _instrument(service, prof, timed, samples, events, routed):
    """Time each batching-window flush and each fault event of this one
    service instance as a unit, and keep every routed result for the
    checks.

    A flush inside ``apply_event`` is the event's preemption, so it
    counts toward the event, not as a tick.
    """
    flush_pending = service._flush_pending
    apply_event = service.apply_event
    online_flush = service.online.flush
    in_event = []

    def timed_flush():
        if in_event or not service._pending:
            return flush_pending()
        unit = f"tick {len(samples['tick'])}"
        with timed.unit(unit):
            prof.call("serve.tick", flush_pending, unit=unit)
        samples["tick"].append(unit)

    def timed_event(kind, cells):
        cells = [tuple(int(v) for v in c) for c in cells]
        unit = f"event {len(events)}"
        in_event.append(kind)
        try:
            with timed.unit(unit):
                event = prof.call("serve.event", apply_event, kind, cells, unit=unit)
        finally:
            in_event.pop()
        samples[kind].append(unit)
        events.append((kind, cells))
        return event

    def kept_flush():
        pairs = [pair for _, pair in service.online._pending]
        flushed = online_flush()
        routed.extend(zip(pairs, flushed.values(), strict=True))
        return flushed

    service._flush_pending = timed_flush
    service.apply_event = timed_event
    service.online.flush = kept_flush


WORKLOADS = {w.name: w for w in (StaticSweep, DesLifecycle, ServeChurn)}
