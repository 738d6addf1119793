"""Experiment T7: latency vs offered load on contended links.

The earlier DES tiers (T3/T4/T6) hop every message with a fixed delay
over infinite-bandwidth links, so the fault-information models can only
differ in *message counts*.  T7 gives each directed link finite capacity
(:class:`~repro.simkit.network.MeshNetwork` ``link_capacity``) and
offers an open-loop Poisson workload, producing the NoC-style
latency-percentile-vs-offered-load curves and per-mode saturation
throughput under faults — the first tier where the models can differ in
*latency*.

Per fault pattern and offered rate the same Poisson session schedule
(seeded arrivals of safe source/dest pairs) is scored two ways:

* **Frame replay per mode** (``mcc`` / ``rfb`` / ``oracle``): the
  centralized service routes the whole batch once, and each delivered
  path replays as a source-routed data frame injected at its arrival
  time into a fresh contended mesh.  All modes carry identical offered
  traffic, so latency differences are purely path-choice under
  contention (longer detours occupy more links for longer).  Sessions
  the mode fails to deliver are counted as failed and inject nothing.
* **Protocol-in-the-loop** (``des`` columns): the sessions are
  submitted to a :class:`~repro.distributed.pipeline
  .DistributedMCCPipeline` at their arrival times (``submit(..., at=)``)
  over the *same* contended links, so detection and walker messages
  queue against each other — end-to-end session latency including
  control-plane congestion.

Command line (``run_sweep(SweepSpec("t7", ...), workers=N)`` in Python)::

    PYTHONPATH=src python -m repro.parallel t7 --shape 8 8 8 \
        --fault-counts 10 30 --trials 4 --rates 0.2 0.5 1.0 \
        --duration 40 --capacity 1 --workers 4

The merged table is byte-identical for any worker/shard count and for
checkpoint resume (``benchmarks/bench_load_sweep.py`` gates this).
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro import obs
from repro.core.model_cache import cached_labelled
from repro.distributed.pipeline import DistributedMCCPipeline
from repro.experiments.workloads import random_fault_mask, sample_safe_pair
from repro.mesh.topology import Mesh
from repro.parallel.sharding import PatternTask, SweepSpec
from repro.service import make_service
from repro.simkit.network import MeshNetwork
from repro.util.records import ResultTable
from repro.util.validation import check_workload

#: Routing modes compared by the frame replay (``blind`` has no
#: feasibility story worth a latency curve).
MODES = ("mcc", "rfb", "oracle")


def poisson_schedule(
    rng: np.random.Generator,
    rate: float,
    duration: float,
    safe_mask: np.ndarray,
) -> list[tuple[float, tuple[int, ...], tuple[int, ...]]]:
    """Open-loop Poisson arrivals of canonical safe pairs.

    Inter-arrival gaps are exponential with mean ``1/rate``; each
    arrival draws a safe (source, dest) pair at Manhattan distance >= 1
    and canonicalizes it (source <= dest component-wise, the pipeline's
    frame).  Arrivals whose pair draw fails (degenerate masks) are
    skipped, not redrawn — the offered process stays Poisson.  ``rate``
    and ``duration`` must be finite and > 0, or the loop never ends.
    """
    check_workload({"rate": rate, "duration": duration})
    out: list[tuple[float, tuple[int, ...], tuple[int, ...]]] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / rate))
        if t > duration:
            return out
        pair = sample_safe_pair(safe_mask, rng, min_distance=1)
        if pair is None:
            continue
        a, b = pair
        s = tuple(int(min(x, y)) for x, y in zip(a, b, strict=True))
        d = tuple(int(max(x, y)) for x, y in zip(a, b, strict=True))
        out.append((t, s, d))


def _replay_frames(
    mesh: Mesh,
    mask: np.ndarray,
    capacity: int,
    schedule: Sequence[tuple[float, tuple[int, ...], tuple[int, ...]]],
    paths: Sequence[list | None],
) -> dict[str, Any]:
    """Inject one frame per delivered path at its arrival time."""
    net = MeshNetwork(mesh, mask, link_capacity=capacity)
    injected = 0
    for (t, _s, _d), path in zip(schedule, paths, strict=True):
        if path is None:
            continue
        injected += 1
        net.sim.schedule(t, net.inject_frame, path)
    net.run_to_quiescence()
    delivered = net.stats.frames_delivered
    return {
        "delivered": delivered,
        "failed": len(schedule) - delivered,
        "lat": list(net.stats.frame_latencies),
        "makespan": net.sim.now,
        "qpeak": int(net.stats.gauges.get("link_peak_depth", 0)),
    }


def evaluate_pattern(spec: SweepSpec, task: PatternTask) -> dict[str, Any]:
    """One fault pattern's full load sweep (all rates, all modes).

    Everything derives from the task's private generator, consumed in a
    fixed order, so any shard/worker layout replays the identical
    schedules and the record is a pure function of the sweep seed.
    """
    rng = task.rng()
    mask = random_fault_mask(spec.shape, task.count, rng=rng)
    rates = [float(r) for r in spec.params["rates"]]
    duration = float(spec.params["duration"])
    capacity = int(spec.params["capacity"])
    safe = cached_labelled(mask).safe_mask
    record: dict[str, Any] = {"rates": []}
    if int(safe.sum()) < 2:
        for rate in rates:
            record["rates"].append(
                {"rate": rate, "offered": 0, "modes": {}, "des": None}
            )
        return record
    mesh = Mesh(spec.shape)
    services = {mode: make_service(mask, mode=mode) for mode in MODES}
    pipe = DistributedMCCPipeline(mesh, mask).build()
    # Protocol state is built on uncontended links (its fixed point is
    # the byte-identical T3/T4 one); only the load phase contends.
    pipe.net.set_link_capacity(capacity)
    for rate in rates:
        schedule = poisson_schedule(rng, rate, duration, safe)
        per_rate: dict[str, Any] = {
            "rate": rate,
            "offered": len(schedule),
            "modes": {},
        }
        pairs = [(s, d) for _t, s, d in schedule]
        for mode in MODES:
            results = services[mode].route_batch(pairs)
            paths = [
                [tuple(c) for c in res.path] if res.delivered else None
                for res in results
            ]
            per_rate["modes"][mode] = _replay_frames(
                mesh, mask, capacity, schedule, paths
            )
        base = pipe.net.sim.now
        for t, s, d in schedule:
            pipe.submit(s, d, strict=False, at=t)
        sessions = pipe.drain()
        lat = [
            r["latency"]
            for r in sessions
            if r["status"] == "delivered" and "latency" in r
        ]
        per_rate["des"] = {
            "delivered": sum(r["status"] == "delivered" for r in sessions),
            "failed": sum(r["status"] != "delivered" for r in sessions),
            "lat": lat,
            "elapsed": pipe.net.sim.now - base,
            "qpeak": int(pipe.net.stats.gauges.get("link_peak_depth", 0)),
        }
        record["rates"].append(per_rate)
    return record


def reduce_records(
    spec: SweepSpec, records: Sequence[Mapping[str, Any]]
) -> ResultTable:
    """Merge per-pattern load records into the T7 table.

    One row per (fault count, offered rate); per-mode latency
    percentiles come from the latencies of every pattern merged in
    global task order, throughput is total delivered over total
    makespan, and ``sat_<mode>`` repeats the fault count's saturation
    throughput (max over rates) on each of its rows.
    """
    rates = [float(r) for r in spec.params["rates"]]
    dims = f"{len(spec.shape)}-D {'x'.join(map(str, spec.shape))}"
    table = ResultTable(
        title=(
            f"T7 load sweep — {dims} mesh, capacity "
            f"{int(spec.params['capacity'])}, "
            f"{spec.trials} patterns, duration "
            f"{float(spec.params['duration'])}"
        )
    )
    for count_index, count in enumerate(spec.fault_counts):
        rows = [r for r in records if r["_count_index"] == count_index]
        rate_stats: list[dict[str, Any]] = []
        for k, rate in enumerate(rates):
            offered = 0
            modes: dict[str, dict[str, Any]] = {
                m: {"delivered": 0, "failed": 0, "lat": [], "makespan": 0.0, "qpeak": 0}
                for m in MODES
            }
            des = {"delivered": 0, "failed": 0, "lat": [], "elapsed": 0.0, "qpeak": 0}
            for row in rows:
                per_rate = row["rates"][k]
                offered += per_rate["offered"]
                for m in MODES:
                    cell = per_rate["modes"].get(m)
                    if cell is None:
                        continue
                    modes[m]["delivered"] += cell["delivered"]
                    modes[m]["failed"] += cell["failed"]
                    modes[m]["lat"].extend(cell["lat"])
                    modes[m]["makespan"] += cell["makespan"]
                    modes[m]["qpeak"] = max(modes[m]["qpeak"], cell["qpeak"])
                cell = per_rate.get("des")
                if cell is not None:
                    des["delivered"] += cell["delivered"]
                    des["failed"] += cell["failed"]
                    des["lat"].extend(cell["lat"])
                    des["elapsed"] += cell["elapsed"]
                    des["qpeak"] = max(des["qpeak"], cell["qpeak"])
            rate_stats.append(
                {"rate": rate, "offered": offered, "modes": modes, "des": des}
            )
        sat = {
            m: max(
                (
                    rs["modes"][m]["delivered"] / rs["modes"][m]["makespan"]
                    for rs in rate_stats
                    if rs["modes"][m]["makespan"] > 0
                ),
                default=0.0,
            )
            for m in MODES
        }
        for rs in rate_stats:
            row: dict[str, Any] = {
                "faults": count,
                "rate": rs["rate"],
                "offered": rs["offered"],
            }
            for m in MODES:
                cell = rs["modes"][m]
                row[f"delivered_{m}"] = cell["delivered"]
                row[f"p50_{m}"] = obs.percentile(cell["lat"], 50)
                row[f"p95_{m}"] = obs.percentile(cell["lat"], 95)
                row[f"p99_{m}"] = obs.percentile(cell["lat"], 99)
                row[f"thr_{m}"] = (
                    cell["delivered"] / cell["makespan"]
                    if cell["makespan"] > 0
                    else 0.0
                )
                row[f"qpeak_{m}"] = cell["qpeak"]
            for m in MODES:
                row[f"sat_{m}"] = sat[m]
            cell = rs["des"]
            row["des_delivered"] = cell["delivered"]
            row["des_p50"] = obs.percentile(cell["lat"], 50)
            row["des_p99"] = obs.percentile(cell["lat"], 99)
            row["des_thr"] = (
                cell["delivered"] / cell["elapsed"] if cell["elapsed"] > 0 else 0.0
            )
            table.add(**row)
    return table
