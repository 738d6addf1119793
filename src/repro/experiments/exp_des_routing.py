"""Experiment T4: end-to-end routing on the discrete-event network.

Routes random canonical-frame pairs through the *distributed* stack and
scores delivery, minimality (hop count = Manhattan distance), agreement
with the oracle, and per-query message cost (detection + routing).

The whole query batch of a pattern rides **one simulator run**: every
pair is submitted as a non-blocking query session
(:meth:`DistributedMCCPipeline.submit`) and a single
:meth:`~DistributedMCCPipeline.drain` resolves them all, with
per-query message cost taken from the network's session attribution —
element-wise identical (statuses, paths, and message counts) to the
retired blocking one-query-at-a-time loop, which
``benchmarks/bench_des_concurrent.py`` pins and times.  The oracle
ground truth comes from one batched
:meth:`RoutingService.feasible_batch` call per fault pattern (one
reverse flood per distinct destination) on a service private to the
pattern.  Each fault pattern — its DES pipeline build plus query
replay — is one sharded :class:`repro.parallel.sharding.PatternTask`;
``run_sweep(SweepSpec("t4", ...), workers=N)`` fans the patterns out
across processes with seed-stable results for any worker/shard count.

Command line (flags shared with the other sweeps)::

    PYTHONPATH=src python -m repro.parallel \
        t4 --shape 7 7 7 \
        --fault-counts 2 6 12 --trials 3 --queries 30 --workers 4

``--queries`` sets the routed queries per pattern (default 30);
``--workers`` the process count (1 = in-process); ``--shards``
overrides the partition count for shard-invariance checks.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.model_cache import cached_labelled
from repro.distributed.pipeline import DistributedMCCPipeline
from repro.experiments.workloads import random_fault_mask
from repro.mesh.coords import manhattan
from repro.mesh.topology import Mesh
from repro.parallel.sharding import PatternTask, SweepSpec
from repro.service import make_service
from repro.util.records import ResultTable

_COUNTERS = (
    "delivered",
    "infeasible",
    "stuck",
    "minimal",
    "oracle_ok",
    "agree",
    "total",
)


def evaluate_pattern(spec: SweepSpec, task: PatternTask) -> dict[str, float]:
    """Build one pattern's DES pipeline and run its query batch at once.

    The mask and the pairs come from the task's own stream (routing
    never consumes random draws), then the whole batch routes
    concurrently through a single ``run_to_quiescence`` and is scored
    with one oracle ``feasible_batch`` call — so the merged T4 table is
    byte-identical to the serial implementation's.
    """
    rng = task.rng()
    record: dict[str, float] = {name: 0 for name in _COUNTERS}
    record["msg_cost"] = 0.0
    mask = random_fault_mask(spec.shape, task.count, rng=rng)
    safe = cached_labelled(mask).safe_mask
    if not safe.any():
        return record
    pipe = DistributedMCCPipeline(Mesh(spec.shape), mask).build()
    cells = np.argwhere(safe)
    batch = []
    for _ in range(int(spec.params["queries"])):
        i, j = rng.integers(0, cells.shape[0], size=2)
        s = tuple(int(c) for c in np.minimum(cells[i], cells[j]))
        d = tuple(int(c) for c in np.maximum(cells[i], cells[j]))
        if not (safe[s] and safe[d]) or s == d:
            continue
        record["total"] += 1
        batch.append((s, d))
    for s, d in batch:
        pipe.submit(s, d)
    results = pipe.drain()
    statuses = []
    for (s, d), result in zip(batch, results, strict=True):
        record["msg_cost"] += result["msgs"]
        status = result["status"]
        statuses.append(status)
        if status == "delivered":
            record["delivered"] += 1
            if len(result["path"]) - 1 == manhattan(s, d):
                record["minimal"] += 1
        elif status == "infeasible":
            record["infeasible"] += 1
        else:
            record["stuck"] += 1
    if batch:
        service = make_service(mask, mode="oracle")
        wants = service.feasible_batch(batch)
        record["oracle_ok"] += int(wants.sum())
        record["agree"] += sum(
            (status == "delivered") == bool(want)
            for status, want in zip(statuses, wants, strict=True)
        )
    return record


def reduce_records(
    spec: SweepSpec, records: Sequence[Mapping[str, Any]]
) -> ResultTable:
    """Merge per-pattern DES counters into the T4 table."""
    dims = f"{len(spec.shape)}-D {'x'.join(map(str, spec.shape))}"
    table = ResultTable(
        title=(
            f"T4 DES routing — {dims} mesh, {spec.trials} patterns x "
            f"{spec.params['queries']} queries"
        )
    )
    for count_index, count in enumerate(spec.fault_counts):
        rows = [r for r in records if r["_count_index"] == count_index]
        sums = {
            name: sum(r[name] for r in rows)
            for name in (*_COUNTERS, "msg_cost")
        }
        total = sums["total"]
        delivered = sums["delivered"]
        table.add(
            faults=count,
            queries=int(total),
            delivered=delivered / total if total else 0.0,
            oracle=sums["oracle_ok"] / total if total else 0.0,
            agreement=sums["agree"] / total if total else 0.0,
            minimal_of_delivered=(
                sums["minimal"] / delivered if delivered else 1.0
            ),
            stuck=int(sums["stuck"]),
            msgs_per_query=sums["msg_cost"] / total if total else 0.0,
        )
    return table
