"""Experiment T6: routing under fault churn (online dynamic-fault model).

The paper evaluates static fault patterns; T6 measures the regime the
:mod:`repro.online` subsystem exists for — faults arriving and healing
*while traffic flows* (the dynamic-fault operating mode of the 3D-NoC
fault-management literature).  Each fault pattern seeds one
:class:`OnlineRoutingService`; every epoch then

1. samples a batch of pairs among currently healthy nodes and queues
   them with :meth:`OnlineRoutingService.submit` (traffic "in flight"),
2. applies one churn event drawn from a shared
   :class:`~repro.online.FaultEventStream` — alternating injection and
   repair of ``churn`` cells — which flushes the queued batch at the
   epoch it was submitted under and relabels incrementally,
3. scores delivery plus the event's relabel cost (dirty cells swept,
   full-recompute fallbacks) and the reach-cache retention of the
   scoped invalidation.

``mode`` selects the fault-information model the service maintains
under churn: the paper's ``"mcc"`` (default) or the baseline ``"rfb"``
(incremental block-local recompute) — the first direct comparison of
the two models in a *dynamic* fault regime.

The ``churn_des`` experiment (alias ``t6d``) drives the
**distributed stack** with the same event stream: every epoch submits
the same canonical pairs to a churn-aware
:class:`~repro.distributed.pipeline.DistributedMCCPipeline` (query
sessions drained at their submission epoch, incremental
re-stabilization scoped to the event's dirty cone) *and* to
centralized mcc/rfb services, so one table scores the message-passing
protocol next to both centralized models under identical churn.

Each pattern (initial mask + its whole churn history) is one sharded
:class:`repro.parallel.sharding.PatternTask` — every draw comes from
the task's private stream, so ``run_sweep(SweepSpec("t6", ...),
workers=N)`` is seed-stable for any worker/shard count, and
``checkpoint=`` makes long churn sweeps resumable like every other tier.

Command line (flags shared with the other sweeps)::

    PYTHONPATH=src python -m repro.parallel t6 --shape 12 12 12 \
        --fault-counts 20 60 --trials 4 --pairs 100 --epochs 6 \
        --churn 2 --workers 4 [--mode rfb]

``t6d`` takes the same flags except ``--mode``.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro.distributed.pipeline import DistributedMCCPipeline
from repro.experiments.workloads import random_fault_mask, sample_safe_pair
from repro.mesh.topology import Mesh
from repro.online import FaultEventStream
from repro.service import make_service
from repro.parallel.sharding import PatternTask, SweepSpec
from repro.util.records import ResultTable

_COUNTERS = (
    "pairs",
    "delivered",
    "infeasible",
    "stuck",
    "events",
    "dirty_cells",
    "full_recomputes",
    "label_delta",
    "evicted",
    "retained",
)

_DES_COUNTERS = (
    "pairs",
    "des_delivered",
    "des_infeasible",
    "des_stuck",
    "mcc_delivered",
    "rfb_delivered",
    "agree",
    "events",
    "stabilize_msgs",
    "restart_cells",
    "query_msgs",
)


def evaluate_pattern(spec: SweepSpec, task: PatternTask) -> dict[str, int]:
    """Run one pattern's churn history; delivery + relabel-cost counters."""
    rng = task.rng()
    mask = random_fault_mask(spec.shape, task.count, rng=rng)
    online = make_service(mask, mode=str(spec.params["mode"]), online=True)
    pairs = int(spec.params["pairs"])
    epochs = int(spec.params["epochs"])
    stream = FaultEventStream(int(spec.params["churn"]), rng)
    record = {name: 0 for name in _COUNTERS}
    for epoch in range(epochs):
        submitted_at = online.epoch
        for _ in range(pairs):
            pair = sample_safe_pair(~online.fault_mask, rng=rng, min_distance=2)
            if pair is not None:
                online.submit(*pair)
        drawn = stream.next_event(online.fault_mask, epoch)
        if drawn is not None:
            event = (
                online.inject(drawn.cells)
                if drawn.kind == "inject"
                else online.repair(drawn.cells)
            )
            record["events"] += 1
            record["dirty_cells"] += event.dirty_cells
            record["full_recomputes"] += event.full_recomputes
            record["label_delta"] += abs(event.label_delta)
        else:
            online.flush()
        for result in online.take_completed().values():
            # Queued queries are answered at their submission epoch.
            assert result.epoch == submitted_at
            record["pairs"] += 1
            if result.delivered:
                record["delivered"] += 1
            elif result.feasible is False:
                record["infeasible"] += 1
            else:
                record["stuck"] += 1
    record["evicted"] = int(online.router.evicted)
    record["retained"] = int(online.router.retained)
    return record


def evaluate_des_pattern(spec: SweepSpec, task: PatternTask) -> dict[str, int]:
    """One churn history through the DES stack *and* both online models.

    The distributed pipeline and the two centralized services apply the
    same drawn events, so their fault masks evolve identically; every
    epoch's pair batch is canonicalized (the distributed protocol
    operates in the canonical direction class) and submitted to all
    three backends, making the delivery columns directly comparable.
    """
    rng = task.rng()
    mask = random_fault_mask(spec.shape, task.count, rng=rng)
    pipe = DistributedMCCPipeline(Mesh(spec.shape), mask.copy()).build()
    svc_mcc = make_service(mask, mode="mcc", online=True)
    svc_rfb = make_service(mask, mode="rfb", online=True)
    pairs = int(spec.params["pairs"])
    epochs = int(spec.params["epochs"])
    stream = FaultEventStream(int(spec.params["churn"]), rng)
    record = {name: 0 for name in _DES_COUNTERS}
    for epoch in range(epochs):
        submitted_at = pipe.epoch
        batch: list[tuple] = []
        for _ in range(pairs):
            pair = sample_safe_pair(~pipe.fault_mask, rng=rng, min_distance=2)
            if pair is None:
                continue
            a, b = pair
            s = tuple(int(min(x, y)) for x, y in zip(a, b, strict=True))
            d = tuple(int(max(x, y)) for x, y in zip(a, b, strict=True))
            batch.append((s, d))
            pipe.submit(s, d, strict=False)
            svc_mcc.submit(s, d)
            svc_rfb.submit(s, d)
        drawn = stream.next_event(pipe.fault_mask, epoch)
        if drawn is not None:
            cells = list(drawn.cells)
            info = pipe.apply_event(drawn.kind, cells)
            if drawn.kind == "inject":
                svc_mcc.inject(cells)
                svc_rfb.inject(cells)
            else:
                svc_mcc.repair(cells)
                svc_rfb.repair(cells)
            des_results = info["flushed"]
            record["events"] += 1
            record["stabilize_msgs"] += info["messages"]
            record["restart_cells"] += info["region_cells"]
        else:
            des_results = pipe.drain()
            svc_mcc.flush()
            svc_rfb.flush()
        if not np.array_equal(pipe.fault_mask, svc_mcc.fault_mask):
            # Data-integrity guard, not a debug assumption: a mask
            # drift would silently pair incomparable verdicts below.
            raise RuntimeError("DES and online fault masks diverged")
        mcc_results = list(svc_mcc.take_completed().values())
        rfb_results = list(svc_rfb.take_completed().values())
        if not (len(des_results) == len(mcc_results) == len(rfb_results)):
            raise RuntimeError("backends resolved different batch sizes")
        for des, mcc, rfb in zip(des_results, mcc_results, rfb_results, strict=True):
            if des["epoch"] != submitted_at:
                raise RuntimeError(
                    "session answered at a different epoch than submitted"
                )
            record["pairs"] += 1
            record["query_msgs"] += des["msgs"]
            status = des["status"]
            if status == "delivered":
                record["des_delivered"] += 1
            elif status == "infeasible":
                record["des_infeasible"] += 1
            else:
                record["des_stuck"] += 1
            record["mcc_delivered"] += int(mcc.delivered)
            record["rfb_delivered"] += int(rfb.delivered)
            record["agree"] += int((status == "delivered") == mcc.delivered)
    return record


def reduce_records(
    spec: SweepSpec, records: Sequence[Mapping[str, Any]]
) -> ResultTable:
    """Merge per-pattern churn counters into the T6 table."""
    dims = f"{len(spec.shape)}-D {'x'.join(map(str, spec.shape))}"
    mode = str(spec.params["mode"])
    table = ResultTable(
        title=(
            f"T6 routing under churn — {dims} mesh, "
            f"{spec.params['epochs']} epochs x "
            f"{spec.params['pairs']} pairs, "
            f"churn {spec.params['churn']}"
            + (f", model {mode}" if mode != "mcc" else "")
        )
    )
    for count_index, count in enumerate(spec.fault_counts):
        rows = [r for r in records if r["_count_index"] == count_index]
        sums = {name: sum(r[name] for r in rows) for name in _COUNTERS}
        total = sums["pairs"]
        events = sums["events"]
        probes = sums["evicted"] + sums["retained"]
        table.add(
            faults=count,
            pairs=int(total),
            delivered=sums["delivered"] / total if total else 0.0,
            infeasible=sums["infeasible"] / total if total else 0.0,
            stuck=int(sums["stuck"]),
            relabel_cells_per_event=(
                sums["dirty_cells"] / events if events else 0.0
            ),
            label_delta_per_event=(
                sums["label_delta"] / events if events else 0.0
            ),
            full_recomputes=int(sums["full_recomputes"]),
            cache_retained=sums["retained"] / probes if probes else 1.0,
        )
    return table


def reduce_des_records(
    spec: SweepSpec, records: Sequence[Mapping[str, Any]]
) -> ResultTable:
    """Merge DES-vs-centralized churn counters into the T6d table."""
    dims = f"{len(spec.shape)}-D {'x'.join(map(str, spec.shape))}"
    table = ResultTable(
        title=(
            f"T6d distributed stack under churn — {dims} mesh, "
            f"{spec.params['epochs']} epochs x "
            f"{spec.params['pairs']} pairs, "
            f"churn {spec.params['churn']}; des vs online mcc/rfb"
        )
    )
    for count_index, count in enumerate(spec.fault_counts):
        rows = [r for r in records if r["_count_index"] == count_index]
        sums = {name: sum(r[name] for r in rows) for name in _DES_COUNTERS}
        total = sums["pairs"]
        events = sums["events"]
        table.add(
            faults=count,
            pairs=int(total),
            des=sums["des_delivered"] / total if total else 0.0,
            mcc=sums["mcc_delivered"] / total if total else 0.0,
            rfb=sums["rfb_delivered"] / total if total else 0.0,
            agree_des_mcc=sums["agree"] / total if total else 1.0,
            des_stuck=int(sums["des_stuck"]),
            msgs_per_query=sums["query_msgs"] / total if total else 0.0,
            stabilize_msgs_per_event=(
                sums["stabilize_msgs"] / events if events else 0.0
            ),
            restart_cells_per_event=(
                sums["restart_cells"] / events if events else 0.0
            ),
        )
    return table
