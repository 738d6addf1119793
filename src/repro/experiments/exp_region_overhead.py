"""Experiment T1: non-faulty nodes captured inside fault regions.

The paper's headline motivation: the MCC model is the *ultimate minimal
fault region*, so it should contain dramatically fewer non-faulty nodes
than the rectangular/cuboid faulty blocks — and the gap should widen
with fault rate and with dimension (block volume explodes in 3-D).

For each (mesh, fault count) grid point we report, averaged over
trials:

* ``mcc_nonfaulty`` — non-faulty nodes labelled unsafe (useless +
  can't-reach) in the canonical direction class;
* ``rfb_nonfaulty`` — non-faulty nodes inside merged faulty blocks;
* their ratio (RFB / MCC, the paper's improvement factor).

Each trial's fault pattern is one sharded
:class:`repro.parallel.sharding.PatternTask`; ``run_sweep(SweepSpec("t1",
...), workers=N)`` fans the patterns out across processes with
seed-stable results for any worker/shard count.

Command line (flags shared with the other sweeps)::

    PYTHONPATH=src python -m repro.parallel \
        t1 --shape 12 12 12 \
        --fault-counts 20 60 120 --trials 40 --workers 4

``--workers`` sets the process count (1 = in-process); ``--shards``
overrides the partition count for shard-invariance checks.  The
clustered-fault variant is reachable through the Python API
(``SweepSpec("t1", ..., params={"clustered": True})``).
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro.baselines.rfb import rfb_unsafe
from repro.core.model_cache import cached_labelled
from repro.experiments.workloads import clustered_fault_mask, random_fault_mask
from repro.parallel.sharding import PatternTask, SweepSpec
from repro.util.records import ResultTable


def region_overhead_once(fault_mask: np.ndarray) -> tuple[int, int]:
    """(mcc_nonfaulty, rfb_nonfaulty) for one fault pattern.

    The canonical-class labelling comes from the content-addressed cache
    (no wall construction), so a router over the same pattern reuses it.
    """
    labelled = cached_labelled(fault_mask)
    mcc_nonfaulty = int(labelled.unsafe_mask.sum() - fault_mask.sum())
    rfb = rfb_unsafe(fault_mask)
    rfb_nonfaulty = int(rfb.sum() - fault_mask.sum())
    return mcc_nonfaulty, rfb_nonfaulty


def evaluate_pattern(spec: SweepSpec, task: PatternTask) -> dict[str, int]:
    """Region overhead of one sampled fault pattern."""
    rng = task.rng()
    if spec.params["clustered"]:
        mask = clustered_fault_mask(spec.shape, task.count, rng=rng)
    else:
        mask = random_fault_mask(spec.shape, task.count, rng=rng)
    mcc, rfb = region_overhead_once(mask)
    return {"mcc": mcc, "rfb": rfb}


def reduce_records(
    spec: SweepSpec, records: Sequence[Mapping[str, Any]]
) -> ResultTable:
    """Merge per-pattern overheads into the region-overhead table."""
    dims = f"{len(spec.shape)}-D {'x'.join(map(str, spec.shape))}"
    kind = "clustered" if spec.params["clustered"] else "uniform"
    table = ResultTable(
        title=(
            f"T1 region overhead — {dims} mesh, {kind} faults, "
            f"{spec.trials} trials"
        )
    )
    mesh_size = float(np.prod(spec.shape))
    for count_index, count in enumerate(spec.fault_counts):
        rows = [r for r in records if r["_count_index"] == count_index]
        mcc_avg = sum(r["mcc"] for r in rows) / spec.trials
        rfb_avg = sum(r["rfb"] for r in rows) / spec.trials
        table.add(
            faults=count,
            fault_rate=count / mesh_size,
            mcc_nonfaulty=mcc_avg,
            rfb_nonfaulty=rfb_avg,
            mcc_max=max((r["mcc"] for r in rows), default=0),
            rfb_max=max((r["rfb"] for r in rows), default=0),
            rfb_over_mcc=(rfb_avg / mcc_avg) if mcc_avg else float("inf"),
        )
    return table
