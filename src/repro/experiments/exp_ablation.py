"""Sharded ablation sweeps A1/A4 from DESIGN.md's experiment index.

``benchmarks/bench_ablation.py`` used to iterate these trial loops
serially inline; they are now registered experiments on
:mod:`repro.parallel.sharding`, so they share the tables' execution
path — ``run_sweep(SweepSpec("a1", ...), workers=N)`` with
``shards=``/``checkpoint=`` all applying, and the CLI reaches them as
``python -m repro.parallel a1`` / ``a4``.  Each pattern draws its mask
from its task's own stream
(:meth:`~repro.parallel.sharding.PatternTask.rng`), so the tables are
byte-identical for any worker/shard layout (goldens in
``tests/test_sweep_goldens.py``).

* **A1** (``ablation_rfb``) — block expansion vs local-closure-only RFB
  regions: non-faulty nodes captured by each variant, averaged over
  trials.
* **A4** (``ablation_4d``) — the paper's future work: higher-dimension
  meshes.  MCC labelling cost in a 4-D mesh (fills need 4 blocked
  neighbors, so captured nodes are rarer than in 3-D).
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.baselines.rfb import rfb_unsafe
from repro.core.model_cache import cached_labelled
from repro.experiments.workloads import random_fault_mask
from repro.parallel.sharding import PatternTask, SweepSpec
from repro.util.records import ResultTable


def _dims(spec: SweepSpec) -> str:
    return f"{len(spec.shape)}-D {'x'.join(map(str, spec.shape))}"


def evaluate_rfb_pattern(spec: SweepSpec, task: PatternTask) -> dict[str, int]:
    """A1: non-faulty nodes captured by each RFB variant, one pattern."""
    mask = random_fault_mask(spec.shape, task.count, rng=task.rng())
    return {
        "local": int(rfb_unsafe(mask, variant="local").sum() - task.count),
        "block": int(rfb_unsafe(mask, variant="block").sum() - task.count),
    }


def reduce_rfb_records(
    spec: SweepSpec, records: Sequence[Mapping[str, Any]]
) -> ResultTable:
    """Merge per-pattern A1 capture counts into the variants table."""
    table = ResultTable(
        title=f"A1 RFB variants — {_dims(spec)} mesh, {spec.trials} trials"
    )
    for count_index, count in enumerate(spec.fault_counts):
        rows = [r for r in records if r["_count_index"] == count_index]
        table.add(
            faults=count,
            local_nonfaulty=sum(r["local"] for r in rows) / spec.trials,
            block_nonfaulty=sum(r["block"] for r in rows) / spec.trials,
        )
    return table


def evaluate_mesh4d_pattern(spec: SweepSpec, task: PatternTask) -> dict[str, int]:
    """A4: MCC-captured non-faulty nodes in one (typically 4-D) pattern."""
    mask = random_fault_mask(spec.shape, task.count, rng=task.rng())
    labelled = cached_labelled(mask)
    return {"mcc": int(labelled.unsafe_mask.sum() - task.count)}


def reduce_mesh4d_records(
    spec: SweepSpec, records: Sequence[Mapping[str, Any]]
) -> ResultTable:
    """Merge per-pattern A4 capture counts into the extension table."""
    table = ResultTable(title=f"A4 higher-dimension extension — {_dims(spec)} mesh")
    for count_index, count in enumerate(spec.fault_counts):
        rows = [r for r in records if r["_count_index"] == count_index]
        table.add(
            faults=count,
            mcc_nonfaulty=sum(r["mcc"] for r in rows) / spec.trials,
        )
    return table
