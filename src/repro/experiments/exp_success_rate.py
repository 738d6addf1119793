"""Experiment T2: rate of successful minimal routing per fault model.

For random safe (source, destination) pairs, a model "succeeds" when it
admits a minimal path:

* ``oracle`` — a monotone path through non-faulty nodes exists (ground
  truth upper bound);
* ``mcc``    — a monotone path through MCC-safe nodes exists; the paper
  proves this equals the oracle (property P1/P2), so any daylight
  between the two columns is a reproduction failure;
* ``rfb``    — a monotone path outside the rectangular faulty blocks
  exists (the best prior model);
* ``ecube``  — the deterministic dimension-order path is fault-free.

Pairs whose endpoints fall inside a model's fault region count as
failures for that model (the model refuses the routing), which is
exactly how the fault-block literature scores success rates.

Each fault pattern is one :class:`repro.parallel.sharding.PatternTask`:
its verdicts come from one :meth:`RoutingService.feasible_batch` call
per model, which shares each direction class's ``LabelledGrid`` and one
reverse flood per distinct destination across the whole pattern.  The
pattern axis itself is sharded across processes by
``run_sweep(SweepSpec("t2", ...), workers=N)``
(:mod:`repro.parallel.sharding`), with seed-stable results for any
worker/shard count.

Command line (flags shared with the other sweeps)::

    PYTHONPATH=src python -m repro.parallel \
        t2 --shape 12 12 12 \
        --fault-counts 20 60 120 --trials 8 --pairs 200 --workers 4

``--pairs`` sets the pair workload sampled per pattern (default 200);
``--workers`` the process count (1 = in-process); ``--shards``
overrides the partition count for shard-invariance checks.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro.baselines.ecube import ecube_succeeds
from repro.experiments.workloads import random_fault_mask, sample_safe_pair
from repro.parallel.sharding import PatternTask, SweepSpec
from repro.service import make_service
from repro.util.records import ResultTable


def evaluate_pattern(spec: SweepSpec, task: PatternTask) -> dict[str, int]:
    """Score one fault pattern: per-model success counts over its pairs."""
    rng = task.rng()
    mask = random_fault_mask(spec.shape, task.count, rng=rng)
    batch = []
    for _ in range(int(spec.params["pairs"])):
        pair = sample_safe_pair(~mask, rng=rng, min_distance=2)
        if pair is not None:
            batch.append(pair)
    record = {"pairs": len(batch), "oracle": 0, "mcc": 0, "rfb": 0, "ecube": 0}
    if not batch:
        return record
    for model in ("oracle", "mcc", "rfb"):
        verdicts = make_service(mask, mode=model).feasible_batch(batch)
        record[model] = int(verdicts.sum())
    record["ecube"] = int(
        sum(ecube_succeeds(mask, source, dest) for source, dest in batch)
    )
    return record


def reduce_records(
    spec: SweepSpec, records: Sequence[Mapping[str, Any]]
) -> ResultTable:
    """Merge per-pattern counts into the success-rate table."""
    dims = f"{len(spec.shape)}-D {'x'.join(map(str, spec.shape))}"
    table = ResultTable(
        title=(
            f"T2 minimal-routing success rate — {dims} mesh, "
            f"{spec.trials} fault patterns x {spec.params['pairs']} pairs"
        )
    )
    mesh_size = float(np.prod(spec.shape))
    for count_index, count in enumerate(spec.fault_counts):
        rows = [r for r in records if r["_count_index"] == count_index]
        total = sum(r["pairs"] for r in rows)
        wins = {
            model: sum(r[model] for r in rows)
            for model in ("oracle", "mcc", "rfb", "ecube")
        }
        table.add(
            faults=count,
            fault_rate=count / mesh_size,
            pairs=total,
            oracle=wins["oracle"] / total if total else 0.0,
            mcc=wins["mcc"] / total if total else 0.0,
            rfb=wins["rfb"] / total if total else 0.0,
            ecube=wins["ecube"] / total if total else 0.0,
        )
    return table
