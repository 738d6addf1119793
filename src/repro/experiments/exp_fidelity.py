"""Experiment T5: fidelity of the model's conditions and router.

Quantifies the paper's exactness claims against the oracle:

* ``cond_agree`` — Theorem 1/2 (merged Lemma 1) verdict vs monotone
  reachability, over random safe pairs (property P2);
* ``detect_agree`` — the operational detection walks vs the oracle;
* ``router_complete`` — fraction of feasible pairs where *every*
  adaptive choice sequence of the MCC-guided router reaches the
  destination (adversarial stuck-freedom, property P3);
* ``exclusion_exact`` — fraction of pairs where the MCC-guided
  candidate sets equal the oracle candidate sets at every reachable
  node ("fully adaptive": the model forbids nothing it shouldn't).

Each fault pattern — its condition evaluator, router, and pair workload
— is one sharded :class:`repro.parallel.sharding.PatternTask`;
``run_sweep(SweepSpec("t5", ...), workers=N)`` fans the patterns out
across processes and ``checkpoint=`` makes long sweeps resumable.  Each
pattern draws its mask and pair workload from its task's own stream
(:meth:`~repro.parallel.sharding.PatternTask.rng`), so the table is
byte-identical for any worker/shard layout (goldens in
``tests/test_sweep_goldens.py``).

Command line (flags shared with the other sweeps)::

    PYTHONPATH=src python -m repro.parallel t5 --shape 8 8 8 \
        --fault-counts 8 25 --trials 3 --pairs 30 --workers 4 \
        --checkpoint out/t5.jsonl
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.conditions import ConditionEvaluator
from repro.core.detection import detection_feasible_batch
from repro.experiments.workloads import random_fault_mask, sample_safe_pair
from repro.mesh.orientation import Orientation
from repro.parallel.sharding import PatternTask, SweepSpec
from repro.routing.engine import AdaptiveRouter, explore_all_choices
from repro.routing.oracle import group_jobs_by_class, probe_reverse_reachable
from repro.util.records import ResultTable


def _batched_reach(open_for_class, pairs, shape, keep: bool = False):
    """Monotone-reachability verdicts for many mesh-frame pairs.

    Groups the pairs by direction class and runs each class through the
    destination-grouped flood kernel
    (:func:`repro.routing.oracle.probe_reverse_reachable`) — the
    batched form of the per-pair ``minimal_path_exists`` floods the
    serial evaluator used.  ``open_for_class(orientation)`` supplies
    the canonical open mask (ground truth: non-faulty; condition form:
    labelled-safe).  With ``keep=True`` the per-destination reach masks
    are returned too, keyed ``(signs, dest)``, for reuse as oracle
    exclusion records.
    """
    verdicts = np.zeros(len(pairs), dtype=bool)
    kept: dict[tuple, np.ndarray] = {}
    for orientation, jobs in group_jobs_by_class(pairs, shape):
        class_kept: dict[tuple, np.ndarray] | None = {} if keep else None
        probe_reverse_reachable(
            open_for_class(orientation), jobs, verdicts, keep=class_kept
        )
        if keep:
            for dest, reach in class_kept.items():
                kept[(orientation.signs, dest)] = reach
    return verdicts, kept


def _candidate_sets_match(
    router: AdaptiveRouter, source: tuple, dest: tuple, blocked: np.ndarray
) -> bool:
    """MCC candidate sets == oracle candidate sets on reachable cells.

    ``blocked`` is the precomputed oracle exclusion record for the
    pair's (class, destination) — shared across pairs by the batched
    reach pass instead of re-flooded per pair.
    """
    orientation = Orientation.for_pair(source, dest, router.fault_mask.shape)
    s = orientation.map_coord(source)
    d = orientation.map_coord(dest)
    model = router._model_for(orientation)
    stack, seen = [s], {s}
    while stack:
        pos = stack.pop()
        if pos == d:
            continue
        mcc_cands = set(model.candidates(pos, d))
        oracle_cands = set()
        for axis in range(len(pos)):
            if pos[axis] >= d[axis]:
                continue
            nxt = list(pos)
            nxt[axis] += 1
            if not blocked[tuple(nxt)]:
                oracle_cands.add(axis)
        if mcc_cands != oracle_cands:
            return False
        for axis in sorted(mcc_cands):
            nxt = list(pos)
            nxt[axis] += 1
            nxt = tuple(nxt)
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return True


def evaluate_pattern(spec: SweepSpec, task: PatternTask) -> dict[str, int]:
    """Model-vs-oracle agreement counters for one fault pattern.

    The mask and the pair workload come from the task's own stream,
    then are scored in batches: ground truth and the condition form
    each run one batched reverse flood per destination group
    (:func:`_batched_reach`), detection goes through
    :func:`detection_feasible_batch`, and the oracle reach masks are
    reused as the exclusion records of the candidate-set comparison —
    no per-pair floods anywhere.
    """
    shape = spec.shape
    pairs = int(spec.params["pairs"])
    rng = task.rng()
    mask = random_fault_mask(shape, task.count, rng=rng)
    evaluator = ConditionEvaluator(mask)
    router = AdaptiveRouter(mask, mode="mcc")
    record = {
        "cond_agree": 0,
        "detect_agree": 0,
        "total": 0,
        "feasible": 0,
        "router_complete": 0,
        "exclusion_exact": 0,
    }
    batch = []
    for _ in range(pairs):
        pair = sample_safe_pair(~mask, rng=rng, min_distance=2)
        if pair is None or not evaluator.endpoint_safe(*pair):
            continue
        batch.append(pair)
    record["total"] = len(batch)
    if not batch:
        return record
    wants, oracle_reach = _batched_reach(
        lambda o: o.to_canonical(~mask), batch, shape, keep=True
    )
    conds, _ = _batched_reach(
        lambda o: evaluator.for_orientation(o)[0].safe_mask, batch, shape
    )
    detects = detection_feasible_batch(mask, batch)
    record["cond_agree"] = int((conds == wants).sum())
    record["detect_agree"] = int((detects == wants).sum())
    for i, (source, dest) in enumerate(batch):
        if not wants[i]:
            continue
        record["feasible"] += 1
        ok, _ = explore_all_choices(router, source, dest)
        record["router_complete"] += ok
        orientation = Orientation.for_pair(source, dest, shape)
        blocked = ~oracle_reach[
            (orientation.signs, orientation.map_coord(dest))
        ]
        record["exclusion_exact"] += _candidate_sets_match(
            router, source, dest, blocked
        )
    return record


def reduce_records(
    spec: SweepSpec, records: Sequence[Mapping[str, Any]]
) -> ResultTable:
    """Merge per-pattern agreement counters into the T5 table."""
    dims = f"{len(spec.shape)}-D {'x'.join(map(str, spec.shape))}"
    table = ResultTable(title=f"T5 model fidelity vs oracle — {dims} mesh")
    for count_index, count in enumerate(spec.fault_counts):
        rows = [r for r in records if r["_count_index"] == count_index]
        sums = {
            key: sum(r[key] for r in rows)
            for key in (
                "cond_agree",
                "detect_agree",
                "total",
                "feasible",
                "router_complete",
                "exclusion_exact",
            )
        }
        total = sums["total"]
        feasible = sums["feasible"]
        table.add(
            faults=count,
            pairs=total,
            cond_agree=sums["cond_agree"] / total if total else 1.0,
            detect_agree=sums["detect_agree"] / total if total else 1.0,
            feasible=feasible,
            router_complete=(
                sums["router_complete"] / feasible if feasible else 1.0
            ),
            exclusion_exact=(
                sums["exclusion_exact"] / feasible if feasible else 1.0
            ),
        )
    return table
