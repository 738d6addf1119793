"""Experiment T5: fidelity of the model's conditions and router.

Quantifies the paper's exactness claims against the oracle:

* ``cond_agree`` — Theorem 1/2 (merged Lemma 1) verdict vs monotone
  reachability, over random class-safe pairs (property P2);
* ``detect_agree`` — the source-side detection verdict
  (:func:`repro.core.detection.detection_feasible_batch`) vs the
  oracle;
* ``router_complete`` — fraction of feasible pairs where *every*
  adaptive choice sequence of the MCC-guided router reaches the
  destination (adversarial stuck-freedom, property P3);
* ``exclusion_exact`` — fraction of feasible pairs where the MCC-guided
  candidate sets equal the oracle candidate sets at every node the
  router can reach ("fully adaptive": the model forbids nothing it
  shouldn't).

Every verdict goes through one mcc and one oracle
:class:`~repro.routing.batch.RoutingService` per pattern, the one
batched path from pairs to the flood kernel: the two services'
``feasible_batch`` verdicts are the condition and the ground truth,
and the two router predicates are array floods over the (class,
destination) groups of the mcc service's batch decomposition
(:func:`_choice_verdicts`).

Each fault pattern — its services and pair workload — is one sharded
:class:`repro.parallel.sharding.PatternTask`;
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
from repro.parallel.sharding import PatternTask, SweepSpec
from repro.routing.batch import RoutingService
from repro.routing.oracle import WORD_BITS, monotone_flood_many
from repro.service import make_service
from repro.util.records import ResultTable


def _has_successor(mask: np.ndarray) -> np.ndarray:
    """Cells whose +1 neighbour along some axis lies in ``mask``."""
    out = np.zeros_like(mask)
    for axis in range(mask.ndim):
        cell = [slice(None)] * mask.ndim
        step = [slice(None)] * mask.ndim
        cell[axis], step[axis] = slice(None, -1), slice(1, None)
        out[tuple(cell)] |= mask[tuple(step)]
    return out


def _choice_verdicts(
    mcc: RoutingService, oracle: RoutingService, pairs: Sequence
) -> tuple[np.ndarray, np.ndarray]:
    """``router_complete`` and ``exclusion_exact`` per pair, as floods.

    ``pairs`` are mesh-frame pairs with non-faulty endpoints.  In each
    (class, destination) group of ``mcc``'s batch decomposition, R is
    the mcc service's reach mask of the destination and O the
    oracle's.  The router's candidates at a cell are its +1 neighbours
    in R (R holds no cell beyond the destination, so each such step
    stays in the box), so every adaptive choice sequence from a source
    visits only the source and its forward flood through R:

    * ``router_complete`` holds when every visited cell other than the
      destination has a +1 neighbour in R — no choice strands a packet;
    * ``exclusion_exact`` holds when R and O agree at every +1
      neighbour of a visited cell — the mcc candidate set equals the
      oracle's wherever the router can stand.

    The floods run :data:`~repro.routing.oracle.WORD_BITS` sources per
    kernel call, each through its own group's R.
    """
    complete = np.zeros(len(pairs), dtype=bool)
    exact = np.zeros(len(pairs), dtype=bool)
    rows = []  # (input index, flat source, R, stuck cells, disputed cells)
    for group, reach in mcc._primed(mcc._grouped(list(pairs), [None] * len(pairs))):
        truth = oracle._model_for(group.orientation).reach_mask(group.dest)
        stuck = ~_has_successor(reach).reshape(-1)
        stuck[group.dest_flat] = False
        disputed = _has_successor(reach != truth).reshape(-1)
        for index, source in zip(
            group.indices.tolist(), group.sources.tolist(), strict=True
        ):
            rows.append((index, source, reach, stuck, disputed))
    for lo in range(0, len(rows), WORD_BITS):
        chunk = rows[lo : lo + WORD_BITS]
        indices, sources, reach, stuck, disputed = zip(*chunk, strict=True)
        indices = list(indices)
        seeds = np.zeros((len(indices), reach[0].size), dtype=bool)
        seeds[np.arange(len(indices)), sources] = True
        visited = monotone_flood_many(
            list(reach), seeds.reshape(len(indices), *reach[0].shape)
        ).reshape(len(indices), -1)
        visited |= seeds
        complete[indices] = ~(visited & np.stack(stuck)).any(axis=1)
        exact[indices] = ~(visited & np.stack(disputed)).any(axis=1)
    return complete, exact


def evaluate_pattern(spec: SweepSpec, task: PatternTask) -> dict[str, int]:
    """Model-vs-oracle agreement counters for one fault pattern.

    The mask and the pair workload come from the task's own stream.
    The pairs are scored in batches: the mcc and oracle services'
    ``feasible_batch`` give the condition and the ground truth,
    :func:`detection_feasible_batch` the detection verdicts, and
    :func:`_choice_verdicts` the router predicates of the feasible
    pairs — no per-pair flood or search anywhere.
    """
    shape = spec.shape
    pairs = int(spec.params["pairs"])
    rng = task.rng()
    mask = random_fault_mask(shape, task.count, rng=rng)
    evaluator = ConditionEvaluator(mask)
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
    mcc = make_service(mask, mode="mcc")
    oracle = make_service(mask, mode="oracle")
    conds = mcc.feasible_batch(batch)
    wants = oracle.feasible_batch(batch)
    detects = detection_feasible_batch(mask, batch)
    feasible = [pair for pair, want in zip(batch, wants.tolist(), strict=True) if want]
    complete, exact = _choice_verdicts(mcc, oracle, feasible)
    record["cond_agree"] = int((conds == wants).sum())
    record["detect_agree"] = int((detects == wants).sum())
    record["feasible"] = len(feasible)
    record["router_complete"] = int(complete.sum())
    record["exclusion_exact"] = int(exact.sum())
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
