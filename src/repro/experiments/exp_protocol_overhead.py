"""Experiment T3: message overhead of the distributed protocols.

The point of the paper's "limited global information" design: protocol
cost scales with the fault regions, not the mesh.  We run the full
distributed pipeline (labelling → identification → boundaries) on
random fault patterns and report messages per phase and per kind.

Each fault pattern — one pipeline build plus its message audit — is one
sharded :class:`repro.parallel.sharding.PatternTask`;
``run_sweep(SweepSpec("t3", ...), workers=N)`` fans the patterns out
across processes and ``checkpoint=`` makes long sweeps resumable.  Each
pattern draws its mask from its task's own stream
(:meth:`~repro.parallel.sharding.PatternTask.rng`), so the table is
byte-identical for any worker/shard layout (goldens in
``tests/test_sweep_goldens.py``).

Command line (flags shared with the other sweeps)::

    PYTHONPATH=src python -m repro.parallel t3 --shape 9 9 9 \
        --fault-counts 4 12 24 --trials 3 --workers 4 \
        --checkpoint out/t3.jsonl
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro.distributed.pipeline import DistributedMCCPipeline
from repro.experiments.workloads import random_fault_mask
from repro.mesh.topology import Mesh
from repro.parallel.sharding import PatternTask, SweepSpec
from repro.util.records import ResultTable


def evaluate_pattern(spec: SweepSpec, task: PatternTask) -> dict[str, Any]:
    """Protocol message counts for one sampled fault pattern."""
    mask = random_fault_mask(spec.shape, task.count, rng=task.rng())
    pipe = DistributedMCCPipeline(Mesh(spec.shape), mask).build()
    return {"msgs": {kind: int(n) for kind, n in pipe.message_counts().items()}}


def reduce_records(
    spec: SweepSpec, records: Sequence[Mapping[str, Any]]
) -> ResultTable:
    """Merge per-pattern message counts into the T3 table."""
    dims = f"{len(spec.shape)}-D {'x'.join(map(str, spec.shape))}"
    table = ResultTable(
        title=f"T3 protocol message overhead — {dims} mesh, {spec.trials} trials"
    )
    mesh_size = int(np.prod(spec.shape))
    for count_index, count in enumerate(spec.fault_counts):
        sums: dict[str, float] = {}
        for record in records:
            if record["_count_index"] != count_index:
                continue
            for kind, n in record["msgs"].items():
                sums[kind] = sums.get(kind, 0.0) + n
        row = {k: v / spec.trials for k, v in sorted(sums.items())}
        table.add(
            faults=count,
            label=row.get("LABEL", 0.0),
            edge=row.get("EDGE", 0.0),
            ident=row.get("IDENT", 0.0) + row.get("IDENT_BACK", 0.0),
            shape=row.get("SHAPE", 0.0),
            wall=row.get("WALL", 0.0),
            total=row.get("phase[labelling]", 0.0)
            + row.get("phase[identification+boundaries]", 0.0),
            per_node=(
                row.get("phase[labelling]", 0.0)
                + row.get("phase[identification+boundaries]", 0.0)
            )
            / mesh_size,
        )
    return table
