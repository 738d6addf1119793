"""Multi-pattern sharding: sweep many fault patterns across processes.

The experiments average over many independently sampled fault patterns;
:mod:`repro.parallel.sharding` partitions that pattern axis across
``multiprocessing`` workers (one :class:`repro.routing.batch.RoutingService`
per pattern inside each worker) and merges the per-pattern records into
the experiment's summary table, seed-stably for any shard count.  Every
table (T1–T7, T6d) and the A1/A4 ablations is one :class:`SweepSpec`
run by :func:`run_sweep`, the one execution path.

Checkpoint & resume
-------------------

``run_sweep(..., checkpoint=path)`` journals one compact JSONL record
per completed fault pattern under a header carrying the canonical
:meth:`SweepSpec.fingerprint`.  Re-running the same sweep validates the
fingerprint, skips the pattern indices already on disk, and reduces
old+new records in global task order, so a sweep interrupted at any
point resumes to a byte-identical merged table::

    PYTHONPATH=src python -m repro.parallel t3 --workers 4 \\
        --checkpoint out/t3.jsonl

Interrupt it, run the exact command again, and only the missing
patterns are evaluated.  See :mod:`repro.parallel.sharding` for the
full CLI and format details.
"""

from repro.parallel.sharding import (
    PatternTask,
    PatternTaskError,
    SweepSpec,
    load_checkpoint,
    partition_tasks,
    plan_tasks,
    run_sweep,
)

__all__ = [
    "PatternTask",
    "PatternTaskError",
    "SweepSpec",
    "load_checkpoint",
    "partition_tasks",
    "plan_tasks",
    "run_sweep",
]
