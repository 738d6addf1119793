"""CI gate: checkpointed sweeps resume to byte-identical tables.

Simulates the failure mode checkpointing exists for: run a sweep with a
journal, "kill" it by truncating the journal after k completed pattern
records (every k, including 0 and all), resume, and require the merged
table to match the clean uninterrupted run byte-for-byte — CSV,
rendered text, and the durable JSONL file.  Also verifies that a resume
from a complete journal evaluates nothing (reduction straight from
disk) and that a corrupted partial final line is dropped and repaired.

Run (exits non-zero on any mismatch)::

    PYTHONPATH=src python benchmarks/bench_checkpoint_resume.py \
        --shape 6 6 --fault-counts 2 5 --trials 2 --pairs 10 \
        --check-shards 1 2 4
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

from repro.parallel.sharding import EXPERIMENTS, SweepSpec, plan_tasks, run_sweep


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def table_bytes(table, spec, path) -> bytes:
    table.save(path, fingerprint=spec.fingerprint())
    with open(path, "rb") as fh:
        return fh.read()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--experiment", choices=sorted(EXPERIMENTS),
                        default="success_rate")
    parser.add_argument("--shape", type=int, nargs="+", default=[6, 6])
    parser.add_argument("--fault-counts", type=int, nargs="+", default=[2, 5])
    parser.add_argument("--trials", type=int, default=2)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--check-shards", type=int, nargs="+", default=[1, 2, 4])
    args = parser.parse_args(argv)

    # --pairs sizes the workload of the experiments that take it.
    takes_pairs = "pairs" in EXPERIMENTS[args.experiment].knobs
    spec = SweepSpec(
        experiment=args.experiment,
        shape=tuple(args.shape),
        fault_counts=tuple(args.fault_counts),
        trials=args.trials,
        seed=args.seed,
        params={"pairs": args.pairs} if takes_pairs else {},
    )
    n_tasks = len(plan_tasks(spec))
    clean = run_sweep(spec, workers=args.workers)

    with tempfile.TemporaryDirectory() as tmp:
        journal = os.path.join(tmp, "sweep.jsonl")
        out = os.path.join(tmp, "table.jsonl")
        want_bytes = table_bytes(clean, spec, out)

        full = run_sweep(spec, workers=args.workers, checkpoint=journal)
        if table_bytes(full, spec, out) != want_bytes:
            fail("checkpointed run differs from clean run")
        with open(journal, "r", encoding="utf-8", newline="") as fh:
            lines = fh.read().splitlines(keepends=True)
        if len(lines) != n_tasks + 1:
            fail(f"journal holds {len(lines) - 1} records, expected {n_tasks}")

        checks = 0
        for k in range(n_tasks + 1):
            for shards in args.check_shards:
                with open(journal, "w", encoding="utf-8", newline="") as fh:
                    fh.writelines(lines[: 1 + k])
                resumed = run_sweep(
                    spec, workers=args.workers, shards=shards, checkpoint=journal
                )
                if table_bytes(resumed, spec, out) != want_bytes:
                    fail(f"resume after {k}/{n_tasks} records, "
                         f"shards={shards}: table differs")
                checks += 1

        # Kill mid-append: a partial final line must be dropped+repaired.
        with open(journal, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(lines[:-1])
            fh.write(lines[-1][: max(1, len(lines[-1]) // 2)])
        resumed = run_sweep(spec, workers=args.workers, checkpoint=journal)
        if table_bytes(resumed, spec, out) != want_bytes:
            fail("resume from partial final line differs")

        # Kill mid-header-write: a fresh journal replaces the stub.
        with open(journal, "w", encoding="utf-8", newline="") as fh:
            fh.write(lines[0][: len(lines[0]) // 2])
        resumed = run_sweep(spec, workers=args.workers, checkpoint=journal)
        if table_bytes(resumed, spec, out) != want_bytes:
            fail("restart from partial header differs")

        # A complete journal reduces from disk without re-evaluating.
        with open(journal, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(lines)
        before = os.path.getsize(journal)
        resumed = run_sweep(spec, workers=args.workers, checkpoint=journal)
        if table_bytes(resumed, spec, out) != want_bytes:
            fail("resume from complete journal differs")
        if os.path.getsize(journal) != before:
            fail("resume from complete journal appended records")

    print(f"PASS: {checks} truncation points x shard counts resumed "
          f"byte-identical ({args.experiment}, {n_tasks} patterns); "
          "partial-line repair, partial-header restart, and "
          "complete-journal fast path ok")


if __name__ == "__main__":
    main()
