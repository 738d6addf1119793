"""CI gate: the T7 contended-link load sweep is invariant and opt-in.

Three checks:

1. **Shard/worker invariance** — the merged T7 table is byte-identical
   for workers 1 vs 2 and every shard count in ``--check-shards``
   (records are pure functions of their positional seeds; the reducer
   merges in global task order).
2. **Checkpoint resume byte-identity** — a T7 journal truncated after
   any prefix of completed pattern records resumes to the same bytes
   as an uninterrupted run.
3. **Uncontended golden parity** — with the default
   ``link_capacity=None`` the contended-link machinery must be inert:
   a fixed-seed T4 run reproduces the table captured before the
   contention layer existed, and a fixed-seed T3 run its regression
   pin, byte for byte.

Run (exits non-zero on any failure)::

    PYTHONPATH=src python benchmarks/bench_load_sweep.py \
        --shape 6 6 --fault-counts 2 4 --trials 2 \
        --rates 0.3 1.0 --duration 12 --check-shards 1 2 4
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

from repro.parallel.sharding import SweepSpec, run_sweep

#: Uncontended goldens (fixed args, fixed seeds).  Any drift means the
#: ``link_capacity=None`` path is no longer byte-identical.  GOLDEN_T3 is
#: a regression pin, re-captured when T3's patterns moved onto their
#: tasks' own streams (the pre-contention table drew from a replayed
#: per-fault-count stream); GOLDEN_T4 is the pre-contention table.
GOLDEN_T3 = """\
faults,label,edge,ident,shape,wall,total,per_node
2,0.0,10.5,5.0,2.0,3.5,21.0,0.5833333333333334
4,3.0,27.0,15.0,5.5,4.0,54.5,1.5138888888888888
"""

GOLDEN_T4 = """\
faults,queries,delivered,oracle,agreement,minimal_of_delivered,stuck,msgs_per_query
2,16,1.0,1.0,1.0,1.0,0,52.4375
4,15,1.0,1.0,1.0,1.0,0,37.6
"""


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def csv_lf(table) -> str:
    return table.to_csv().replace("\r\n", "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shape", type=int, nargs="+", default=[6, 6])
    parser.add_argument("--fault-counts", type=int, nargs="+", default=[2, 4])
    parser.add_argument("--trials", type=int, default=2)
    parser.add_argument("--rates", type=float, nargs="+", default=[0.3, 1.0])
    parser.add_argument("--duration", type=float, default=12.0)
    parser.add_argument("--capacity", type=int, default=1)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--check-shards", type=int, nargs="+", default=[1, 2, 4])
    args = parser.parse_args()
    spec = SweepSpec(
        "t7",
        tuple(args.shape),
        tuple(args.fault_counts),
        trials=args.trials,
        seed=args.seed,
        params={
            "rates": list(args.rates),
            "duration": args.duration,
            "capacity": args.capacity,
        },
    )

    # 1. Shard/worker invariance.
    with tempfile.TemporaryDirectory() as tmp:
        base_path = os.path.join(tmp, "base.jsonl")
        base = run_sweep(spec, save=base_path)
        with open(base_path, "rb") as fh:
            base_bytes = fh.read()
        for shards in args.check_shards:
            path = os.path.join(tmp, f"s{shards}.jsonl")
            run_sweep(spec, workers=2, shards=shards, save=path)
            with open(path, "rb") as fh:
                got = fh.read()
            if got != base_bytes:
                fail(f"t7 table differs at workers=2 shards={shards}")
        print(
            f"PASS: t7 byte-identical across workers 1/2 and shards "
            f"{args.check_shards} ({len(base_bytes)} bytes)"
        )

        # 2. Checkpoint resume byte-identity: truncate the journal after
        # every completed-record prefix and resume each time.
        clean_ck = os.path.join(tmp, "clean.jsonl")
        run_sweep(spec, checkpoint=clean_ck)
        with open(clean_ck, encoding="utf-8") as fh:
            journal_lines = fh.readlines()
        n_records = len(journal_lines) - 1  # header line first
        for keep in range(n_records):
            ck = os.path.join(tmp, f"resume{keep}.jsonl")
            with open(ck, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(journal_lines[: 1 + keep])
            resumed = run_sweep(spec, checkpoint=ck, workers=2)
            if csv_lf(resumed) != csv_lf(base):
                fail(f"t7 resume after {keep}/{n_records} records diverged")
        print(
            f"PASS: t7 checkpoint resume byte-identical for every prefix "
            f"(0..{n_records - 1} of {n_records} records)"
        )
    print(base.render())

    # 3. Uncontended golden parity: T3/T4 with default links reproduce
    # their goldens exactly (fixed args regardless of CLI).
    t3 = run_sweep(SweepSpec("t3", (6, 6), [2, 4], trials=2, seed=6))
    if csv_lf(t3) != GOLDEN_T3:
        fail("T3 table drifted from its regression pin")
    print("PASS: T3 uncontended golden parity")
    t4 = run_sweep(
        SweepSpec("t4", (5, 5, 5), [2, 4], trials=2, seed=2005, params={"queries": 8})
    )
    if csv_lf(t4) != GOLDEN_T4:
        fail("T4 table drifted from the pre-contention golden")
    print("PASS: T4 uncontended golden parity")


if __name__ == "__main__":
    main()
