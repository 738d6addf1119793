"""CI gate: the T6 churn sweep is shard/worker invariant.

Runs a small fault-churn sweep (repro.experiments.exp_churn) serially,
then re-runs it across worker processes and several shard counts — the
merged tables must match byte-for-byte (rendered text and CSV), which
pins down that the online subsystem's whole event/routing history per
pattern is a pure function of the pattern's positional seed.  Both
online fault-information models are checked in one invocation: the
incremental MCC labelling and the incremental RFB blocks
(``mode="rfb"``, T6r).

Run (exits non-zero on any mismatch)::

    PYTHONPATH=src python benchmarks/bench_churn_smoke.py \
        --shape 8 8 8 --fault-counts 6 20 --trials 4 --pairs 40 \
        --epochs 4 --workers 2 --check-shards 1 2 4
"""

from __future__ import annotations

import argparse
import sys

from repro.parallel.sharding import SweepSpec, run_sweep


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shape", type=int, nargs="+", default=[8, 8, 8])
    parser.add_argument("--fault-counts", type=int, nargs="+", default=[6, 20])
    parser.add_argument("--trials", type=int, default=4)
    parser.add_argument("--pairs", type=int, default=40)
    parser.add_argument("--epochs", type=int, default=4)
    parser.add_argument("--churn", type=int, default=2)
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--check-shards", type=int, nargs="+", default=[1, 2, 4])
    args = parser.parse_args()

    def run(mode: str, workers: int, shards: int | None):
        spec = SweepSpec(
            "t6",
            tuple(args.shape),
            tuple(args.fault_counts),
            trials=args.trials,
            seed=args.seed,
            params={
                "pairs": args.pairs,
                "epochs": args.epochs,
                "churn": args.churn,
                "mode": mode,
            },
        )
        return run_sweep(spec, workers=workers, shards=shards)

    for mode in ("mcc", "rfb"):
        serial = run(mode, workers=1, shards=1)
        print(serial.render())
        for shards in args.check_shards:
            table = run(mode, workers=args.workers, shards=shards)
            if table.render() != serial.render() or table.to_csv() != serial.to_csv():
                fail(
                    f"{mode} churn sweep diverges at workers={args.workers}, "
                    f"shards={shards}"
                )
    print(
        f"PASS: mcc and rfb churn sweeps byte-identical for "
        f"workers={args.workers}, shards in {args.check_shards}"
    )


if __name__ == "__main__":
    main()
