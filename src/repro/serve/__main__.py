"""CLI: ``python -m repro.serve`` runs the offered-load sweep harness."""

from __future__ import annotations

import argparse
from typing import Sequence


def main(argv: Sequence[str] | None = None) -> None:
    from repro.serve.loadgen import PROFILES, run_offered_load_sweep
    from repro.util.validation import check_fault_count, check_workload

    parser = argparse.ArgumentParser(
        description=(
            "Drive the async routing service with a seeded load profile "
            "and print the latency-vs-offered-load table."
        )
    )
    parser.add_argument("--shape", type=int, nargs="+", default=[8, 8, 8])
    parser.add_argument("--faults", type=int, default=20)
    parser.add_argument(
        "--rates", type=float, nargs="+", default=[100.0, 300.0, 1000.0],
        help="offered request rates (requests per clock unit), one row each",
    )
    parser.add_argument("--profile", choices=PROFILES, default="soak")
    parser.add_argument("--duration", type=float, default=1.0)
    parser.add_argument(
        "--events", type=int, default=0,
        help="fault events spread across each run (preempt the batch queue)",
    )
    parser.add_argument("--churn", type=int, default=2)
    parser.add_argument("--batch-window", type=float, default=0.01)
    parser.add_argument("--depth", type=int, default=4096,
                        help="admission-control queue-depth bound")
    parser.add_argument(
        "--mode", choices=["mcc", "rfb", "oracle", "blind"], default="mcc"
    )
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument("--save", metavar="PATH", default=None,
                        help="also write the table as durable JSONL")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write a Perfetto trace-event JSON of the sweep")
    parser.add_argument("--csv", action="store_true", help="emit CSV")
    args = parser.parse_args(argv)
    try:
        check_fault_count(args.shape, args.faults)
        check_workload(
            {
                "rates": args.rates,
                "duration": args.duration,
                "churn": args.churn,
                "events": args.events,
                "batch_window": args.batch_window,
            }
        )
    except ValueError as exc:
        parser.error(str(exc))
    if args.depth < 1:
        parser.error(f"--depth must be >= 1, got {args.depth}")
    if args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")
    table = run_offered_load_sweep(
        tuple(args.shape),
        args.faults,
        args.rates,
        profile=args.profile,
        duration=args.duration,
        events=args.events,
        churn=args.churn,
        batch_window=args.batch_window,
        max_queue_depth=args.depth,
        mode=args.mode,
        seed=args.seed,
        save=args.save,
        trace_out=args.trace,
    )
    print(table.to_csv() if args.csv else table.render())


if __name__ == "__main__":
    main()
