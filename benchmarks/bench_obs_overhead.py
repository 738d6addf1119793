"""CI gate: telemetry is free when off and invisible when on.

Three checks on the T4-small sweep (the obs-smoke job):

1. **Disabled-overhead gate** — with no tracer installed every
   instrumented seam costs one module-global read.  The gate measures
   the per-call cost of the no-op path directly (a tight loop of
   ``obs.span``/``obs.instant`` calls with tracing off), counts the
   spans a traced run of the same sweep actually emits, and requires
   ``span_count * percall <= budget * untraced_runtime`` (default
   budget 5%).  Measuring the product instead of differencing two
   noisy end-to-end timings makes the gate stable on shared runners.
2. **Table byte-identity** — the JSONL table saved by a traced run is
   byte-for-byte the one saved by an untraced run of the same seed
   (telemetry must never perturb results).  Caches are cleared before
   each run so both start equally cold.
3. **Export validity** — the traced run's Perfetto JSON parses, every
   event carries the trace-event schema fields, and the spans cover at
   least four layers of the stack (routing / kernel / des /
   distributed / harness).

Artifacts: the Perfetto trace and a ``BENCH_obs.json`` summary are
written to ``--out-dir`` for upload.

Run (exits non-zero on any failure)::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py \
        --shape 5 5 5 --fault-counts 2 4 --queries 4 --trials 1 \
        --max-overhead 0.05 --out-dir bench_artifacts
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro import obs
from repro.core.model_cache import clear_labelling_cache
from repro.parallel.sharding import SweepSpec, run_sweep


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def time_noop_path(calls: int) -> float:
    """Per-call seconds of the disabled ``obs.span`` + ``obs.instant`` pair."""
    assert not obs.enabled()
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        for _ in range(calls):
            with obs.span("x", cat="bench"):
                pass
            obs.instant("y", cat="bench")
        best = min(best, time.perf_counter() - started)
    return best / (2 * calls)  # two instrumented sites per iteration


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shape", type=int, nargs="+", default=[5, 5, 5])
    parser.add_argument("--fault-counts", type=int, nargs="+", default=[2, 4])
    parser.add_argument("--queries", type=int, default=4)
    parser.add_argument("--trials", type=int, default=1)
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument(
        "--max-overhead", type=float, default=0.05,
        help="disabled-tracing budget as a fraction of untraced runtime",
    )
    parser.add_argument(
        "--noop-calls", type=int, default=200_000,
        help="loop length for timing the no-op fast path",
    )
    parser.add_argument("--out-dir", default="bench_artifacts")
    args = parser.parse_args()
    shape = tuple(args.shape)
    os.makedirs(args.out_dir, exist_ok=True)
    trace_path = os.path.join(args.out_dir, "t4_small.perfetto.json")

    spec = SweepSpec(
        "t4",
        shape,
        tuple(args.fault_counts),
        trials=args.trials,
        seed=args.seed,
        params={"queries": args.queries},
    )

    def sweep(save=None, trace=None):
        clear_labelling_cache()
        return run_sweep(spec, save=save, trace=trace)

    # Untraced reference run: runtime + golden table bytes.
    untraced_save = os.path.join(args.out_dir, "t4_untraced.jsonl")
    started = time.perf_counter()
    table = sweep(save=untraced_save)
    untraced_runtime = time.perf_counter() - started
    print(table.render())

    # Traced run: golden-table comparison + the exported artifact.
    traced_save = os.path.join(args.out_dir, "t4_traced.jsonl")
    sweep(save=traced_save, trace=trace_path)
    with open(untraced_save, "rb") as fh:
        golden = fh.read()
    with open(traced_save, "rb") as fh:
        traced_bytes = fh.read()
    if traced_bytes != golden:
        fail("traced run's saved table differs from the untraced golden")
    print(f"PASS: traced table byte-identical to untraced ({len(golden)} bytes)")

    with open(trace_path, encoding="utf-8") as fh:
        events = json.load(fh)["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    for e in complete:
        missing = {"name", "cat", "pid", "tid", "ts", "dur"} - set(e)
        if missing:
            fail(f"trace event {e.get('name')!r} missing fields {missing}")
    cats = {e["cat"] for e in complete}
    layers = cats & {"routing", "kernel", "des", "distributed", "harness"}
    if len(layers) < 4:
        fail(f"trace covers layers {sorted(layers)}; need >= 4")
    print(
        f"PASS: {len(events)} trace events across layers {sorted(layers)} "
        f"({trace_path})"
    )

    # Disabled-overhead gate: cost of every seam if the traced run had
    # been executed with tracing off.
    span_count = len(complete) + sum(e["ph"] == "i" for e in events)
    percall = time_noop_path(args.noop_calls)
    disabled_cost = span_count * percall
    budget = args.max_overhead * untraced_runtime
    print(
        f"no-op path: {percall * 1e9:.0f} ns/call; {span_count} seams "
        f"-> {disabled_cost * 1e6:.1f} us vs budget {budget * 1e6:.0f} us "
        f"({args.max_overhead:.0%} of {untraced_runtime:.3f}s untraced)"
    )
    if disabled_cost > budget:
        fail(
            f"disabled tracing would cost {disabled_cost / untraced_runtime:.2%} "
            f"of the untraced runtime (budget {args.max_overhead:.0%})"
        )
    print("PASS: disabled-tracing overhead within budget")

    summary = {
        "untraced_runtime_s": untraced_runtime,
        "noop_percall_ns": percall * 1e9,
        "span_count": span_count,
        "disabled_overhead_fraction": disabled_cost / untraced_runtime,
        "max_overhead": args.max_overhead,
        "trace_events": len(events),
        "layers": sorted(layers),
        "table_bytes": len(golden),
    }
    out = os.path.join(args.out_dir, "BENCH_obs.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
