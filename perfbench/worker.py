"""One workload in one fresh process: set up, time passes, check, report.

Started by ``run.py`` (never run it by hand: the launcher sets the
thread-pool variables, clears ``REPRO_SANITIZE`` and passes the spawn
time).  Prints one JSON object on its last stdout line.

Untraced mode repeats the pass until ``--seconds`` is used up and
reports medians over passes.  Traced mode alternates untraced and
traced passes, so the trace overhead is measured on the same inputs in
the same process; the per-layer numbers come from the traced passes.
Every pass digest must equal the first one's.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

OUT_DIR = Path(__file__).resolve().parent / "out"
#: Calibration rounds right after set-up; their median speed normalizes it.
SETUP_CAL_ROUNDS = 7


def unit_medians(results) -> dict[str, tuple[float, float, float]]:
    """Per unit, median over identical passes of raw wall seconds and of
    speed-normalized wall and CPU seconds (time x measured speed)."""
    out = {}
    for key in results[0].units:
        units = [r.units[key] for r in results]
        out[key] = (
            statistics.median(u[0] for u in units),
            statistics.median(u[0] * u[2] for u in units),
            statistics.median(u[1] * u[2] for u in units),
        )
    return out


def latency_metrics(samples, medians) -> dict[str, float]:
    """serve-churn's per-operation latencies, in ms, over unit medians."""

    def pct(kind, q):
        return 1e3 * float(np.percentile([medians[k][1] for k in samples[kind]], q))

    return {
        "tick_p50_ms": pct("tick", 50),
        "tick_p90_ms": pct("tick", 90),
        "inject_p50_ms": pct("inject", 50),
        "repair_p50_ms": pct("repair", 50),
    }


def main(argv=None) -> int:
    t_spawn = float(os.environ["PERFBENCH_T0"])
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import tracing
    import workloads
    from repro import obs

    workload = workloads.WORKLOADS[args.workload](args.seed)
    raw_setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - t_spawn
    rounds = [workloads.calibrate() for _ in range(SETUP_CAL_ROUNDS)]
    setup_s = raw_setup_s * workloads.REF_ROUND_S / statistics.median(rounds)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    untraced, traced, layer = [], [], []
    first = None
    digests = set()
    profilers = []
    start = time.perf_counter()
    while True:
        run_traced = args.trace == 1 and len(untraced) > len(traced)
        if run_traced:
            prof = tracing.Profiler(track=f"pass {len(traced)}")
            prof.install()
            try:
                result = workload.run_pass(prof)
            finally:
                prof.remove()
            traced.append(result)
            layer.append(tracing.layer_metrics(prof, result.counts, result.wall_s))
            profilers.append(prof)
        else:
            result = workload.run_pass(tracing.NullProfiler())
            untraced.append(result)
        digests.add(workload.digest(result))
        if first is None:
            first = result
        else:
            result.outputs = None  # only the first pass's outputs are checked
        elapsed = time.perf_counter() - start
        if args.trace == 1 and not traced:
            continue
        if elapsed + result.wall_s > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    passes = len(untraced) + len(traced)
    failed = workload.check(first) * passes
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "ops": workload.ops * passes,
        "failed": failed,
        "digest": next(iter(digests)) if len(digests) == 1 else None,
        "counts": first.counts,
        "passes": passes,
        "problems": [],
    }
    if len(digests) != 1:
        report["problems"].append(
            f"pass digests differ ({len(digests)} distinct): nondeterministic outputs"
        )
    medians = unit_medians(untraced)
    wall_s = sum(m[1] for m in medians.values())
    report["e2e"] = {
        "wall_s": wall_s,
        "cpu_s": sum(m[2] for m in medians.values()),
        "peak_rss_mb": peak_rss_mb,
    }
    report["raw_wall_s"] = sum(m[0] for m in medians.values())
    if first.samples:
        report["e2e"].update(latency_metrics(first.samples, medians))
        report["samples"] = {k: len(v) for k, v in first.samples.items()}
    if traced:
        metrics = {
            key: statistics.median(m[key] for m in layer) for key in layer[0]
        }
        traced_wall = sum(m[1] for m in unit_medians(traced).values())
        metrics["trace_overhead"] = traced_wall / wall_s - 1.0
        report["layers"] = metrics
        report["traced_wall_s"] = traced_wall
        report["problems"] += tracing.exercise_problems(workload.name, layer[0])
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"{workload.name}-seed{args.seed}.perfetto.json"
        obs.write_perfetto(trace_path, [sp for p in profilers for sp in p.spans])
        report["trace_file"] = os.path.relpath(trace_path)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
