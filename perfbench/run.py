"""Benchmark entry point: one workload, one seed, fresh processes.

    python3 perfbench/run.py --workload static-sweep --seed 2005 --seconds 20 --trace 0
    python3 perfbench/run.py --workload serve-churn --trace 1
    python3 perfbench/run.py --workload des-lifecycle --repeat 5 [--vary-seed]

A run spawns ``SETUP_PROBES`` set-up-only processes and then one
measuring process, one after another, each a fresh single-threaded
interpreter with ``REPRO_SANITIZE`` unset and the BLAS/OpenMP pools at
one thread.  ``setup_s`` is the median set-up time over all of them.
The last stdout line is the machine-readable JSON result: with
``--trace 0`` every ``end_to_end`` metric of BENCHMARK.json, with
``--trace 1`` every ``per_layer`` metric.  The exit code is non-zero
when an output check, the recorded digest, the traced/untraced digest
comparison or the exercise/bypass check fails.

``--repeat K`` is the steadiness mode: K runs of the workload (seed,
or seed, seed+1, ... with ``--vary-seed``) and, per metric, median,
quartiles, min, max, (max-min)/median and IQR/median next to the
metric's bound.  With a fixed seed any exact count or digest that moves
between runs is flagged: that is nondeterminism, not machine noise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 2005
DEFAULT_SECONDS = 30
SETUP_PROBES = 6
#: Digests of the deterministic outputs at DEFAULT_SEED, per workload.
DIGESTS = HERE / "digests.json"
CHILD_TIMEOUT_S = 170

# Metrics only serve-churn has; not in BENCHMARK.json (see README.md).
SERVE_ONLY = {
    "tick_p50_ms": "ms",
    "tick_p90_ms": "ms",
    "inject_p50_ms": "ms",
    "repair_p50_ms": "ms",
}


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("REPRO_SANITIZE", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    # Every run compiles the program from source: no bytecode cache to
    # make later runs' set-up cheaper than the first one's.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _spawn(args: list[str], deadline: float) -> dict:
    """Run one worker process to completion; its last stdout line."""
    env = _child_env()
    env["PERFBENCH_T0"] = repr(time.clock_gettime(time.CLOCK_MONOTONIC))
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Set-up probes, then the measuring process; the merged report."""
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    probes = [_spawn([*common, "--setup-only"], deadline) for _ in range(SETUP_PROBES)]
    report = _spawn([*common, "--trace", str(trace)], deadline)
    probes.append(report)
    report["e2e"]["setup_s"] = statistics.median(p["setup_s"] for p in probes)
    report["raw_setup_samples"] = [p["raw_setup_s"] for p in probes]
    if seed == DEFAULT_SEED:
        recorded = json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload)
        if recorded is not None and report["digest"] != recorded:
            report["problems"].append(
                f"digest {report['digest']} != recorded {recorded} for seed {seed}"
            )
    return report


def _result_line(report: dict, spec: dict, trace: int) -> dict:
    group = spec["per_layer"] if trace else spec["end_to_end"]
    source = report["layers"] if trace else report["e2e"]
    metrics = {
        m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in group
    }
    correct = report["failed"] == 0 and not report["problems"]
    return {
        "correct": correct,
        "attempted": int(report["ops"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }


def _print_report(report: dict, spec: dict, trace: int) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  passes {report['passes']}")
    print(f"ops {report['ops']}  failed {report['failed']}  digest {report['digest']}")
    print(f"raw (unnormalized) wall {report['raw_wall_s']:.4f} s, "
          f"set-up {statistics.median(report['raw_setup_samples']):.4f} s")
    if report.get("samples"):
        print("samples per pass: " + ", ".join(f"{k} {v}" for k, v in report["samples"].items()))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]} | SERVE_ONLY
    print("end-to-end:")
    for name, value in report["e2e"].items():
        print(f"  {name:<16} {value:12.4f} {units[name]}")
    if trace:
        layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        print(f"per-layer (traced wall {report['traced_wall_s']:.4f} s):")
        for name, value in report["layers"].items():
            print(f"  {name:<40} {value:14.4f} {layer_units[name]}")
        print(f"spans written to {report['trace_file']}")
    counts = json.dumps(report["counts"], sort_keys=True)
    print(f"counts {counts[:400]}{'...' if len(counts) > 400 else ''}")
    for problem in report["problems"]:
        print(f"PROBLEM: {problem}")


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def steadiness(args, spec) -> int:
    """Run the workload K times; report each metric's spread vs its bound."""
    reports = []
    for i in range(args.repeat):
        seed = args.seed + i if args.vary_seed else args.seed
        report = run_once(args.workload, seed, args.seconds, args.trace)
        line = _result_line(report, spec, args.trace)
        print(f"run {i + 1}/{args.repeat} seed {seed}: correct={line['correct']} "
              f"raw_wall_s={report['raw_wall_s']:.4f} "
              + " ".join(f"{k}={v['value']:.4f}" for k, v in line["metrics"].items()),
              flush=True)
        reports.append(report)
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in group}
    source = "layers" if args.trace else "e2e"
    names = list(reports[0][source])
    print(f"\n{'metric':<40} {'median':>11} {'q1':>11} {'q3':>11} {'min':>11} "
          f"{'max':>11} {'range/med':>9} {'iqr/med':>8} {'bound':>6}")
    for name in names:
        values = [r[source][name] for r in reports]
        med = statistics.median(values)
        q1, q3 = _quartiles(values)
        rng = (max(values) - min(values)) / med if med else 0.0
        iqr = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and iqr > bound / 3:
            flag = "  <-- spread above a third of the bound"
        print(f"{name:<40} {med:11.4f} {q1:11.4f} {q3:11.4f} {min(values):11.4f} "
              f"{max(values):11.4f} {rng:9.4f} {iqr:8.4f} "
              f"{'-' if bound is None else bound:>6}{flag}")
    ok = all(_result_line(r, spec, args.trace)["correct"] for r in reports)
    if not args.vary_seed:
        for key in ("digest", "counts"):
            seen = {json.dumps(r[key], sort_keys=True) for r in reports}
            if len(seen) != 1:
                ok = False
                print(f"FLAG: {key} moved between runs of seed {args.seed}: "
                      "the workload is nondeterministic")
    return 0 if ok else 1


def main(argv=None) -> int:
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness mode: run the workload this many times")
    parser.add_argument("--vary-seed", action="store_true",
                        help="with --repeat, use seed, seed+1, ...")
    args = parser.parse_args(argv)
    if args.repeat:
        return steadiness(args, spec)
    report = run_once(args.workload, args.seed, args.seconds, args.trace)
    _print_report(report, spec, args.trace)
    line = _result_line(report, spec, args.trace)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
