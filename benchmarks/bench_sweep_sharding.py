"""B: multi-pattern sweep scaling — sharded runner vs the serial loop.

The acceptance target for the sharded sweep runner: on a 12^3 mesh the
T2 success-rate sweep with 4 workers must beat the serial in-process
pattern loop by at least 2x (near-linear on enough cores) while the
merged result tables stay **byte-identical** for 1, 2, and 4 shards.

The identity half of the gate is unconditional.  The speedup half is
physical: a 4-worker run cannot beat serial on a single-core container,
so when fewer than 2 CPUs are available the speedup assertion is
reported but skipped (the CI smoke gate runs on multi-core runners).
Each side is timed as the fastest of ``ROUNDS`` alternating rounds: a
single pair of sub-second timings reads host noise on a shared 2-core
runner.  A shared host can also give the worker pool one core for a
whole run: the benchmark reports how many cores the fastest sharded
round got (its workers' user+sys CPU time over the round's wall time)
and skips the speedup assertion below ``MIN_CORES``, where a speedup
measures the host, not the sharding.

Run standalone for the full comparison::

    PYTHONPATH=src python benchmarks/bench_sweep_sharding.py
    PYTHONPATH=src python benchmarks/bench_sweep_sharding.py \
        --shape 8 8 8 --fault-counts 10 30 --trials 6 --pairs 60 \
        --workers 2 --min-speedup 1.2   # CI smoke gate

Flags: ``--shape``/``--fault-counts``/``--trials``/``--pairs``/``--seed``
size the sweep; ``--workers`` the parallel process count;
``--min-speedup`` the gate (checked only when enough CPUs exist and
the workers got at least ``MIN_CORES`` of them);
``--check-shards`` the shard counts whose merged tables must match.
"""

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.parallel.sharding import SweepSpec, run_sweep

_REPO_ROOT = Path(__file__).resolve().parent.parent

#: Timed rounds per side; the fastest one of each side counts.
ROUNDS = 3
#: Cores the fastest sharded round must have got for the speedup
#: assertion to apply.
MIN_CORES = 1.5


def run_comparison(
    shape=(12, 12, 12),
    fault_counts=(20, 60, 120),
    trials=8,
    pairs=200,
    workers=4,
    seed=2005,
    check_shards=(1, 2, 4),
) -> dict:
    """Time serial vs sharded sweeps; verify shard-count invariance."""
    spec = SweepSpec(
        experiment="success_rate",
        shape=tuple(shape),
        fault_counts=tuple(fault_counts),
        trials=trials,
        seed=seed,
        params={"pairs": pairs},
    )
    t_serial = t_sharded = float("inf")
    cores = 0.0
    for _ in range(ROUNDS):
        # The sides alternate, so a noisy spell on the host hits both.
        t0 = time.perf_counter()
        serial = run_sweep(spec, workers=1)
        t1 = time.perf_counter()
        before = os.times()
        sharded = run_sweep(spec, workers=workers)
        after = os.times()
        t2 = time.perf_counter()
        t_serial = min(t_serial, t1 - t0)
        if t2 - t1 < t_sharded:
            t_sharded = t2 - t1
            # The pool's workers are reaped when run_sweep returns, so
            # their CPU time is in the children's counters by now.
            child_cpu = (after.children_user - before.children_user) + (
                after.children_system - before.children_system
            )
            cores = child_cpu / t_sharded

    # shards=1 IS the serial baseline — no point recomputing it.
    identical = all(
        run_sweep(spec, workers=1, shards=n).to_csv() == serial.to_csv()
        for n in check_shards
        if n != 1
    ) and sharded.to_csv() == serial.to_csv()
    return {
        "table": serial,
        "patterns": len(fault_counts) * trials,
        "workers": workers,
        "t_serial_s": t_serial,
        "t_sharded_s": t_sharded,
        "speedup": t_serial / t_sharded if t_sharded else float("inf"),
        "cores": cores,
        "identical": identical,
        "check_shards": tuple(check_shards),
    }


def run_hashseed_invariance(
    shape=(8, 8),
    fault_counts=(4, 10),
    trials=3,
    seed=2005,
    hash_seeds=(1, 4242),
) -> dict:
    """Run one small T1 sweep per ``PYTHONHASHSEED`` in fresh
    interpreters; the merged tables, durable JSONL files, and
    checkpoint journals must all be byte-identical.

    Hash randomization perturbs ``str``/``tuple`` set and dict-order
    edge cases that a same-process rerun can never expose — this is the
    gate the ``repro-check`` D103 rule is ultimately about.
    """
    env_base = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
    env_base["PYTHONPATH"] = str(_REPO_ROOT / "src") + (
        os.pathsep + env_base["PYTHONPATH"] if env_base.get("PYTHONPATH") else ""
    )
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for hs in hash_seeds:
            save = Path(tmp) / f"table-{hs}.jsonl"
            ckpt = Path(tmp) / f"ckpt-{hs}.jsonl"
            cmd = [
                sys.executable,
                "-m",
                "repro.parallel",
                "t1",
                "--shape",
                *map(str, shape),
                "--fault-counts",
                *map(str, fault_counts),
                "--trials",
                str(trials),
                "--seed",
                str(seed),
                "--save",
                str(save),
                "--checkpoint",
                str(ckpt),
                "--csv",
            ]
            proc = subprocess.run(
                cmd,
                capture_output=True,
                text=True,
                env=dict(env_base, PYTHONHASHSEED=str(hs)),
                cwd=str(_REPO_ROOT),
            )
            if proc.returncode != 0:
                raise RuntimeError(
                    f"sweep under PYTHONHASHSEED={hs} failed:\n{proc.stderr}"
                )
            runs.append(
                {
                    "hashseed": hs,
                    "csv": proc.stdout,
                    "table_bytes": save.read_bytes(),
                    "checkpoint_bytes": ckpt.read_bytes(),
                }
            )
    first = runs[0]
    return {
        "hash_seeds": tuple(hash_seeds),
        "csv_identical": all(r["csv"] == first["csv"] for r in runs),
        "table_identical": all(
            r["table_bytes"] == first["table_bytes"] for r in runs
        ),
        "checkpoint_identical": all(
            r["checkpoint_bytes"] == first["checkpoint_bytes"] for r in runs
        ),
        "rows": len(first["table_bytes"].splitlines()) - 1,
    }


def test_sweep_hashseed_invariance():
    """T1 results must not depend on interpreter hash randomization."""
    stats = run_hashseed_invariance()
    assert stats["rows"] > 0
    assert stats["csv_identical"], "rendered CSV differs across hash seeds"
    assert stats["table_identical"], "saved JSONL differs across hash seeds"
    assert stats["checkpoint_identical"], (
        "checkpoint journals differ across hash seeds"
    )


def test_sweep_sharding_smoke(benchmark):
    """Shard invariance + a tracked timing of the 2-shard in-process path."""
    from benchmarks.conftest import emit

    spec = SweepSpec(
        experiment="success_rate",
        shape=(8, 8, 8),
        fault_counts=(10, 30),
        trials=4,
        seed=2005,
        params={"pairs": 60},
    )
    serial = run_sweep(spec, workers=1)
    emit(serial)
    for n in (2, 4):
        assert run_sweep(spec, workers=1, shards=n).to_csv() == serial.to_csv()
    benchmark(run_sweep, spec, workers=1, shards=2)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shape", type=int, nargs="+", default=[12, 12, 12])
    parser.add_argument(
        "--fault-counts", type=int, nargs="+", default=[20, 60, 120]
    )
    parser.add_argument("--trials", type=int, default=8)
    parser.add_argument("--pairs", type=int, default=200)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument(
        "--check-shards",
        type=int,
        nargs="+",
        default=[1, 2, 4],
        help="shard counts whose merged tables must be byte-identical",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=2.0,
        help="fail when the sharded speedup drops below this factor "
        "(only enforced when at least 2 CPUs are available)",
    )
    parser.add_argument(
        "--hashseed-check",
        action="store_true",
        help="only run the PYTHONHASHSEED invariance gate (small T1 "
        "sweep twice under different hash seeds; outputs must be "
        "byte-identical)",
    )
    args = parser.parse_args()
    if args.hashseed_check:
        stats = run_hashseed_invariance()
        print(
            f"hashseed invariance  seeds={stats['hash_seeds']}  "
            f"rows={stats['rows']}"
        )
        for key in ("csv_identical", "table_identical", "checkpoint_identical"):
            print(f"  {key:21s}: {stats[key]}")
            assert stats[key], f"{key} failed across PYTHONHASHSEED values"
        print("  byte-identical under hash randomization")
        return
    stats = run_comparison(
        shape=tuple(args.shape),
        fault_counts=tuple(args.fault_counts),
        trials=args.trials,
        pairs=args.pairs,
        workers=args.workers,
        seed=args.seed,
        check_shards=tuple(args.check_shards),
    )
    print(stats["table"].render())
    print(
        f"\nsharded sweep  mesh={tuple(args.shape)}  "
        f"patterns={stats['patterns']}  pairs/pattern={args.pairs}"
    )
    print(
        f"  serial loop   : {stats['t_serial_s']:8.3f} s  "
        f"(workers=1, best of {ROUNDS})"
    )
    print(
        f"  sharded       : {stats['t_sharded_s']:8.3f} s  "
        f"(workers={stats['workers']}, best of {ROUNDS})"
    )
    print(f"  speedup       : {stats['speedup']:8.2f}x")
    print(
        f"  cores got     : {stats['cores']:8.2f}  "
        f"(fastest sharded round: workers' CPU time / wall time)"
    )
    assert stats["identical"], (
        f"merged tables differ across shard counts {stats['check_shards']}"
    )
    print(f"  merged tables byte-identical for shards {stats['check_shards']}")
    cpus = os.cpu_count() or 1
    if cpus < 2:
        print(
            f"  speedup gate  : SKIPPED ({cpus} CPU available; "
            f"parallel speedup is not physical here)"
        )
        return
    if stats["cores"] < MIN_CORES:
        print(
            f"  speedup gate  : SKIPPED (the workers got {stats['cores']:.2f} "
            f"cores, below {MIN_CORES}; the host did not run them in parallel)"
        )
        return
    assert stats["speedup"] >= args.min_speedup, (
        f"speedup {stats['speedup']:.2f}x below target {args.min_speedup}x"
    )
    print(f"  speedup target {args.min_speedup}x met")


if __name__ == "__main__":
    main()
