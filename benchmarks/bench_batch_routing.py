"""B: batched routing throughput — route_batch vs per-call routing.

On a 16^3 mesh with 10k random pairs over one fault pattern,
``RoutingService.route_batch`` measured 7.5x faster (0.259 s against
1.946 s) than routing each pair through ``route`` on a fresh
:class:`RoutingService` (which builds its class models and
reachability floods per call), on a shared 2-core VM with Python
3.11.7, while producing element-wise identical :class:`RouteResult`
outcomes; with 2,000 pairs it read 7.2x.  Both sides walk every hop by
flat index over one reach view; the per-hop walk that probed the reach
cache and mapped each cell back to the mesh frame read 3.5x and 3.3x
on the same runs.  The per-call side floods one destination per call
through the same bit-packed kernel, so a faster kernel speeds both
sides up.  The default ``--min-speedup`` of 2.5 is a floor under
these readings, not a target.  Both sides run on a warm
process-wide labelling cache (:mod:`repro.core.model_cache`), which
serves every per-call model build after the first, so the timings
compare batched routing with per-call routing rather than a cold model
build with a warm one.  Each side is timed as the fastest of ``ROUNDS``
alternating rounds, which damps scheduler noise on small shared hosts.

Run standalone for the full comparison::

    PYTHONPATH=src python benchmarks/bench_batch_routing.py
    PYTHONPATH=src python benchmarks/bench_batch_routing.py \
        --shape 8 8 8 --pairs 500 --faults 40 --min-speedup 2.0  # CI smoke
"""

import argparse
import json
import os
import time

import numpy as np

from repro.experiments.workloads import random_fault_mask
from repro.routing.batch import RoutingService
from repro.util.rng import make_rng

#: Timed rounds per side; the fastest one of each side counts.
ROUNDS = 3


def sample_pairs(fault_mask: np.ndarray, count: int, rng) -> list:
    """Random non-faulty (source, dest) pairs (may be infeasible)."""
    cells = np.argwhere(~fault_mask)
    picks = rng.integers(0, cells.shape[0], size=(count, 2))
    return [
        (tuple(int(c) for c in cells[i]), tuple(int(c) for c in cells[j]))
        for i, j in picks
    ]


def results_identical(a, b) -> bool:
    return (a.delivered, a.path, a.feasible, a.stuck_at, a.reason) == (
        b.delivered,
        b.path,
        b.feasible,
        b.stuck_at,
        b.reason,
    )


def run_comparison(
    shape=(16, 16, 16),
    pairs=10_000,
    faults=120,
    mode="mcc",
    seed=2005,
) -> dict:
    """Time batched vs per-call routing; verify element-wise identity."""
    rng = make_rng(seed)
    mask = random_fault_mask(shape, faults, rng=rng)
    batch_pairs = sample_pairs(mask, pairs, rng)
    RoutingService(mask, mode=mode).route_batch(batch_pairs)  # warm the cache

    t_batch = t_solo = float("inf")
    for _ in range(ROUNDS):
        # The sides alternate, so a noisy spell on the host hits both.
        t0 = time.perf_counter()
        batched = RoutingService(mask, mode=mode).route_batch(batch_pairs)
        t1 = time.perf_counter()
        solo = [RoutingService(mask, mode=mode).route(s, d) for s, d in batch_pairs]
        t2 = time.perf_counter()
        t_batch = min(t_batch, t1 - t0)
        t_solo = min(t_solo, t2 - t1)

    mismatches = sum(
        not results_identical(a, b) for a, b in zip(batched, solo, strict=True)
    )
    return {
        "shape": shape,
        "pairs": pairs,
        "faults": faults,
        "mode": mode,
        "delivered": sum(r.delivered for r in batched),
        "t_batch_s": t_batch,
        "t_percall_s": t_solo,
        "speedup": t_solo / t_batch if t_batch else float("inf"),
        "batch_pairs_per_s": pairs / t_batch if t_batch else float("inf"),
        "mismatches": mismatches,
    }


def test_batch_routing_throughput(benchmark):
    """Track batched throughput; identity vs per-call on a small mesh."""
    rng = make_rng(7)
    mask = random_fault_mask((8, 8, 8), 40, rng=rng)
    batch_pairs = sample_pairs(mask, 400, rng)
    service = RoutingService(mask, mode="mcc")
    results = benchmark(service.route_batch, batch_pairs)
    solo = [RoutingService(mask).route(s, d) for s, d in batch_pairs]
    assert all(results_identical(a, b) for a, b in zip(results, solo, strict=True))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shape", type=int, nargs="+", default=[16, 16, 16])
    parser.add_argument("--pairs", type=int, default=10_000)
    parser.add_argument("--faults", type=int, default=120)
    parser.add_argument("--mode", default="mcc")
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=2.5,
        help="fail when batch speedup drops below this factor",
    )
    parser.add_argument(
        "--out-dir",
        default="bench_artifacts",
        help="directory for the BENCH_batch_routing.json summary",
    )
    args = parser.parse_args()
    stats = run_comparison(
        shape=tuple(args.shape),
        pairs=args.pairs,
        faults=args.faults,
        mode=args.mode,
        seed=args.seed,
    )
    # Machine-readable sibling of the printed report (written before the
    # gates so a failing run still leaves its numbers behind).
    os.makedirs(args.out_dir, exist_ok=True)
    summary = dict(stats, shape=list(stats["shape"]), min_speedup=args.min_speedup)
    out = os.path.join(args.out_dir, "BENCH_batch_routing.json")
    with open(out, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"batched routing  {stats['mode']}  mesh={stats['shape']}  "
        f"pairs={stats['pairs']}  faults={stats['faults']}"
    )
    print(
        f"  route_batch   : {stats['t_batch_s']:8.3f} s  "
        f"({stats['batch_pairs_per_s']:,.0f} pairs/s)"
    )
    print(f"  per-call route: {stats['t_percall_s']:8.3f} s  (fresh service per pair)")
    print(f"  speedup       : {stats['speedup']:8.1f}x")
    print(f"  delivered     : {stats['delivered']} / {stats['pairs']}")
    assert stats["mismatches"] == 0, (
        f"{stats['mismatches']} batched results differ from per-call routing"
    )
    assert stats["speedup"] >= args.min_speedup, (
        f"speedup {stats['speedup']:.1f}x below target {args.min_speedup}x"
    )
    print("  results element-wise identical; speedup floor met")
    print(f"  summary       : {out}")


if __name__ == "__main__":
    main()
