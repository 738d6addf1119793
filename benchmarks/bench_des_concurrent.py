"""CI gate: the concurrent, churn-aware DES core.

Four checks over the concurrent simulation engine:

1. **Session parity** — a query batch submitted as interleaved sessions
   and resolved by one ``drain()`` must match blocking per-query
   ``route()`` calls element-wise: statuses, paths, and per-query
   message attribution (the payload-tag accounting equals the retired
   before/after stats delta).
2. **Batched T4 throughput** — the batched evaluator (submit-all, one
   ``run_to_quiescence``, one cached-service ``feasible_batch``) must
   not regress against the retired serial loop (blocking ``route`` per
   query, stats-delta accounting, a fresh oracle ``RoutingService`` per
   pattern), reproduced inline here.  In virtual time both process the
   *same* event stream, so the honest expectation is parity, not a
   multiple — the gate defaults to ``--min-t4-ratio 0.9`` and the
   measured ratio is printed.
3. **Churn re-stabilization speedup** — ``apply_event``'s incremental
   re-stabilization (warm-started labelling scoped to the dirty cone,
   identification restarted only around affected regions) must beat
   the naive alternative of rebuilding the pipeline from scratch after
   every fault event by ``--min-churn-speedup`` (default 1.5x; the
   scoped path measures ~3-5x on a 10^3 mesh).  Exactness is asserted
   on every event: incremental labels == from-scratch ``label_grid``.
4. **Churn-DES shard invariance** — a small ``churn_des`` sweep (the
   ``t6d`` table) must be byte-identical across worker/shard
   layouts.  (Checkpoint resume for ``churn_des`` is covered by
   ``bench_checkpoint_resume.py --experiment churn_des``.)

Run (exits non-zero on any failure)::

    PYTHONPATH=src python benchmarks/bench_des_concurrent.py \
        --shape 7 7 7 --faults 12 --queries 40 \
        --churn-shape 10 10 10 --churn-faults 30 --events 6 \
        --min-churn-speedup 1.5
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.core.labelling import SAFE, label_grid
from repro.distributed.pipeline import DistributedMCCPipeline
from repro.experiments.workloads import random_fault_mask
from repro.mesh.topology import Mesh
from repro.parallel.sharding import SweepSpec, run_sweep
from repro.routing.batch import RoutingService


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def sample_pairs(rng, lab, count):
    cells = np.argwhere(lab == SAFE)
    pairs = []
    tries = 0
    while len(pairs) < count and tries < 100 * count:
        tries += 1
        i, j = rng.integers(0, len(cells), size=2)
        s = tuple(int(v) for v in np.minimum(cells[i], cells[j]))
        d = tuple(int(v) for v in np.maximum(cells[i], cells[j]))
        if lab[s] == SAFE and lab[d] == SAFE and s != d:
            pairs.append((s, d))
    return pairs


def serial_t4(shape, mask, pairs):
    """The retired T4 pattern evaluator: blocking route per query."""
    pipe = DistributedMCCPipeline(Mesh(shape), mask).build()
    records = []
    for s, d in pairs:
        before = pipe.net.stats.total_messages
        result = pipe.route(s, d)
        records.append(
            (result["status"], tuple(map(tuple, result["path"])),
             pipe.net.stats.total_messages - before)
        )
    wants = RoutingService(mask, mode="oracle").feasible_batch(pairs)
    return records, wants


def concurrent_t4(shape, mask, pairs):
    """The batched evaluator: one simulator run, one scoring call."""
    pipe = DistributedMCCPipeline(Mesh(shape), mask).build()
    for s, d in pairs:
        pipe.submit(s, d)
    results = pipe.drain()
    records = [
        (r["status"], tuple(map(tuple, r["path"])), r["msgs"])
        for r in results
    ]
    wants = RoutingService(mask, mode="oracle").feasible_batch(pairs)
    return records, wants


def check_parity_and_t4(args) -> None:
    rng = np.random.default_rng(args.seed)
    shape = tuple(args.shape)
    t_serial = t_batch = 0.0
    for _trial in range(args.patterns):
        mask = random_fault_mask(shape, args.faults, rng=rng)
        lab = label_grid(mask).status
        pairs = sample_pairs(rng, lab, args.queries)
        if not pairs:
            continue
        t0 = time.perf_counter()
        serial, wants_s = serial_t4(shape, mask, pairs)
        t_serial += time.perf_counter() - t0
        t0 = time.perf_counter()
        batch, wants_b = concurrent_t4(shape, mask, pairs)
        t_batch += time.perf_counter() - t0
        if serial != batch:
            for a, b in zip(serial, batch, strict=True):
                if a != b:
                    fail(f"session parity broken: serial {a} vs batch {b}")
        if not np.array_equal(wants_s, wants_b):
            fail("oracle verdicts differ between scoring paths")
    ratio = t_serial / t_batch if t_batch else 1.0
    print(
        f"T4: serial loop {t_serial * 1000:.1f}ms, concurrent batch "
        f"{t_batch * 1000:.1f}ms -> ratio {ratio:.2f}x "
        f"(parity element-wise exact)"
    )
    if ratio < args.min_t4_ratio:
        fail(
            f"batched T4 regressed: {ratio:.2f}x < {args.min_t4_ratio:.2f}x"
        )


def check_churn_speedup(args) -> None:
    rng = np.random.default_rng(args.seed + 1)
    shape = tuple(args.churn_shape)
    mask = random_fault_mask(shape, args.churn_faults, rng=rng)
    pipe = DistributedMCCPipeline(Mesh(shape), mask.copy()).build()
    t_incremental = t_rebuild = 0.0
    for epoch in range(args.events):
        current = pipe.fault_mask
        pool = np.argwhere(~current if epoch % 2 == 0 else current)
        k = min(args.churn, len(pool))
        if k == 0:
            continue
        picks = rng.choice(len(pool), size=k, replace=False)
        cells = [tuple(int(v) for v in pool[i]) for i in picks]
        kind = "inject" if epoch % 2 == 0 else "repair"
        t0 = time.perf_counter()
        pipe.apply_event(kind, cells)
        t_incremental += time.perf_counter() - t0
        want = label_grid(pipe.fault_mask).status
        if not np.array_equal(pipe.labels_grid(), want):
            fail(f"incremental labels diverged after {kind} {cells}")
        # The naive alternative: a full pipeline rebuild on the new mask.
        t0 = time.perf_counter()
        DistributedMCCPipeline(Mesh(shape), pipe.fault_mask.copy()).build()
        t_rebuild += time.perf_counter() - t0
    speedup = t_rebuild / t_incremental if t_incremental else float("inf")
    print(
        f"churn: incremental re-stabilization "
        f"{t_incremental / args.events * 1000:.1f}ms/event vs rebuild "
        f"{t_rebuild / args.events * 1000:.1f}ms/event -> {speedup:.2f}x "
        f"(labels byte-identical per event)"
    )
    if speedup < args.min_churn_speedup:
        fail(
            f"re-stabilization speedup {speedup:.2f}x below the "
            f"{args.min_churn_speedup:.2f}x gate"
        )


def check_des_sweep_invariance(args) -> None:
    spec = SweepSpec(
        "t6d",
        tuple(args.sweep_shape),
        tuple(args.sweep_fault_counts),
        trials=args.sweep_trials,
        seed=args.seed,
        params={
            "pairs": args.sweep_pairs,
            "epochs": args.sweep_epochs,
            "churn": args.churn,
        },
    )

    def run(workers, shards):
        return run_sweep(spec, workers=workers, shards=shards)

    base = run(1, 1)
    print(base.render())
    for workers, shards in ((args.workers, 1), (args.workers, 2)):
        other = run(workers, shards)
        if other.to_csv() != base.to_csv():
            fail(
                f"churn-DES table varies with workers={workers}, "
                f"shards={shards}"
            )
    print("churn-DES sweep byte-identical across worker/shard layouts")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shape", type=int, nargs="+", default=[7, 7, 7])
    parser.add_argument("--faults", type=int, default=12)
    parser.add_argument("--queries", type=int, default=40)
    parser.add_argument("--patterns", type=int, default=3)
    parser.add_argument("--churn-shape", type=int, nargs="+",
                        default=[10, 10, 10])
    parser.add_argument("--churn-faults", type=int, default=30)
    parser.add_argument("--events", type=int, default=6)
    parser.add_argument("--churn", type=int, default=2)
    parser.add_argument("--sweep-shape", type=int, nargs="+", default=[6, 6, 6])
    parser.add_argument("--sweep-fault-counts", type=int, nargs="+",
                        default=[3, 8])
    parser.add_argument("--sweep-pairs", type=int, default=8)
    parser.add_argument("--sweep-epochs", type=int, default=3)
    parser.add_argument("--sweep-trials", type=int, default=2)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument("--min-t4-ratio", type=float, default=0.9)
    parser.add_argument("--min-churn-speedup", type=float, default=1.5)
    args = parser.parse_args(argv)

    check_parity_and_t4(args)
    check_churn_speedup(args)
    check_des_sweep_invariance(args)
    print("OK")


if __name__ == "__main__":
    main()
