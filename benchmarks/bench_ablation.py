"""A1–A4: ablations from DESIGN.md's experiment index.

The multi-pattern ablations (A1, A4) run through
:mod:`repro.parallel.sharding` like the paper tables — ``workers=`` and
``shards=`` fan their fault patterns across processes.  Each pattern
draws from its task's own stream, so the tables are byte-identical for
any layout (goldens pinned in ``tests/test_sweep_goldens.py``).
"""

import numpy as np

from benchmarks.conftest import emit
from repro.baselines.rfb import rfb_unsafe
from repro.core.labelling import label_grid
from repro.experiments.workloads import random_fault_mask
from repro.mesh.coords import manhattan
from repro.parallel.sharding import SweepSpec, run_sweep
from repro.routing.batch import RoutingService
from repro.routing.policies import make_policy
from repro.util.records import ResultTable


def test_a1_rfb_variants(benchmark):
    """Block expansion vs local-closure-only RFB regions."""
    spec = SweepSpec("a1", (12, 12, 12), [10, 40, 90], trials=10, seed=11)
    table = run_sweep(spec)
    emit(table)
    sharded = run_sweep(spec, workers=2, shards=4)
    assert sharded.to_csv() == table.to_csv()
    for row in table.rows:
        assert row["local_nonfaulty"] <= row["block_nonfaulty"]
    mask = random_fault_mask((12, 12, 12), 40, rng=5)
    benchmark(rfb_unsafe, mask)


def test_a2_policies(benchmark):
    """Adaptive selector policies: all minimal, different path shapes."""
    table = ResultTable("A2 selector policies — 10^3 mesh, 5% faults")
    rng = np.random.default_rng(23)
    mask = random_fault_mask((10, 10, 10), 50, rng=rng)
    lab = label_grid(mask)
    pairs = []
    safe = np.argwhere(lab.safe_mask)
    while len(pairs) < 40:
        i, j = rng.integers(0, safe.shape[0], 2)
        s = tuple(int(c) for c in np.minimum(safe[i], safe[j]))
        d = tuple(int(c) for c in np.maximum(safe[i], safe[j]))
        if lab.safe_mask[s] and lab.safe_mask[d] and s != d:
            pairs.append((s, d))
    for name in ("fixed", "diagonal", "random"):
        service = RoutingService(mask, mode="mcc", policy=make_policy(name, 3))
        delivered = minimal = 0
        distinct_first_hops = set()
        for s, d in pairs:
            result = service.route(s, d)
            if result.delivered:
                delivered += 1
                minimal += result.hops == manhattan(s, d)
                if len(result.path) > 1:
                    distinct_first_hops.add((s, result.path[1]))
        table.add(
            policy=name,
            delivered=delivered,
            minimal=minimal,
            distinct_first_hops=len(distinct_first_hops),
        )
    emit(table)
    rows = {r["policy"]: r for r in table.rows}
    assert rows["fixed"]["delivered"] == rows["random"]["delivered"]
    for row in table.rows:
        assert row["minimal"] == row["delivered"]
    service = RoutingService(mask, mode="mcc")
    benchmark(service.route, (0, 0, 0), (9, 9, 9))


def test_a3_clustering(benchmark):
    """Clustered faults: fewer, larger regions; overhead gap persists."""
    uniform = run_sweep(SweepSpec("t1", (12, 12, 12), [60], trials=10, seed=31))
    clustered = run_sweep(
        SweepSpec(
            "t1", (12, 12, 12), [60], trials=10, seed=31, params={"clustered": True}
        )
    )
    table = ResultTable("A3 fault clustering — 12^3 mesh, 60 faults")
    table.add(workload="uniform", **{k: v for k, v in uniform.rows[0].items()})
    table.add(workload="clustered", **{k: v for k, v in clustered.rows[0].items()})
    emit(table)
    for row in table.rows:
        assert row["mcc_nonfaulty"] <= row["rfb_nonfaulty"] + 1e-9
    mask = random_fault_mask((12, 12, 12), 60, rng=33)
    benchmark(label_grid, mask)


def test_a4_4d_extension(benchmark):
    """The paper's future work: higher-dimension meshes (4-D labelling)."""
    spec = SweepSpec("a4", (7, 7, 7, 7), [24, 120], trials=5, seed=41)
    table = run_sweep(spec)
    emit(table)
    sharded = run_sweep(spec, workers=2, shards=2)
    assert sharded.to_csv() == table.to_csv()
    # 4-D labelling needs 4 blocked neighbors: fills are rarer than 3-D.
    assert table.rows[0]["mcc_nonfaulty"] < 5
    mask = random_fault_mask((7, 7, 7, 7), 120, rng=43)
    benchmark(label_grid, mask)
