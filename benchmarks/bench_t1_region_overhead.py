"""T1: non-faulty nodes captured inside fault regions (MCC vs RFB).

Regenerates the paper's first evaluation quantity: "the number of
non-faulty nodes included in MCCs in 3-D meshes … compared with the
best existing known result" (the rectangular faulty blocks).
Expected shape: MCC << RFB, gap widening with fault rate and dimension.
"""

from benchmarks.conftest import emit
from repro.experiments.exp_region_overhead import region_overhead_once
from repro.experiments.workloads import random_fault_mask
from repro.parallel.sharding import SweepSpec, run_sweep


def test_t1a_2d(benchmark):
    table = run_sweep(
        SweepSpec("t1", (32, 32), [10, 26, 51, 102, 154], trials=25, seed=2005)
    )
    emit(table)
    for row in table.rows:
        assert row["mcc_nonfaulty"] <= row["rfb_nonfaulty"] + 1e-9
    # The timed kernel: one full T1 data point at 5% faults.
    mask = random_fault_mask((32, 32), 51, rng=7)
    benchmark(region_overhead_once, mask)


def test_t1b_3d(benchmark):
    table = run_sweep(
        SweepSpec("t1", (16, 16, 16), [20, 82, 205, 410], trials=15, seed=2005)
    )
    emit(table)
    for row in table.rows:
        assert row["mcc_nonfaulty"] <= row["rfb_nonfaulty"] + 1e-9
    # Headline check: at 10% faults in 3-D the RFB overhead explodes.
    high = table.rows[-1]
    assert high["rfb_over_mcc"] > 2.0
    mask = random_fault_mask((16, 16, 16), 205, rng=7)
    benchmark(region_overhead_once, mask)


def test_t1_clustered_ablation(benchmark):
    table = run_sweep(
        SweepSpec(
            "t1", (16, 16, 16), [40, 120], trials=10, seed=2005,
            params={"clustered": True},
        )
    )
    emit(table)
    mask = random_fault_mask((16, 16, 16), 120, rng=9)
    benchmark(region_overhead_once, mask)
