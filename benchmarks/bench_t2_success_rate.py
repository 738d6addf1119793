"""T2: rate of successful minimal routing per fault model.

The paper's second evaluation quantity.  Expected shape: MCC == oracle
(Theorem 2 exactness) >= RFB >= e-cube, with the gaps widening as the
fault rate grows.
"""

from benchmarks.conftest import emit
from repro.experiments.workloads import random_fault_mask
from repro.parallel.sharding import SweepSpec, run_sweep
from repro.routing.oracle import minimal_path_exists


def test_t2a_2d(benchmark):
    table = run_sweep(
        SweepSpec(
            "t2", (32, 32), [10, 26, 51, 102], trials=4, seed=2005,
            params={"pairs": 150},
        )
    )
    emit(table)
    for row in table.rows:
        # MCC equals the oracle up to the scoring convention: pairs with
        # an endpoint inside the (tiny) MCC region count as failures.
        assert row["mcc"] <= row["oracle"] + 1e-9
        assert row["oracle"] - row["mcc"] <= 0.02
        assert row["rfb"] <= row["mcc"] + 1e-9
    mask = random_fault_mask((32, 32), 51, rng=3)
    benchmark(minimal_path_exists, ~mask, (0, 0), (31, 31))


def test_t2b_3d(benchmark):
    table = run_sweep(
        SweepSpec(
            "t2", (16, 16, 16), [20, 82, 205, 410], trials=3, seed=2005,
            params={"pairs": 150},
        )
    )
    emit(table)
    for row in table.rows:
        assert row["mcc"] <= row["oracle"] + 1e-9
        assert row["oracle"] - row["mcc"] <= 0.02
        assert row["rfb"] <= row["mcc"] + 1e-9
    # RFB loses measurably at high fault rates.
    high = table.rows[-1]
    assert high["rfb"] < high["mcc"]
    mask = random_fault_mask((16, 16, 16), 205, rng=3)
    benchmark(minimal_path_exists, ~mask, (0, 0, 0), (15, 15, 15))
