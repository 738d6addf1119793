"""T5: fidelity of conditions, detection, and router vs the oracle.

Expected shape: 100% agreement for the canonical (reachability-form)
condition and the detection verdict; 100% router completeness and
exclusion exactness (properties P2/P3).  The detection verdict is
reachability over the labelled-safe cells; the surface walks do not
feed it (DESIGN.md interpretation 3).  The 3-D detection floor keeps
the margin it had when the walks were scored.
"""

from benchmarks.conftest import emit
from repro.core.conditions import ConditionEvaluator
from repro.experiments.workloads import random_fault_mask
from repro.parallel.sharding import SweepSpec, run_sweep


def test_t5_fidelity_2d(benchmark):
    table = run_sweep(
        SweepSpec("t5", (12, 12), [6, 14], trials=4, seed=2005, params={"pairs": 40})
    )
    emit(table)
    for row in table.rows:
        assert row["cond_agree"] >= 0.999
        assert row["detect_agree"] >= 0.999
        assert row["router_complete"] >= 0.999

    mask = random_fault_mask((12, 12), 10, rng=17)
    evaluator = ConditionEvaluator(mask)
    benchmark(evaluator.exists, (0, 0), (11, 11))


def test_t5_fidelity_3d(benchmark):
    table = run_sweep(
        SweepSpec("t5", (8, 8, 8), [8, 25], trials=3, seed=2005, params={"pairs": 30})
    )
    emit(table)
    for row in table.rows:
        assert row["cond_agree"] >= 0.999
        assert row["detect_agree"] >= 0.98
        assert row["router_complete"] >= 0.999

    mask = random_fault_mask((8, 8, 8), 20, rng=17)
    evaluator = ConditionEvaluator(mask)
    benchmark(evaluator.exists, (0, 0, 0), (7, 7, 7))
