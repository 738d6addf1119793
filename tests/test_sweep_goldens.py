"""Regression pins: the T3, T5, A1 and A4 sweeps at fixed seeds.

Every pattern draws its mask and workload from its task's own stream
(``PatternTask.rng``), so these tables depend only on the arguments.
The golden CSVs below were captured when the sweeps moved onto those
streams; each sweep must reproduce them byte for byte, in-process and
with workers=2 across shard counts 1/2/4, so neither an execution-path
change nor a seeding change can silently move published numbers.
"""

import pytest

from repro.parallel.sharding import SweepSpec, run_sweep

GOLDEN_T3_2D = (
    "faults,label,edge,ident,shape,wall,total,per_node\n"
    "2,0.0,10.5,5.0,2.0,3.5,21.0,0.5833333333333334\n"
    "4,3.0,27.0,15.0,5.5,4.0,54.5,1.5138888888888888\n"
)
GOLDEN_T3_3D = (
    "faults,label,edge,ident,shape,wall,total,per_node\n"
    "2,0.0,44.0,48.0,56.0,13.0,161.0,1.288\n"
    "4,0.0,62.5,44.0,42.0,14.0,162.5,1.3\n"
)
GOLDEN_T5_2D = (
    "faults,pairs,cond_agree,detect_agree,feasible,router_complete,"
    "exclusion_exact\n"
    "3,20,1.0,1.0,17,1.0,1.0\n"
    "5,19,1.0,1.0,19,1.0,1.0\n"
)
GOLDEN_T5_3D = (
    "faults,pairs,cond_agree,detect_agree,feasible,router_complete,"
    "exclusion_exact\n"
    "4,16,1.0,1.0,15,1.0,1.0\n"
)
GOLDEN_A1 = [(10, 1.0, 1.6), (40, 13.3, 136.8), (90, 1594.3, 1594.3)]
GOLDEN_A4 = [(24, 0.0), (120, 0.0)]


def csv_lf(table) -> str:
    return table.to_csv().replace("\r\n", "\n")


class TestProtocolOverheadGoldens:
    def test_in_process_matches_golden_2d(self):
        table = run_sweep(SweepSpec("t3", (6, 6), [2, 4], trials=2, seed=6))
        assert csv_lf(table) == GOLDEN_T3_2D
        assert table.title == "T3 protocol message overhead — 2-D 6x6 mesh, 2 trials"

    def test_in_process_matches_golden_3d(self):
        table = run_sweep(SweepSpec("t3", (5, 5, 5), [2, 4], trials=2, seed=2005))
        assert csv_lf(table) == GOLDEN_T3_3D

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_sharded_workers_match_golden(self, shards):
        table = run_sweep(
            SweepSpec("t3", (6, 6), [2, 4], trials=2, seed=6), workers=2, shards=shards
        )
        assert csv_lf(table) == GOLDEN_T3_2D


class TestFidelityGoldens:
    def test_in_process_matches_golden_2d(self):
        table = run_sweep(
            SweepSpec("t5", (6, 6), [3, 5], trials=2, seed=8, params={"pairs": 10})
        )
        assert csv_lf(table) == GOLDEN_T5_2D
        assert table.title == "T5 model fidelity vs oracle — 2-D 6x6 mesh"

    def test_in_process_matches_golden_3d(self):
        table = run_sweep(
            SweepSpec("t5", (5, 5, 5), [4], trials=2, seed=9, params={"pairs": 8})
        )
        assert csv_lf(table) == GOLDEN_T5_3D

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_sharded_workers_match_golden(self, shards):
        table = run_sweep(
            SweepSpec("t5", (6, 6), [3, 5], trials=2, seed=8, params={"pairs": 10}),
            workers=2,
            shards=shards,
        )
        assert csv_lf(table) == GOLDEN_T5_2D


class TestAblationGoldens:
    def test_a1_matches_golden(self):
        spec = SweepSpec("a1", (12, 12, 12), [10, 40, 90], trials=10, seed=11)
        table = run_sweep(spec)
        got = [
            (r["faults"], r["local_nonfaulty"], r["block_nonfaulty"])
            for r in table.rows
        ]
        assert got == GOLDEN_A1
        sharded = run_sweep(spec, workers=2, shards=4)
        assert sharded.to_csv() == table.to_csv()

    def test_a4_matches_golden(self):
        table = run_sweep(SweepSpec("a4", (7, 7, 7, 7), [24, 120], trials=5, seed=41))
        got = [(r["faults"], r["mcc_nonfaulty"]) for r in table.rows]
        assert got == GOLDEN_A4
