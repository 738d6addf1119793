"""T3: message overhead of the distributed protocols.

Expected shape: cost scales with fault-region size (the point of
limited-global-information), with per-node cost far below flooding.
"""

from benchmarks.conftest import emit
from repro.distributed.pipeline import DistributedMCCPipeline
from repro.experiments.workloads import random_fault_mask
from repro.mesh.topology import Mesh2D, Mesh3D
from repro.parallel.sharding import SweepSpec, run_sweep


def test_t3_2d(benchmark):
    table = run_sweep(SweepSpec("t3", (24, 24), [4, 12, 28], trials=4, seed=2005))
    emit(table)
    assert table.rows[0]["total"] <= table.rows[-1]["total"]

    def build_once():
        mask = random_fault_mask((24, 24), 12, rng=11)
        DistributedMCCPipeline(Mesh2D(24), mask).build()

    benchmark.pedantic(build_once, rounds=2, iterations=1)


def test_t3_3d(benchmark):
    table = run_sweep(SweepSpec("t3", (9, 9, 9), [4, 12, 24], trials=3, seed=2005))
    emit(table)
    # Message cost stays a small multiple of the node count even at the
    # highest fault rate (no flooding).
    assert table.rows[-1]["per_node"] < 60

    def build_once():
        mask = random_fault_mask((9, 9, 9), 12, rng=11)
        DistributedMCCPipeline(Mesh3D(9), mask).build()

    benchmark.pedantic(build_once, rounds=2, iterations=1)
