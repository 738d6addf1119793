"""T4: end-to-end routing on the discrete-event network.

Expected shape: delivery agrees with the oracle, every delivered path
is minimal, and per-query message cost is a few times the path length
(detection plus forwarding plus acknowledgements).
"""

from benchmarks.conftest import emit
from repro.distributed.pipeline import DistributedMCCPipeline
from repro.experiments.workloads import random_fault_mask
from repro.mesh.topology import Mesh3D
from repro.parallel.sharding import SweepSpec, run_sweep


def test_t4_des_routing(benchmark):
    table = run_sweep(
        SweepSpec(
            "t4", (8, 8, 8), [4, 12, 25], trials=2, seed=2005, params={"queries": 20}
        )
    )
    emit(table)
    for row in table.rows:
        assert row["agreement"] >= 0.95
        assert row["minimal_of_delivered"] >= 0.999

    mask = random_fault_mask((8, 8, 8), 12, rng=13)
    pipe = DistributedMCCPipeline(Mesh3D(8), mask).build()

    def route_once():
        pipe.route((0, 0, 0), (7, 7, 7))

    benchmark.pedantic(route_once, rounds=3, iterations=1)
