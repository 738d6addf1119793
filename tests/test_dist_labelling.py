"""Property P4 (labelling): the gossip protocol equals Algorithm 1/4."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.labelling import label_grid
from repro.distributed.labelling_proto import LabellingNode, labels_as_grid
from repro.mesh.regions import mask_of_cells
from repro.mesh.topology import Mesh, Mesh2D, Mesh3D
from repro.simkit.network import MeshNetwork
from tests.conftest import random_mask


def run_distributed_labelling(mesh: Mesh, fault_mask: np.ndarray) -> MeshNetwork:
    """Run the labelling protocol alone to quiescence; returns the network.

    Per-node results are in ``node.store["label"]``, to compare with
    :func:`repro.core.labelling.label_grid`.
    """
    net = MeshNetwork(mesh, fault_mask, node_factory=LabellingNode)
    net.start()
    net.run_to_quiescence()
    return net


class TestEquivalence:
    @given(st.integers(0, 2**32 - 1), st.integers(0, 14))
    @settings(max_examples=15, deadline=None)
    def test_matches_centralized_2d(self, seed, count):
        rng = np.random.default_rng(seed)
        mask = random_mask(rng, (8, 8), count)
        net = run_distributed_labelling(Mesh2D(8), mask)
        assert np.array_equal(labels_as_grid(net), label_grid(mask).status)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=6, deadline=None)
    def test_matches_centralized_3d(self, seed):
        rng = np.random.default_rng(seed)
        mask = random_mask(rng, (5, 5, 5), int(rng.integers(0, 16)))
        net = run_distributed_labelling(Mesh3D(5), mask)
        assert np.array_equal(labels_as_grid(net), label_grid(mask).status)

    def test_fig5_scene(self, fig5_mask):
        net = run_distributed_labelling(Mesh3D(10), fig5_mask)
        grid = labels_as_grid(net)
        assert grid[5, 5, 5] == 2  # useless
        assert grid[5, 5, 7] == 3  # can't-reach
        assert grid[6, 6, 5] == 0  # the hole stays safe


class TestProtocolBehaviour:
    def test_no_faults_no_messages(self):
        net = run_distributed_labelling(Mesh2D(6), np.zeros((6, 6), dtype=bool))
        # Nothing to announce: labels only change near faults.
        assert net.stats.total_messages == 0

    def test_message_count_scales_with_region_not_mesh(self):
        small_mesh = run_distributed_labelling(
            Mesh2D(8), mask_of_cells([(3, 4), (4, 3)], (8, 8))
        )
        big_mesh = run_distributed_labelling(
            Mesh2D(16), mask_of_cells([(3, 4), (4, 3)], (16, 16))
        )
        assert small_mesh.stats.total_messages > 0
        # Same fault cluster, 4x the nodes: message cost grows far less.
        assert (
            big_mesh.stats.total_messages
            <= small_mesh.stats.total_messages * 2
        )

    def test_neighbors_know_each_other(self, rng):
        mask = random_mask(rng, (6, 6), 6)
        net = run_distributed_labelling(Mesh2D(6), mask)
        lab = label_grid(mask)
        for coord, node in net.nodes.items():
            if net.is_faulty(coord):
                continue
            for n, known in node.store["known_labels"].items():
                assert known == lab.status[n], (coord, n)

    def test_relabelling_after_dynamic_fault(self, rng):
        """Future-work scenario: a new fault appears; re-running the
        protocol from current knowledge converges to the new truth."""
        mask = mask_of_cells([(3, 4)], (8, 8))
        run_distributed_labelling(Mesh2D(8), mask)
        # Inject a second fault and restart the protocol on the union.
        mask2 = mask.copy()
        mask2[4, 3] = True
        net2 = run_distributed_labelling(Mesh2D(8), mask2)
        assert np.array_equal(labels_as_grid(net2), label_grid(mask2).status)
        assert labels_as_grid(net2)[3, 3] == 2  # now useless
