"""Tests for MCC extraction."""

import numpy as np
import pytest

from repro.core.components import extract_mccs
from repro.core.labelling import label_grid
from repro.mesh.regions import mask_of_cells
from tests.conftest import random_mask


class TestExtraction2D:
    def test_two_separate_faults_two_mccs(self):
        lab = label_grid(mask_of_cells([(1, 1), (5, 5)], (8, 8)))
        mccs = extract_mccs(lab)
        assert len(mccs) == 2
        assert all(m.size == 1 and m.fault_count == 1 for m in mccs)

    def test_glued_staircase_single_mcc(self):
        lab = label_grid(mask_of_cells([(2, 4), (3, 3), (4, 2)], (8, 8)))
        mccs = extract_mccs(lab)
        assert len(mccs) == 1
        mcc = mccs[1]
        assert mcc.fault_count == 3
        assert mcc.nonfaulty_count == mcc.size - 3

    def test_labels_grid_consistency(self, rng):
        lab = label_grid(random_mask(rng, (10, 10), 12))
        mccs = extract_mccs(lab)
        assert (mccs.labels > 0).sum() == lab.unsafe_mask.sum()
        for mcc in mccs:
            assert (mccs.labels[tuple(mcc.cells.T)] == mcc.index).all()

    def test_component_at(self, rng):
        lab = label_grid(mask_of_cells([(3, 3)], (6, 6)))
        mccs = extract_mccs(lab)
        assert mccs[int(mccs.labels[3, 3])].index == 1
        assert mccs.labels[0, 0] == 0

    def test_corners(self):
        lab = label_grid(mask_of_cells([(3, 3), (3, 4), (4, 3), (4, 4)], (8, 8)))
        mcc = extract_mccs(lab)[1]
        assert (mcc.box.lo, mcc.box.hi) == ((3, 3), (4, 4))

    def test_indexing_errors(self, rng):
        mccs = extract_mccs(label_grid(mask_of_cells([(3, 3)], (6, 6))))
        with pytest.raises(IndexError):
            mccs[0]
        with pytest.raises(IndexError):
            mccs[2]

    def test_totals(self, rng):
        mask = random_mask(rng, (10, 10), 15)
        lab = label_grid(mask)
        mccs = extract_mccs(lab)
        assert sum(m.size for m in mccs) == int(lab.unsafe_mask.sum())
        assert sum(m.nonfaulty_count for m in mccs) == int(
            lab.unsafe_mask.sum() - mask.sum()
        )


class TestExtraction3D:
    def test_fig5_face_connectivity_counts(self, fig5_mask):
        lab = label_grid(fig5_mask)
        mccs = extract_mccs(lab)
        # Face connectivity: the big blob splits into the 7-cell core
        # plus (6,7,5), (7,6,5) singletons, plus (7,8,4).
        assert sorted(m.size for m in mccs) == [1, 1, 1, 7]

    def test_fig5_paper_connectivity_two_mccs(self, fig5_mask):
        # The paper groups edge-adjacent cells: exactly two MCCs, one
        # being the lone fault (7,8,4) (Section 4, Figure 5).
        lab = label_grid(fig5_mask)
        mccs = extract_mccs(lab, connectivity=2)
        assert len(mccs) == 2
        sizes = sorted(m.size for m in mccs)
        assert sizes == [1, 9]
        singleton = next(m for m in mccs if m.size == 1)
        assert tuple(singleton.cells[0]) == (7, 8, 4)

    def test_masks_partition_unsafe(self, rng, fig5_mask):
        lab = label_grid(fig5_mask)
        mccs = extract_mccs(lab)
        union = np.zeros(lab.shape, dtype=bool)
        for mcc in mccs:
            m = mcc.mask(lab.shape)
            assert not (union & m).any()  # disjoint
            union |= m
        assert np.array_equal(union, lab.unsafe_mask)

    def test_bounding_boxes(self, fig5_mask):
        lab = label_grid(fig5_mask)
        for mcc in extract_mccs(lab):
            for cell in mcc.cells:
                assert mcc.box.contains(tuple(int(c) for c in cell))
