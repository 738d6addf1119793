"""Unit tests for Box and mask helpers."""

import numpy as np
import pytest

from repro.mesh.regions import Box, mask_of_cells


class TestBoxBasics:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Box((2, 0), (1, 5))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Box((0, 0), (1, 1, 1))

    def test_contains(self):
        box = Box((1, 1), (3, 3))
        assert box.contains((1, 3)) and box.contains((2, 2))
        assert not box.contains((0, 2))
        assert not box.contains((2,))

    def test_degenerate_segment_notation(self):
        # The paper's [0:xd, yd:yd] segments are degenerate boxes.
        seg = Box((0, 7), (5, 7))
        assert seg.contains((3, 7)) and not seg.contains((3, 6))


class TestMasksAndIteration:
    def test_mask_of_cells_roundtrip(self):
        cells = [(0, 1), (3, 2), (4, 4)]
        mask = mask_of_cells(cells, (5, 5))
        assert sorted(map(tuple, np.argwhere(mask).tolist())) == sorted(cells)

    def test_mask_of_no_cells(self):
        assert mask_of_cells([], (3, 3)).sum() == 0
