"""Tests for the forbidden/critical region (shadow) definitions in
``tests/test_walls.py``, against a scalar reference."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh.regions import mask_of_cells
from tests.conftest import random_mask
from tests.test_walls import entry_cells, negative_shadow, positive_shadow


def shadow_reference(mask: np.ndarray, axis: int, negative: bool) -> np.ndarray:
    """Scalar definition: cell strictly below/above some mask cell."""
    out = np.zeros_like(mask)
    for cell in np.ndindex(mask.shape):
        for other in np.argwhere(mask):
            if all(
                c == o for i, (c, o) in enumerate(zip(cell, other, strict=True)) if i != axis
            ):
                if negative and cell[axis] < other[axis]:
                    out[cell] = True
                if not negative and cell[axis] > other[axis]:
                    out[cell] = True
    return out


class TestShadows:
    def test_rectangle_forbidden_region(self):
        # QY of a rectangle = everything strictly below it, per column.
        mask = mask_of_cells([(2, 3), (3, 3), (2, 4), (3, 4)], (6, 6))
        forbidden, critical = negative_shadow(mask, 1), positive_shadow(mask, 1)
        assert forbidden[2, 0] and forbidden[3, 2]
        assert not forbidden[1, 0] and not forbidden[2, 5]
        assert critical[2, 5] and critical[3, 5]
        assert not critical[2, 2]

    def test_strictness(self):
        mask = mask_of_cells([(2, 2)], (5, 5))
        forbidden, critical = negative_shadow(mask, 1), positive_shadow(mask, 1)
        assert not forbidden[2, 2] and not critical[2, 2]
        assert forbidden[2, 1] and critical[2, 3]

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2))
    @settings(max_examples=20, deadline=None)
    def test_matches_reference_2d(self, seed, axis):
        axis = axis % 2
        rng = np.random.default_rng(seed)
        mask = random_mask(rng, (5, 5), int(rng.integers(0, 8)))
        assert np.array_equal(
            negative_shadow(mask, axis), shadow_reference(mask, axis, True)
        )
        assert np.array_equal(
            positive_shadow(mask, axis), shadow_reference(mask, axis, False)
        )

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2))
    @settings(max_examples=10, deadline=None)
    def test_matches_reference_3d(self, seed, axis):
        rng = np.random.default_rng(seed)
        mask = random_mask(rng, (4, 4, 4), int(rng.integers(0, 8)))
        assert np.array_equal(
            negative_shadow(mask, axis), shadow_reference(mask, axis, True)
        )
        assert np.array_equal(
            positive_shadow(mask, axis), shadow_reference(mask, axis, False)
        )

    def test_shadow_closed_downward(self, rng):
        # Entering Q via +dim is impossible: the shadow has no "roof"
        # inside itself (if (x,y) in Q then (x,y-1) in Q).
        mask = random_mask(rng, (6, 6), 6)
        q = negative_shadow(mask, 1)
        assert (q[:, 1:] <= (q | mask)[:, :-1]).all()


class TestEntryCells:
    def test_rectangle_entry_cells(self):
        mask = mask_of_cells([(3, 3), (3, 4)], (7, 7))
        # The shadow includes (3,3) itself: it sits below (3,4).
        q = negative_shadow(mask, 1)  # column 3, rows 0..3
        entries = entry_cells(q, 0)  # +X entries: column 2, rows 0..3
        assert entries[2, 0] and entries[2, 1] and entries[2, 2]
        assert entries[2, 3]  # guards the faulty cell's west flank
        assert not entries[2, 4]
        assert entries.sum() == 4

    def test_entry_cells_exclude_shadow_itself(self, rng):
        mask = random_mask(rng, (6, 6), 6)
        q = negative_shadow(mask, 1)
        entries = entry_cells(q, 0)
        assert not (entries & q).any()

    def test_no_entries_along_shadow_axis(self, rng):
        # Stepping +Y inside a column only leaves the Y-shadow: the
        # entry set along the shadow axis itself is empty.
        mask = random_mask(rng, (6, 6), 6)
        q = negative_shadow(mask, 1)
        entries_y = entry_cells(q, 1)
        assert not entries_y.any()
