"""Property tests for MCC geometry (Wang's shape theorems).

Wang [7] proves 2-D MCCs are rectilinear monotone polygons.  The
predicates and section/interval helpers below check that our labelling
reproduces that geometry, and that 3-D sections need not.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.components import extract_mccs
from repro.core.labelling import label_grid
from repro.mesh.regions import Box, mask_of_cells
from tests.conftest import random_mask


def axis_intervals(mask: np.ndarray, axis: int) -> dict[tuple, tuple[int, int]]:
    """Per-line (fixed other coords) [min, max] span of True cells."""
    out: dict[tuple, tuple[int, int]] = {}
    for cell in np.argwhere(mask):
        key = tuple(int(c) for i, c in enumerate(cell) if i != axis)
        v = int(cell[axis])
        lo, hi = out.get(key, (v, v))
        out[key] = (min(lo, v), max(hi, v))
    return out


def is_orthogonally_convex(mask: np.ndarray) -> bool:
    """Every axis-aligned line meets the region in one contiguous run.

    For 2-D MCCs this is the "rectilinear monotone polygon" property:
    each row and each column intersection is a single interval.
    """
    for axis in range(mask.ndim):
        moved = np.moveaxis(mask, axis, -1)
        for line in moved.reshape(-1, mask.shape[axis]):
            idx = np.flatnonzero(line)
            if idx.size and (idx[-1] - idx[0] + 1 != idx.size):
                return False
    return True


def has_sw_corner_cell(mask: np.ndarray) -> bool:
    """(min per axis) cell belongs to the region (2-D MCC invariant).

    The useless-closure fills every southwest notch, so a 2-D MCC always
    contains its bounding box's low corner — the fact that makes the
    initialization corner well-defined.
    """
    cells = np.argwhere(mask)
    if cells.size == 0:
        return True
    lo = tuple(int(c) for c in cells.min(axis=0))
    return bool(mask[lo])


def sections_along(mask: np.ndarray, axis: int) -> dict[int, np.ndarray]:
    """The non-empty 2-D sections of a 3-D region along one axis.

    ``axis`` is the *fixed* axis: ``sections_along(m, 2)`` returns the
    XY sections (keyed by z), matching the paper's section families.
    """
    if mask.ndim != 3:
        raise ValueError("sections_along expects a 3-D mask")
    out: dict[int, np.ndarray] = {}
    for k in range(mask.shape[axis]):
        idx = [slice(None)] * 3
        idx[axis] = k
        section = mask[tuple(idx)]
        if section.any():
            out[k] = section
    return out


def bounding_box(mask: np.ndarray) -> Box | None:
    """Bounding box of the True cells (None when empty)."""
    cells = np.argwhere(mask)
    if cells.size == 0:
        return None
    return Box(
        tuple(int(c) for c in cells.min(axis=0)),
        tuple(int(c) for c in cells.max(axis=0)),
    )


class TestMonotonePolygonProperty:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 14))
    @settings(max_examples=50, deadline=None)
    def test_2d_mccs_are_orthogonally_convex(self, seed, count):
        """Wang [7]: every 2-D MCC is a rectilinear monotone polygon —
        each row/column intersection is one contiguous interval."""
        rng = np.random.default_rng(seed)
        lab = label_grid(random_mask(rng, (9, 9), count))
        for mcc in extract_mccs(lab):
            assert is_orthogonally_convex(mcc.mask(lab.shape))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 14))
    @settings(max_examples=50, deadline=None)
    def test_2d_mccs_contain_sw_corner_cell(self, seed, count):
        """The SW-fill guarantees (xmin, ymin) ∈ MCC — what makes the
        initialization corner unique."""
        rng = np.random.default_rng(seed)
        lab = label_grid(random_mask(rng, (9, 9), count))
        for mcc in extract_mccs(lab):
            assert has_sw_corner_cell(mcc.mask(lab.shape))

    def test_3d_sections_may_have_holes(self, fig5_mask):
        """3-D sections are *not* convex (the paper's point in Fig. 5)."""
        lab = label_grid(fig5_mask)
        big = max(extract_mccs(lab, connectivity=2), key=lambda m: m.size)
        section_z5 = sections_along(big.mask(lab.shape), 2)[5]
        assert not is_orthogonally_convex(section_z5)


class TestHelpers:
    def test_axis_intervals(self):
        mask = mask_of_cells([(1, 1), (1, 3), (2, 2)], (5, 5))
        rows = axis_intervals(mask, axis=1)
        assert rows[(1,)] == (1, 3)
        assert rows[(2,)] == (2, 2)

    def test_is_orthogonally_convex_examples(self):
        assert is_orthogonally_convex(mask_of_cells([(1, 1), (1, 2)], (4, 4)))
        assert not is_orthogonally_convex(
            mask_of_cells([(1, 1), (1, 3)], (4, 4))
        )

    def test_sections_along(self, fig5_mask):
        lab = label_grid(fig5_mask)
        xy = sections_along(lab.unsafe_mask, 2)
        assert set(xy) == {4, 5, 6, 7}
        yz = sections_along(lab.unsafe_mask, 0)
        assert 5 in yz

    def test_bounding_box(self):
        mask = mask_of_cells([(1, 2), (3, 1)], (5, 5))
        assert bounding_box(mask).lo == (1, 1)
        assert bounding_box(mask).hi == (3, 2)
        assert bounding_box(np.zeros((3, 3), dtype=bool)) is None

    def test_empty_region_is_convex(self):
        assert is_orthogonally_convex(np.zeros((4, 4), dtype=bool))
        assert has_sw_corner_cell(np.zeros((4, 4), dtype=bool))
