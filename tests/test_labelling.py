"""Tests for the unsafe-node labelling (Algorithms 1 and 4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.labelling import (
    CANT_REACH,
    FAULTY,
    SAFE,
    USELESS,
    closure,
    closure_region,
    label_grid,
    unsafe_mask,
)
from repro.mesh.regions import mask_of_cells
from tests.conftest import all_classes, random_mask


def _closure_reference(fault_mask: np.ndarray, sign: int) -> np.ndarray:
    """Scalar reference for the nodes ``repro.core.labelling.closure`` labels.

    Literal transcription of Algorithm 1/4: repeatedly scan all nodes and
    apply the local rule until nothing changes.  Returns the labelled
    nodes without the faults.
    """
    shape = fault_mask.shape
    ndim = fault_mask.ndim
    blocked = {tuple(c) for c in np.argwhere(fault_mask)}
    changed = True
    while changed:
        changed = False
        for coord in np.ndindex(shape):
            if coord in blocked:
                continue
            all_blocked = True
            for axis in range(ndim):
                n = list(coord)
                n[axis] += sign
                if not 0 <= n[axis] < shape[axis]:
                    all_blocked = False
                    break
                if tuple(n) not in blocked:
                    all_blocked = False
                    break
            if all_blocked:
                blocked.add(coord)
                changed = True
    out = np.zeros(shape, dtype=bool)
    for coord in blocked:
        out[coord] = True
    return out & ~fault_mask


def closure_by_rule(fault_mask: np.ndarray, sign: int) -> np.ndarray:
    """The ``sign`` rule's closure: ``closure`` for the USELESS rule
    (+1), and for the CANT_REACH rule (-1) the same kernel on the
    reversed mask, reversed back."""
    if sign > 0:
        return closure(fault_mask)
    return np.flip(closure(np.flip(fault_mask)))


def region_by_rule(blocked: np.ndarray, sign: int, lo, hi) -> int:
    """``closure_region`` for the ``sign`` rule: the CANT_REACH rule
    sweeps the reversed view over the reversed box."""
    if sign > 0:
        return closure_region(blocked, lo, hi)
    top = [k - 1 for k in blocked.shape]
    return closure_region(
        np.flip(blocked),
        [t - b for t, b in zip(top, hi, strict=True)],
        [t - a for t, a in zip(top, lo, strict=True)],
    )


class TestRules2D:
    def test_fault_free_all_safe(self):
        lab = label_grid(np.zeros((6, 6), dtype=bool))
        assert (lab.status == SAFE).all()

    def test_single_fault_no_fill(self):
        lab = label_grid(mask_of_cells([(3, 3)], (7, 7)))
        assert lab.unsafe_mask.sum() == 1

    def test_sw_diagonal_pair_glues_via_useless(self):
        # Faults at (3,4),(4,3): node (3,3) has +X and +Y blocked.
        lab = label_grid(mask_of_cells([(3, 4), (4, 3)], (7, 7)))
        assert lab.status[3, 3] == USELESS

    def test_ne_diagonal_pair_glues_via_cant_reach(self):
        lab = label_grid(mask_of_cells([(3, 4), (4, 3)], (7, 7)))
        assert lab.status[4, 4] == CANT_REACH

    def test_ne_diagonal_pair_does_not_glue(self):
        # (3,3),(4,4): no node has both + (or both -) neighbors blocked.
        lab = label_grid(mask_of_cells([(3, 3), (4, 4)], (7, 7)))
        assert lab.unsafe_mask.sum() == 2

    def test_staircase_fills_recursively(self):
        # Anti-diagonal staircase: the SW pocket fills layer by layer.
        lab = label_grid(mask_of_cells([(2, 4), (3, 3), (4, 2)], (7, 7)))
        assert lab.status[2, 3] == USELESS
        assert lab.status[3, 2] == USELESS
        assert lab.status[2, 2] == USELESS
        assert lab.status[3, 4] == CANT_REACH
        assert lab.status[4, 3] == CANT_REACH
        assert lab.status[4, 4] == CANT_REACH

    def test_mesh_border_is_not_blocking(self):
        # DESIGN interpretation 1: otherwise (0,0) would be can't-reach.
        lab = label_grid(mask_of_cells([(5, 5)], (7, 7)))
        assert lab.status[0, 0] == SAFE
        assert lab.status[6, 6] == SAFE

    def test_c_shape_pocket_closes(self):
        # An east-opening C: the pocket is can't-reach-filled.
        cells = [(5, 4), (5, 5), (5, 6), (6, 4), (6, 6)]
        lab = label_grid(mask_of_cells(cells, (9, 9)))
        assert lab.status[6, 5] == CANT_REACH


class TestRules3D:
    def test_fig5_labels(self, fig5_mask):
        # Section 4: "(5,5,5) becomes useless and (5,5,7) becomes
        # can't-reach in our labelling process."
        lab = label_grid(fig5_mask)
        assert lab.status[5, 5, 5] == USELESS
        assert lab.status[5, 5, 7] == CANT_REACH

    def test_fig5_hole_stays_safe(self, fig5_mask):
        # "A section ... shows a hole at (6,6,5) in the MCC region."
        lab = label_grid(fig5_mask)
        assert lab.status[6, 6, 5] == SAFE

    def test_2d_blocker_not_useless_in_3d(self):
        # A node with only +X and +Y blocked can still route +Z
        # (Section 4, first paragraph).
        mask = mask_of_cells([(4, 3, 3), (3, 4, 3)], (6, 6, 6))
        lab = label_grid(mask)
        assert lab.status[3, 3, 3] == SAFE

    def test_three_blockers_make_useless(self):
        mask = mask_of_cells([(4, 3, 3), (3, 4, 3), (3, 3, 4)], (6, 6, 6))
        lab = label_grid(mask)
        assert lab.status[3, 3, 3] == USELESS


class TestFixedPoint:
    @given(st.integers(0, 2**32 - 1), st.integers(0, 12))
    @settings(max_examples=40, deadline=None)
    def test_vectorized_matches_reference_2d(self, seed, count):
        rng = np.random.default_rng(seed)
        mask = random_mask(rng, (6, 6), count)
        for sign in (+1, -1):
            fast = closure_by_rule(mask, sign) & ~mask
            slow = _closure_reference(mask, sign)
            assert np.array_equal(fast, slow)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_vectorized_matches_reference_3d(self, seed):
        rng = np.random.default_rng(seed)
        mask = random_mask(rng, (4, 4, 4), int(rng.integers(0, 10)))
        for sign in (+1, -1):
            assert np.array_equal(
                closure_by_rule(mask, sign) & ~mask, _closure_reference(mask, sign)
            )

    def test_idempotent(self, rng):
        # Labelling the unsafe set again adds nothing new.
        mask = random_mask(rng, (8, 8), 10)
        lab = label_grid(mask)
        lab2 = label_grid(lab.unsafe_mask)
        assert np.array_equal(lab2.unsafe_mask, lab.unsafe_mask)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_faults(self, seed):
        # More faults => superset of unsafe nodes.
        rng = np.random.default_rng(seed)
        mask = random_mask(rng, (7, 7), 6)
        bigger = mask.copy()
        bigger[tuple(rng.integers(0, 7, 2))] = True
        small = label_grid(mask).unsafe_mask
        large = label_grid(bigger).unsafe_mask
        assert (small <= large).all()

    def test_faults_always_unsafe(self, rng):
        mask = random_mask(rng, (6, 6, 6), 15)
        lab = label_grid(mask)
        assert (lab.status[mask] == FAULTY).all()


class TestOrientationHandling:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_direction_class_symmetry(self, seed):
        # Labelling a flipped grid == flipping the labelled grid.
        rng = np.random.default_rng(seed)
        mask = random_mask(rng, (6, 6), 8)
        for o in all_classes((6, 6)):
            direct = label_grid(mask, o).status
            manual = label_grid(o.to_canonical(mask)).status
            assert np.array_equal(direct, manual)


class TestAccessors:
    def test_counts(self, rng):
        mask = random_mask(rng, (8, 8), 12)
        lab = label_grid(mask)
        counts = lab.counts()
        assert counts["faulty"] == 12
        assert sum(counts.values()) == 64

    def test_masks_partition(self, rng):
        mask = random_mask(rng, (8, 8), 12)
        lab = label_grid(mask)
        total = (
            lab.safe_mask.sum()
            + lab.fault_mask.sum()
            + (lab.status == USELESS).sum()
            + (lab.status == CANT_REACH).sum()
        )
        assert total == 64
        assert np.array_equal(lab.unsafe_mask, ~lab.safe_mask)

    def test_unsafe_mask_shorthand(self, rng):
        mask = random_mask(rng, (6, 6), 5)
        assert np.array_equal(unsafe_mask(mask), label_grid(mask).unsafe_mask)


class TestClosureRegionBoxes:
    """Property checks of the dirty-box sweep against the full closure.

    The slab-extension arithmetic (one frozen layer toward the neighbor
    side, clipped at the mesh border) is exercised directly: full-grid
    boxes, boxes flush against every border, single-cell and degenerate
    boxes — each compared with the scalar ``_closure_reference``.  The
    CANT_REACH rule runs through the reversed-axes identity
    (``region_by_rule``).
    """

    @settings(max_examples=40, deadline=None)
    @given(
        st.tuples(st.integers(3, 7), st.integers(3, 7)),
        st.integers(0, 2**32 - 1),
        st.sampled_from([+1, -1]),
    )
    def test_full_grid_box_matches_closure(self, shape, seed, sign):
        rng = np.random.default_rng(seed)
        mask = random_mask(rng, shape, int(rng.integers(0, 8)))
        blocked = mask.copy()
        grown = region_by_rule(
            blocked, sign, (0,) * len(shape), tuple(k - 1 for k in shape)
        )
        want = _closure_reference(mask, sign) | mask
        np.testing.assert_array_equal(blocked, want)
        assert grown == int(want.sum()) - int(mask.sum())

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([+1, -1]),
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
    )
    def test_partial_box_is_sound_and_scoped(self, seed, sign, a, b):
        """A partial box only grows inside itself and stays within the
        full closure; cells outside the box are bitwise frozen."""
        shape = (5, 5)
        rng = np.random.default_rng(seed)
        mask = random_mask(rng, shape, int(rng.integers(0, 7)))
        lo = tuple(min(x, y) for x, y in zip(a, b, strict=True))
        hi = tuple(max(x, y) for x, y in zip(a, b, strict=True))
        blocked = mask.copy()
        before = blocked.copy()
        region_by_rule(blocked, sign, lo, hi)
        full = _closure_reference(mask, sign) | mask
        # Sound: never blocks a cell the full closure leaves open.
        assert not (blocked & ~full).any()
        # Scoped: outside the box nothing changed.
        box = np.zeros(shape, dtype=bool)
        box[lo[0] : hi[0] + 1, lo[1] : hi[1] + 1] = True
        np.testing.assert_array_equal(blocked[~box], before[~box])

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([+1, -1]),
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
    )
    def test_partial_then_full_reaches_fixed_point(self, seed, sign, a, b):
        """Monotone restart: any partial sweep followed by a full-grid
        sweep lands exactly on the full closure (the dirty-region
        soundness argument in the docstring)."""
        shape = (5, 5)
        rng = np.random.default_rng(seed)
        mask = random_mask(rng, shape, int(rng.integers(0, 7)))
        lo = tuple(min(x, y) for x, y in zip(a, b, strict=True))
        hi = tuple(max(x, y) for x, y in zip(a, b, strict=True))
        blocked = mask.copy()
        region_by_rule(blocked, sign, lo, hi)
        region_by_rule(blocked, sign, (0, 0), (4, 4))
        np.testing.assert_array_equal(
            blocked, _closure_reference(mask, sign) | mask
        )

    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize(
        "cell", [(0, 0), (0, 3), (3, 0), (3, 3), (1, 2)]
    )
    def test_single_cell_box_matches_scalar_rule(self, sign, cell):
        """A 1x1 box (borders and interior) applies exactly the scalar
        rule: blocked iff every sign-direction neighbor is blocked, with
        the mesh border non-blocking."""
        shape = (4, 4)
        rng = np.random.default_rng(hash((sign, cell)) % (2**32))
        for _ in range(10):
            mask = random_mask(rng, shape, int(rng.integers(0, 8)))
            blocked = mask.copy()
            grown = region_by_rule(blocked, sign, cell, cell)
            if mask[cell]:
                want = True  # already blocked; sweep cannot change it
            else:
                neighbor_blocked = []
                for axis in range(2):
                    n = list(cell)
                    n[axis] += sign
                    n = tuple(n)
                    inside = all(0 <= v < k for v, k in zip(n, shape, strict=True))
                    neighbor_blocked.append(inside and bool(mask[n]))
                want = all(neighbor_blocked)
            assert bool(blocked[cell]) == want
            assert grown == int(want and not mask[cell])

    def test_border_hugging_slabs(self):
        """Boxes flush with each mesh border exercise the clipped and
        the unclipped extension layer (min(b+2, k)), for both rules."""
        shape = (5, 5)
        rng = np.random.default_rng(9)
        for _ in range(20):
            mask = random_mask(rng, shape, int(rng.integers(2, 10)))
            for sign in (+1, -1):
                full = _closure_reference(mask, sign) | mask
                for lo, hi in [
                    ((0, 0), (0, 4)),  # top row
                    ((4, 0), (4, 4)),  # bottom row
                    ((0, 0), (4, 0)),  # left column
                    ((0, 4), (4, 4)),  # right column
                ]:
                    blocked = mask.copy()
                    region_by_rule(blocked, sign, lo, hi)
                    assert not (blocked & ~full).any()
                    region_by_rule(blocked, sign, (0, 0), (4, 4))
                    np.testing.assert_array_equal(blocked, full)

    def test_empty_box_returns_zero(self):
        blocked = np.zeros((3, 3), dtype=bool)
        assert closure_region(blocked, (2, 2), (1, 1)) == 0
        assert not blocked.any()
