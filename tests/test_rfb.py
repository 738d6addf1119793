"""Tests for the rectangular-faulty-block baseline."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from repro.baselines import rfb
from repro.baselines.rfb import _local_closure, rfb_labelled, rfb_unsafe
from repro.core.labelling import FAULTY, USELESS
from repro.core.model_cache import clear_labelling_cache
from repro.mesh.orientation import Orientation
from repro.mesh.regions import Box, mask_of_cells
from repro.routing.batch import RoutingService
from tests.conftest import all_classes, random_mask


def rfb_blocks(fault_mask: np.ndarray) -> list[Box]:
    """The disjoint rectangular faulty blocks of a fault pattern."""
    labels, _ = ndimage.label(rfb_unsafe(fault_mask))
    return [
        Box(tuple(s.start for s in slc), tuple(s.stop - 1 for s in slc))
        for slc in ndimage.find_objects(labels)
    ]


def chebyshev_gap(a, b):
    """Chebyshev distance between two ``(lo, hi)`` boxes (0 = overlap)."""
    (alo, ahi), (blo, bhi) = a, b
    return max(
        max(bl - ah, al - bh, 0)
        for al, ah, bl, bh in zip(alo, ahi, blo, bhi, strict=True)
    )


def reference_blocks(fault_mask):
    """Steps 2–3 from their definition, as sorted ``(lo, hi)`` tuples.

    Each face-connected component of the local closure becomes its
    bounding box; any two boxes within Chebyshev distance 1 merge into
    their joint bounding box until none are.
    """
    labels, _ = ndimage.label(_local_closure(fault_mask))
    boxes = [
        (tuple(s.start for s in slc), tuple(s.stop - 1 for s in slc))
        for slc in ndimage.find_objects(labels)
    ]
    while True:
        touching = [
            (a, b) for a, b in combinations(boxes, 2) if chebyshev_gap(a, b) <= 1
        ]
        if not touching:
            return sorted(boxes)
        a, b = touching[0]
        boxes.remove(a)
        boxes.remove(b)
        boxes.append((
            tuple(min(x, y) for x, y in zip(a[0], b[0], strict=True)),
            tuple(max(x, y) for x, y in zip(a[1], b[1], strict=True)),
        ))


#: 2-D, 3-D and 4-D mesh shapes, size-1 axes included.
SHAPES = st.one_of(
    st.tuples(st.integers(1, 10), st.integers(1, 10)),
    st.tuples(*[st.integers(1, 6)] * 3),
    st.tuples(*[st.integers(1, 4)] * 4),
)


def drawn_mask(shape, seed, percent):
    return np.random.default_rng(seed).random(shape) * 100 < percent


class TestLocalClosure:
    def test_two_dims_rule(self):
        # (2,2) has faulty neighbors on two different dimensions.
        mask = mask_of_cells([(1, 2), (2, 1)], (5, 5))
        closed = _local_closure(mask)
        assert closed[2, 2]

    def test_same_dim_not_enough(self):
        mask = mask_of_cells([(1, 2), (3, 2)], (5, 5))
        closed = _local_closure(mask)
        assert not closed[2, 2]

    def test_cascades(self):
        mask = mask_of_cells([(1, 2), (2, 1), (3, 2), (2, 3)], (6, 6))
        closed = _local_closure(mask)
        assert closed[2, 2]


class TestBlocks:
    def test_single_fault_single_block(self):
        blocks = rfb_blocks(mask_of_cells([(3, 3)], (8, 8)))
        assert len(blocks) == 1
        assert blocks[0].lo == (3, 3) and blocks[0].hi == (3, 3)

    def test_diagonal_cluster_bounding_box(self):
        blocks = rfb_blocks(mask_of_cells([(2, 3), (3, 2)], (8, 8)))
        assert len(blocks) == 1
        assert blocks[0].lo == (2, 2) and blocks[0].hi == (3, 3)

    def test_distance_two_blocks_stay_separate(self):
        # Two singletons two apart leave a one-cell gap: separate blocks.
        blocks = rfb_blocks(mask_of_cells([(2, 2), (2, 4)], (8, 8)))
        assert len(blocks) == 2

    def test_corner_diagonal_blocks_merge_3d(self):
        # In 3-D the local rule does not glue corner-diagonal faults,
        # but their unit blocks touch diagonally and merge into one.
        blocks = rfb_blocks(mask_of_cells([(2, 2, 2), (3, 3, 3)], (6, 6, 6)))
        assert len(blocks) == 1
        assert blocks[0].lo == (2, 2, 2) and blocks[0].hi == (3, 3, 3)

    def test_far_blocks_stay_separate(self):
        blocks = rfb_blocks(mask_of_cells([(1, 1), (6, 6)], (9, 9)))
        assert len(blocks) == 2

    def test_blocks_pairwise_separated(self, rng):
        for _ in range(10):
            mask = random_mask(rng, (10, 10), 12)
            blocks = rfb_blocks(mask)
            for a, b in combinations(blocks, 2):
                assert chebyshev_gap((a.lo, a.hi), (b.lo, b.hi)) >= 2

    def test_blocks_contain_all_faults(self, rng):
        for _ in range(10):
            mask = random_mask(rng, (8, 8, 8), 20)
            blocks = rfb_blocks(mask)
            for cell in np.argwhere(mask):
                assert any(b.contains(tuple(int(c) for c in cell)) for b in blocks)

    def test_paper_fig1_scene(self):
        # Figure 1(b): staircase faults produce one bounding rectangle.
        cells = [(3, 6), (4, 5), (5, 4), (6, 3), (3, 3)]
        blocks = rfb_blocks(mask_of_cells(cells, (10, 10)))
        assert len(blocks) == 1
        assert blocks[0].lo == (3, 3) and blocks[0].hi == (6, 6)


class TestPairwiseReference:
    """rfb_blocks against step 3's pairwise merge rule."""

    @given(SHAPES, st.integers(0, 2**32 - 1), st.integers(0, 40))
    @settings(max_examples=60, deadline=None)
    def test_blocks_match_pairwise_rule(self, shape, seed, percent):
        mask = drawn_mask(shape, seed, percent)
        got = sorted((b.lo, b.hi) for b in rfb_blocks(mask))
        assert got == reference_blocks(mask)


class TestUnsafeMask:
    @given(SHAPES, st.integers(0, 2**32 - 1), st.integers(0, 40))
    @settings(max_examples=60, deadline=None)
    def test_union_of_blocks(self, shape, seed, percent):
        # The blocks come from step 3's pairwise rule, not rfb_blocks,
        # which reads its boxes off the rfb_unsafe mask itself.
        mask = drawn_mask(shape, seed, percent)
        expected = np.zeros(shape, dtype=bool)
        for lo, hi in reference_blocks(mask):
            expected[tuple(slice(a, b + 1) for a, b in zip(lo, hi, strict=True))] = True
        assert np.array_equal(rfb_unsafe(mask), expected)

    def test_local_variant_smaller(self, rng):
        for _ in range(10):
            mask = random_mask(rng, (9, 9), 14)
            local = rfb_unsafe(mask, variant="local")
            block = rfb_unsafe(mask, variant="block")
            assert (local <= block).all()

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            rfb_unsafe(np.zeros((3, 3), dtype=bool), variant="huh")


class TestLabelledAdapter:
    def test_statuses(self):
        mask = mask_of_cells([(2, 3), (3, 2)], (8, 8))
        lab = rfb_labelled(mask)
        assert lab.status[2, 3] == FAULTY
        assert lab.status[2, 2] == USELESS  # block member, non-faulty
        assert lab.status[0, 0] == 0

    def test_oriented(self):
        mask = mask_of_cells([(1, 1)], (4, 4))
        o = Orientation((-1, 1), (4, 4))
        lab = rfb_labelled(mask, o)
        assert lab.status[2, 1] == FAULTY  # x flipped: 4-1-1 = 2

    @given(SHAPES, st.integers(0, 2**32 - 1), st.integers(0, 40))
    @settings(max_examples=25, deadline=None)
    def test_one_region_per_mask(self, shape, seed, percent):
        """Every class views one frozen grid; the blocks run once per mask."""
        mask = drawn_mask(shape, seed, percent)
        calls = []

        def counted(fault_mask):
            calls.append(fault_mask.shape)
            return rfb_unsafe(fault_mask)

        want = np.zeros(shape, dtype=np.int8)
        want[rfb_unsafe(mask)] = USELESS
        want[mask] = FAULTY
        clear_labelling_cache()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rfb, "rfb_unsafe", counted)
            classes = all_classes(shape)
            for orientation in classes:
                lab = rfb_labelled(mask, orientation)
                assert lab.orientation == orientation
                assert np.array_equal(lab.status, orientation.to_canonical(want))
                assert not lab.status.flags.writeable
                with pytest.raises(ValueError):
                    lab.status[(0,) * len(shape)] = FAULTY
            # The service's per-class models share the same region.
            service = RoutingService(mask.copy(), mode="rfb")
            for orientation in classes:
                service._model_for(orientation)
            assert calls == [shape]
            clear_labelling_cache()
            rfb_labelled(mask)
            assert calls == [shape, shape]


class TestDynamicRFBState:
    """Block-local incremental recompute == from-scratch rfb_unsafe."""

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([(9, 9), (6, 6, 6), (4, 4, 3, 3)]),
    )
    @settings(max_examples=12, deadline=None)
    def test_matches_from_scratch_across_events(self, seed, shape):
        from repro.baselines.rfb import DynamicRFBState

        rng = np.random.default_rng(seed)
        live = random_mask(rng, shape, int(rng.integers(2, 12)))
        state = DynamicRFBState(live)
        for step in range(6):
            pool = np.argwhere(~live if step % 2 == 0 else live)
            if len(pool) == 0:
                continue
            k = min(int(rng.integers(1, 4)), len(pool))
            picks = rng.choice(len(pool), size=k, replace=False)
            cells = [tuple(int(v) for v in pool[i]) for i in picks]
            kind = "inject" if step % 2 == 0 else "repair"
            for c in cells:
                live[c] = kind == "inject"
            old = state.unsafe.copy()
            dirty, swept, full = state.apply(cells, kind)
            want = rfb_unsafe(live)
            assert np.array_equal(state.unsafe, want)
            assert np.array_equal(state.open, ~want)
            # The dirty box covers every changed cell, and is None
            # exactly when no unsafe bit changed.
            changed = np.argwhere(old != want)
            assert (dirty is None) == (len(changed) == 0)
            for c in changed:
                assert dirty.contains(tuple(int(v) for v in c))

    def test_inject_inside_block_is_free(self):
        from repro.baselines.rfb import DynamicRFBState

        live = mask_of_cells([(2, 3), (3, 2)], (8, 8))
        state = DynamicRFBState(live)
        assert state.unsafe[2, 2] and state.unsafe[3, 3]
        live[2, 2] = True  # a fault appearing inside the block
        dirty, swept, full = state.apply([(2, 2)], "inject")
        assert dirty is None and swept == 0 and not full
        assert state.unsafe[2, 2] and not state.open[2, 2]

    def test_dirty_box_covers_every_change(self):
        from repro.baselines.rfb import DynamicRFBState

        rng = np.random.default_rng(5)
        live = random_mask(rng, (10, 10), 8)
        state = DynamicRFBState(live)
        old = state.unsafe.copy()
        pool = np.argwhere(~live)
        cell = tuple(int(v) for v in pool[0])
        live[cell] = True
        dirty, _swept, full = state.apply([cell], "inject")
        changed = np.argwhere(old != state.unsafe)
        if len(changed) == 0:
            assert dirty is None or full
        else:
            assert dirty is not None
            for c in changed:
                assert dirty.contains(tuple(int(v) for v in c))
