"""Tests for boundary walls and chain merging.

The walls are checked against their definition on full-grid masks.
For a region ``M`` and a dimension ``dim`` (canonical frame):

* the *forbidden region* ``Q_dim(M)`` is the shadow strictly on the
  negative side of ``M`` along ``dim``: cells whose remaining coordinates
  match some M-cell sitting strictly above them in ``dim`` ("the region
  right below it" in the paper's 2-D prose);
* the *critical region* ``Q'_dim(M)`` is the shadow strictly on the
  positive side ("the region right above it").

A routing whose destination lies in ``Q'_dim(M)`` must never enter
``Q_dim(M)``: it would have to cross ``M`` itself within the shadow
columns, forcing a detour.  Entry into a negative-side shadow is only
possible along the *other* axes (moving +dim inside a column only leaves
the shadow), which is why one wall per (dim, entry-axis) pair — the
paper's six boundary types in 3-D, two in 2-D — suffices to guard it.
"""

from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.rfb import rfb_labelled
from repro.core.components import extract_mccs
from repro.core.labelling import _shifted_blocked, label_grid
from repro.core.walls import Wall, build_walls
from repro.mesh.regions import mask_of_cells
from tests.conftest import random_mask
from tests.test_conditions import blocking_walls, lemma1_region_form


def negative_shadow(mask: np.ndarray, axis: int) -> np.ndarray:
    """Cells strictly below some mask cell along ``axis`` (Q_dim).

    Vectorized as a reversed running-OR along the axis, shifted by one so
    the region is strict (mask cells with nothing above are excluded).
    """
    rev = np.flip(mask, axis=axis)
    acc = np.logical_or.accumulate(rev, axis=axis)
    above_or_equal = np.flip(acc, axis=axis)
    return _shifted_blocked(above_or_equal, axis, 1)


def positive_shadow(mask: np.ndarray, axis: int) -> np.ndarray:
    """Cells strictly above some mask cell along ``axis`` (Q'_dim)."""
    acc = np.logical_or.accumulate(mask, axis=axis)
    return _shifted_blocked(acc, axis, -1)


def entry_cells(shadow: np.ndarray, entry_axis: int) -> np.ndarray:
    """Cells just outside ``shadow`` whose +entry_axis neighbor is inside.

    These are exactly the positions where the paper's boundaries place
    their information: a routing message can only step into the shadow
    from one of them (or start inside).  Includes unsafe cells — the
    safe ones are wall *records*, the unsafe ones wall *obstructions*
    (chain merging).  :mod:`repro.core.walls` finds the same cells from
    column heights; this mask form is the definition it is checked
    against.
    """
    inside_ahead = _shifted_blocked(shadow, entry_axis, 1)
    return inside_ahead & ~shadow


def walls_for(walls: list[Wall], mcc_index: int) -> list[Wall]:
    """The ndim walls belonging to one MCC."""
    return [w for w in walls if w.mcc_index == mcc_index]


def active_walls(walls: list[Wall], dest: Sequence[int]) -> list[Wall]:
    """Walls whose critical region contains the destination.

    Only these constrain a routing toward ``dest`` (Algorithm 3 step 2b:
    exclude a direction only when "the destination is in the critical
    region").
    """
    return [w for w in walls if w.in_critical(dest)]


def wall_forbidden(wall: Wall) -> np.ndarray:
    """The wall's chain-merged Q: each column's cells below its top."""
    return wall._depths() < wall._column(wall.tops)


def wall_critical(wall: Wall) -> np.ndarray:
    """The owner's Q': each column's cells at or above its bottom."""
    return wall._depths() >= wall._column(wall.bottoms)


def forbidden_mask_for_dest(
    walls: list[Wall], dest: Sequence[int], shape: Sequence[int]
) -> np.ndarray:
    """Union of merged forbidden regions of all walls active for ``dest``."""
    out = np.zeros(tuple(shape), dtype=bool)
    for wall in active_walls(walls, dest):
        out |= wall_forbidden(wall)
    return out


def _walls(mask):
    lab = label_grid(mask)
    mccs = extract_mccs(lab)
    return lab, mccs, build_walls(mccs)


def reference_merged_forbidden(mccs, mcc_index, dim):
    """The chain fixpoint from its definition, on full-grid masks.

    Z := Q_dim(M); while some other MCC occupies an entry cell of Z,
    Z := Z ∪ Q_dim(M') for every such M', in ascending index order.
    """
    labels = mccs.labels
    merged = [mcc_index]
    z = negative_shadow(labels == mcc_index, dim)
    while True:
        obstructing = set()
        for axis in range(labels.ndim):
            if axis != dim:
                hit = np.unique(labels[entry_cells(z, axis)])
                obstructing.update(int(i) for i in hit if i != 0)
        new = [i for i in sorted(obstructing) if i not in merged]
        if not new:
            return z, tuple(merged)
        for idx in new:
            z |= negative_shadow(labels == idx, dim)
            merged.append(idx)


def reference_walls(mccs):
    """(mcc index, dim, forbidden, critical, records, chain) per wall."""
    safe = mccs.labelled.safe_mask
    ndim = mccs.labels.ndim
    out = []
    for mcc in mccs:
        own = mccs.labels == mcc.index
        for dim in range(ndim):
            forbidden, chain = reference_merged_forbidden(mccs, mcc.index, dim)
            records = {
                axis: entry_cells(forbidden, axis) & safe
                for axis in range(ndim)
                if axis != dim
            }
            out.append(
                (mcc.index, dim, forbidden, positive_shadow(own, dim), records, chain)
            )
    return out


#: 1-D to 4-D mesh shapes, size-1 axes included.
SHAPES = st.one_of(
    st.tuples(st.integers(1, 12)),
    st.tuples(st.integers(1, 9), st.integers(1, 9)),
    st.tuples(*[st.integers(1, 6)] * 3),
    st.tuples(*[st.integers(1, 4)] * 4),
)


class TestHeightsKernel:
    @given(SHAPES, st.integers(0, 2**32 - 1), st.integers(0, 45))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, shape, seed, percent):
        mask = np.random.default_rng(seed).random(shape) * 100 < percent
        for labeller in (label_grid, rfb_labelled):
            mccs = extract_mccs(labeller(mask))
            walls = build_walls(mccs)
            want = reference_walls(mccs)
            assert len(walls) == len(want)
            for wall, (index, dim, forbidden, critical, records, chain) in zip(
                walls, want, strict=True
            ):
                assert (wall.mcc_index, wall.dim) == (index, dim)
                assert np.array_equal(wall_forbidden(wall), forbidden)
                assert np.array_equal(wall_critical(wall), critical)
                got = wall.records
                assert list(got) == list(records)
                for axis, mask_want in records.items():
                    assert got[axis].dtype == mask_want.dtype
                    assert np.array_equal(got[axis], mask_want)
                assert wall.chain == chain

    def test_heights_encode_the_regions(self):
        mask = mask_of_cells([(5, 5), (5, 6), (4, 2)], (9, 9))
        _, mccs, walls = _walls(mask)
        m1 = int(mccs.labels[5, 5])
        wy = next(w for w in walls_for(walls, m1) if w.dim == 1)
        assert wy.tops.shape == wy.bottoms.shape == (9,)
        # Forbidden: below (5,6) in column 5, merged with M2's column 4.
        assert wy.tops.tolist() == [0, 0, 0, 0, 2, 6, 0, 0, 0]
        # Critical: above the owner's lowest cell (5,5) only.
        assert wy.bottoms.tolist() == [9, 9, 9, 9, 9, 6, 9, 9, 9]

    def test_derived_masks_are_read_only(self):
        _, _, walls = _walls(mask_of_cells([(3, 3)], (8, 8)))
        for wall in walls:
            for mask in wall.records.values():
                assert not mask.flags.writeable


class TestSingleMCC:
    def test_wall_count(self, rng):
        mask = mask_of_cells([(3, 3)], (8, 8))
        _, mccs, walls = _walls(mask)
        assert len(walls) == len(mccs) * 2

    def test_singleton_regions(self):
        mask = mask_of_cells([(3, 3)], (8, 8))
        _, _, walls = _walls(mask)
        wy = next(w for w in walls if w.dim == 1)
        forbidden, critical = wall_forbidden(wy), wall_critical(wy)
        assert forbidden[3, 0] and forbidden[3, 2]
        assert not forbidden[3, 4]
        assert critical[3, 4] and not critical[3, 3]
        # Y-wall record cells guard +X entries at column 2, rows < 3.
        assert wy.records[0][2, 0] and wy.records[0][2, 2]
        assert not wy.records[0][2, 3]
        assert wy.chain == (1,)



class TestOffMesh:
    def test_point_queries_reject_off_mesh_coordinates(self):
        # numpy reads a negative index from the far end of an axis, so
        # an unchecked (3, -2) would answer for (3, 6).
        _, _, walls = _walls(mask_of_cells([(3, 3)], (8, 8)))
        wy = next(w for w in walls if w.dim == 1)
        with pytest.raises(ValueError, match="outside mesh"):
            active_walls(walls, (3, -2))
        with pytest.raises(ValueError, match="outside mesh"):
            active_walls(walls, (3, 8))
        with pytest.raises(ValueError, match="outside mesh"):
            blocking_walls(walls, (3, -8), (3, 6))
        with pytest.raises(ValueError, match="outside mesh"):
            lemma1_region_form(walls, (3, -8), (3, 6))
        with pytest.raises(ValueError, match="outside mesh"):
            lemma1_region_form(walls, (3, 0), (9, 6))
        # The same queries on mesh still answer.
        assert len(active_walls(walls, (3, 6))) == 1
        (witness,) = blocking_walls(walls, (3, 0), (3, 6))
        assert witness is wy
        assert not lemma1_region_form(walls, (3, 0), (3, 6))


class TestChainMerging:
    def test_obstructed_wall_merges(self):
        # M1 at (5,5); M2 at (4,2) sits exactly on M1's Y-wall column.
        mask = mask_of_cells([(5, 5), (4, 2)], (9, 9))
        lab, mccs, walls = _walls(mask)
        m1 = int(mccs.labels[5, 5])
        wy = next(w for w in walls_for(walls, m1) if w.dim == 1)
        assert len(wy.chain) == 2
        # Merged forbidden covers M2's shadow too.
        assert wall_forbidden(wy)[4, 0] and wall_forbidden(wy)[4, 1]
        assert wall_forbidden(wy)[5, 0]

    def test_unobstructed_walls_do_not_merge(self):
        mask = mask_of_cells([(5, 5), (1, 1)], (9, 9))
        _, mccs, walls = _walls(mask)
        for w in walls:
            assert len(w.chain) == 1

    def test_merged_forbidden_direct(self):
        mask = mask_of_cells([(5, 5), (4, 2)], (9, 9))
        _, mccs, walls = _walls(mask)
        m1 = int(mccs.labels[5, 5])
        wy = next(w for w in walls_for(walls, m1) if w.dim == 1)
        assert set(wy.chain) == {1, 2}
        assert wall_forbidden(wy)[4, 1] and wall_forbidden(wy)[5, 4]

    def test_chain_is_transitive(self):
        # Three stacked obstructions chain through each other.
        mask = mask_of_cells([(6, 7), (5, 4), (4, 1)], (10, 10))
        lab, mccs, walls = _walls(mask)
        top = int(mccs.labels[6, 7])
        wy = next(w for w in walls_for(walls, top) if w.dim == 1)
        assert len(wy.chain) == 3

    def test_critical_not_merged(self):
        # Algorithm 5 step 4: only Q merges; Q' stays the owner's.
        mask = mask_of_cells([(5, 5), (4, 2)], (9, 9))
        lab, mccs, walls = _walls(mask)
        m1 = int(mccs.labels[5, 5])
        wy = next(w for w in walls_for(walls, m1) if w.dim == 1)
        assert wall_critical(wy)[5, 7]
        assert not wall_critical(wy)[4, 7]  # above M2 only: not M1's critical


class TestDestFiltering:
    def test_active_walls(self):
        mask = mask_of_cells([(3, 3)], (8, 8))
        _, _, walls = _walls(mask)
        assert len(active_walls(walls, (3, 6))) == 1  # Y-critical only
        assert len(active_walls(walls, (6, 3))) == 1  # X-critical only
        assert len(active_walls(walls, (6, 6))) == 0  # diagonal: neither

    def test_forbidden_mask_for_dest(self, rng):
        mask = mask_of_cells([(3, 3)], (8, 8))
        _, _, walls = _walls(mask)
        fm = forbidden_mask_for_dest(walls, (3, 6), (8, 8))
        assert fm[3, 1] and not fm[1, 3]

    def test_records_on_safe_cells_only(self, rng):
        for _ in range(5):
            mask = random_mask(rng, (9, 9), 10)
            lab, _, walls = _walls(mask)
            for w in walls:
                for rec in w.records.values():
                    assert not (rec & lab.unsafe_mask).any()


class TestWalls3D:
    def test_three_walls_per_mcc(self, fig5_mask):
        lab = label_grid(fig5_mask)
        mccs = extract_mccs(lab)
        walls = build_walls(mccs)
        assert len(walls) == len(mccs) * 3

    def test_3d_shadow_membership(self, fig5_mask):
        lab = label_grid(fig5_mask)
        mccs = extract_mccs(lab)
        walls = build_walls(mccs)
        idx = int(mccs.labels[7, 8, 4])
        wz = next(w for w in walls_for(walls, idx) if w.dim == 2)
        assert wall_forbidden(wz)[7, 8, 0] and wall_forbidden(wz)[7, 8, 3]
        assert not wall_forbidden(wz)[7, 8, 5]
        assert wall_critical(wz)[7, 8, 9]
