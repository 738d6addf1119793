"""Tests for the operational feasibility detection (Algorithms 3/6)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.detection import detect_canonical, detection_feasible
from repro.core.labelling import label_grid
from repro.mesh.orientation import Orientation
from repro.mesh.regions import mask_of_cells
from repro.util.validation import OffMeshError
from tests.conftest import oracle_feasible, random_mask


class TestDetectionRegressions:
    """Pinned counterexamples found by the oracle-agreement fuzzing."""

    def test_degenerate_axis_reduces_to_slice(self):
        # s and d share x=0: the RMP is a 2-D slice, where the faults
        # cut every monotone path.  The 3-D surface messages each verify
        # only a 1-D projection here and used to report feasible.
        mask = mask_of_cells(
            [(0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (2, 1, 1),
             (2, 1, 4), (3, 0, 3), (3, 1, 2), (3, 1, 4), (4, 1, 1),
             (4, 2, 1)],
            (5, 5, 5),
        )
        s, d = (0, 2, 2), (0, 0, 0)
        assert not oracle_feasible(mask, s, d)
        assert not detection_feasible(mask, s, d)

    def test_three_reachable_faces_but_no_corner_path(self):
        # All three RMP faces are individually reachable, yet a diagonal
        # barrier cuts every single s->d path: the surface-message
        # conjunction alone is not sufficient in 3-D.
        mask = mask_of_cells(
            [(0, 0, 0), (0, 2, 0), (0, 4, 2), (1, 3, 3), (1, 4, 2),
             (2, 1, 2), (2, 2, 1), (2, 3, 0), (3, 3, 1), (4, 0, 1),
             (4, 1, 0)],
            (5, 5, 5),
        )
        s, d = (1, 4, 3), (2, 1, 0)
        assert not oracle_feasible(mask, s, d)
        assert not detection_feasible(mask, s, d)

    def test_one_dimensional_mesh(self):
        # The RMP of a 1-D pair is a segment: feasible iff fault-free.
        # Class-safe endpoints used to reach the walks, which raised.
        # A 4-D full-dimensional pair still raises: the walks are
        # defined for 2-D and 3-D meshes only.
        free = np.zeros(9, dtype=bool)
        assert detection_feasible(free, (0,), (8,))
        assert detection_feasible(free, (7,), (1,))
        mask = mask_of_cells([(4,)], (9,))
        assert not detection_feasible(mask, (0,), (8,))
        assert detection_feasible(mask, (0,), (3,))
        assert detection_feasible(mask, (8,), (5,))
        assert detection_feasible(mask, (2,), (2,))
        with pytest.raises(NotImplementedError):
            detection_feasible(np.zeros((2,) * 4, dtype=bool), (0,) * 4, (1,) * 4)

    def test_degenerate_line_and_point_pairs(self):
        mask = mask_of_cells([(2, 2, 2)], (5, 5, 5))
        # Two degenerate axes: a fault on the connecting segment.
        assert not detection_feasible(mask, (2, 2, 0), (2, 2, 4))
        assert detection_feasible(mask, (2, 0, 2), (2, 1, 2))
        # Source == destination.
        assert detection_feasible(mask, (1, 1, 1), (1, 1, 1))


class TestWalks2D:
    def test_fault_free_trivially_feasible(self):
        lab = label_grid(np.zeros((8, 8), dtype=bool))
        report = detect_canonical(lab.unsafe_mask, (0, 0), (7, 7))
        assert report.feasible
        assert set(report.messages.values()) == {True}

    def test_trails_recorded(self):
        lab = label_grid(mask_of_cells([(0, 4)], (8, 8)))
        report = detect_canonical(lab.unsafe_mask, (0, 0), (7, 7))
        trail = report.trails["+Y along x=xs"]
        assert trail[0] == (0, 0)
        # The +Y walk detours +X around the fault at (0,4).
        assert (1, 3) in trail or (1, 4) in trail

    def test_barrier_returns_no(self):
        cells = [(0, 6), (1, 5), (2, 4)]
        lab = label_grid(mask_of_cells(cells, (9, 9)))
        assert not lab.unsafe_mask[0, 0] and not lab.unsafe_mask[2, 8]
        report = detect_canonical(lab.unsafe_mask, (0, 0), (2, 8))
        assert not report.feasible

    def test_unsafe_endpoint_rejected(self):
        lab = label_grid(mask_of_cells([(0, 0)], (5, 5)))
        with pytest.raises(ValueError):
            detect_canonical(lab.unsafe_mask, (0, 0), (4, 4))

    def test_non_canonical_rejected(self):
        lab = label_grid(np.zeros((5, 5), dtype=bool))
        with pytest.raises(ValueError):
            detect_canonical(lab.unsafe_mask, (3, 3), (0, 0))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_oracle_2d(self, seed):
        """The two greedy walks decide exactly minimal-path existence."""
        rng = np.random.default_rng(seed)
        mask = random_mask(rng, (7, 7), int(rng.integers(1, 12)))
        for _ in range(8):
            s = tuple(int(v) for v in rng.integers(0, 7, 2))
            d = tuple(int(v) for v in rng.integers(0, 7, 2))
            if mask[s] or mask[d]:
                continue
            from repro.mesh.orientation import Orientation

            o = Orientation.for_pair(s, d, (7, 7))
            lab_o = label_grid(mask, o)
            cs, cd = o.map_coord(s), o.map_coord(d)
            if lab_o.unsafe_mask[cs] or lab_o.unsafe_mask[cd]:
                continue
            assert detection_feasible(mask, s, d) == oracle_feasible(mask, s, d)


class TestFloods3D:
    def test_fig5_feasible(self, fig5_mask):
        assert detection_feasible(fig5_mask, (0, 0, 0), (9, 9, 9))

    def test_column_trap_detected(self):
        mask = mask_of_cells([(2, 2, 3)], (6, 6, 6))
        assert not detection_feasible(mask, (2, 2, 0), (2, 2, 5))

    def test_three_surfaces_reported(self):
        lab = label_grid(np.zeros((5, 5, 5), dtype=bool))
        report = detect_canonical(lab.unsafe_mask, (0, 0, 0), (4, 4, 4))
        assert set(report.messages) == {
            "(-X)-surface", "(-Y)-surface", "(-Z)-surface"
        }

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_agrees_with_oracle_3d(self, seed):
        rng = np.random.default_rng(seed)
        mask = random_mask(rng, (5, 5, 5), int(rng.integers(1, 14)))
        for _ in range(6):
            s = tuple(int(v) for v in rng.integers(0, 5, 3))
            d = tuple(int(v) for v in rng.integers(0, 5, 3))
            if mask[s] or mask[d]:
                continue
            from repro.mesh.orientation import Orientation

            o = Orientation.for_pair(s, d, (5, 5, 5))
            lab_o = label_grid(mask, o)
            if lab_o.unsafe_mask[o.map_coord(s)] or lab_o.unsafe_mask[o.map_coord(d)]:
                continue
            assert detection_feasible(mask, s, d) == oracle_feasible(mask, s, d), (
                s, d, np.argwhere(mask).tolist()
            )

    def test_unsupported_dimension(self):
        lab = label_grid(np.zeros((3, 3, 3, 3), dtype=bool))
        with pytest.raises(NotImplementedError):
            detect_canonical(lab.unsafe_mask, (0,) * 4, (2,) * 4)


class TestDetectionBatch:
    """The batched detection pass is pair-for-pair identical."""

    @given(st.integers(0, 2**32 - 1), st.sampled_from([(6, 6), (7, 4), (4, 4, 4)]))
    @settings(max_examples=30, deadline=None)
    def test_matches_per_pair(self, seed, shape):
        from repro.core.detection import detection_feasible_batch

        rng = np.random.default_rng(seed)
        n = int(np.prod(shape))
        mask = random_mask(rng, shape, int(rng.integers(0, n // 4 + 1)))
        cells = np.argwhere(~mask)
        pairs = []
        for _ in range(20):
            i, j = rng.integers(0, len(cells), size=2)
            pairs.append(
                (
                    tuple(int(v) for v in cells[i]),
                    tuple(int(v) for v in cells[j]),
                )
            )
        got = detection_feasible_batch(mask, pairs)
        assert got.dtype == bool and got.shape == (len(pairs),)
        for verdict, (s, d) in zip(got, pairs, strict=True):
            assert bool(verdict) == detection_feasible(mask, s, d), (s, d)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([(5, 4), (4, 4, 3)]))
    @settings(max_examples=15, deadline=None)
    def test_batch_spans_every_direction_class(self, seed, shape):
        from repro.core.detection import detection_feasible_batch

        rng = np.random.default_rng(seed)
        mask = random_mask(rng, shape, int(rng.integers(0, np.prod(shape) // 5 + 1)))
        cells = [tuple(c) for c in np.argwhere(~mask).tolist()]
        pairs = [(s, d) for s in cells for d in cells if s != d]
        classes = {
            Orientation.for_pair(s, d, shape).signs
            for s, d in pairs
            if all(a != b for a, b in zip(s, d, strict=True))
        }
        assert len(classes) == 2 ** len(shape)
        got = detection_feasible_batch(mask, pairs)
        for verdict, (s, d) in zip(got.tolist(), pairs, strict=True):
            assert verdict == detection_feasible(mask, s, d), (s, d)

    def test_class_unsafe_endpoint_gets_exact_reachability(self):
        from repro.core.detection import detection_feasible_batch
        from repro.routing.batch import RoutingService

        # (1, 1) is can't-reach in its class (both -1 neighbours are
        # faulty), yet a fault-free monotone path leads to (3, 3); (0, 0)
        # is useless and truly cut off.  The mcc model refuses both
        # pairs; detection answers with exact reachability, as the
        # per-pair form does.
        mask = mask_of_cells([(0, 1), (1, 0)], (5, 5))
        pairs = [((1, 1), (3, 3)), ((0, 0), (3, 3))]
        assert not RoutingService(mask).feasible_batch(pairs).any()
        assert oracle_feasible(mask, *pairs[0])
        assert not oracle_feasible(mask, *pairs[1])
        assert detection_feasible_batch(mask, pairs).tolist() == [True, False]
        assert [detection_feasible(mask, s, d) for s, d in pairs] == [True, False]

    def test_one_dimensional_batch(self):
        from repro.core.detection import detection_feasible_batch

        pairs = [((0,), (8,)), ((8,), (5,)), ((2,), (2,)), ((3,), (0,))]
        free = np.zeros(9, dtype=bool)
        assert detection_feasible_batch(free, pairs).all()
        mask = mask_of_cells([(4,)], (9,))
        assert detection_feasible_batch(mask, pairs).tolist() == [
            False, True, True, True
        ]

    def test_faulty_endpoint_raises_like_per_pair(self):
        from repro.core.detection import detection_feasible_batch

        mask = np.zeros((4, 4), dtype=bool)
        mask[1, 1] = True
        with pytest.raises(ValueError):
            detection_feasible_batch(mask, [((1, 1), (3, 3))])

    def test_empty_batch(self):
        from repro.core.detection import detection_feasible_batch

        out = detection_feasible_batch(np.zeros((3, 3), dtype=bool), [])
        assert out.shape == (0,)


class TestOffMeshEndpoints:
    """Both forms reject an off-mesh endpoint before reading the mask.

    numpy reads a negative index from the far end of an axis, so an
    unchecked (2, -1) would read an empty segment and call the pair
    feasible, and (-1, 0) would read the fault at (4, 0).
    """

    MASK = mask_of_cells([(4, 0)], (5, 5))

    @pytest.mark.parametrize(
        "source, dest",
        [((2, -1), (2, 3)), ((-1, 0), (3, 3)), ((2, 0), (2, 7))],
    )
    def test_per_pair(self, source, dest):
        with pytest.raises(OffMeshError) as info:
            detection_feasible(self.MASK, source, dest)
        assert type(info.value) is OffMeshError

    def test_batch(self):
        from repro.core.detection import detection_feasible_batch

        with pytest.raises(OffMeshError) as info:
            detection_feasible_batch(self.MASK, [((2, -1), (2, 3))])
        assert type(info.value) is OffMeshError
