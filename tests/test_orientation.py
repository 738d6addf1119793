"""Unit + property tests for direction-class orientation algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh.orientation import Orientation
from tests.conftest import all_classes


class TestConstruction:
    def test_identity(self):
        o = Orientation.identity((4, 5))
        assert o.signs == (1, 1)

    def test_for_pair_signs(self):
        o = Orientation.for_pair((3, 3), (1, 5), (8, 8))
        assert o.signs == (-1, 1)

    def test_for_pair_equal_axis_defaults_positive(self):
        o = Orientation.for_pair((3, 3), (3, 5), (8, 8))
        assert o.signs == (1, 1)

    def test_invalid_signs(self):
        with pytest.raises(ValueError):
            Orientation((0, 1), (4, 4))
        with pytest.raises(ValueError):
            Orientation((1,), (4, 4))


class TestGridViews:
    def test_flip_is_view_not_copy(self):
        grid = np.arange(16).reshape(4, 4)
        o = Orientation((-1, 1), (4, 4))
        flipped = o.to_canonical(grid)
        assert flipped.base is grid or flipped.base is grid.base

    def test_involution(self, rng):
        grid = rng.integers(0, 9, size=(4, 5, 6))
        for o in all_classes((4, 5, 6)):
            assert np.array_equal(o.to_canonical(o.to_canonical(grid)), grid)

    def test_shape_mismatch_rejected(self):
        o = Orientation.identity((4, 4))
        with pytest.raises(ValueError):
            o.to_canonical(np.zeros((3, 3)))


class TestCoordMapping:
    def test_map_matches_grid_flip(self, rng):
        grid = rng.integers(0, 100, size=(5, 6))
        for o in all_classes((5, 6)):
            canon = o.to_canonical(grid)
            for coord in [(0, 0), (4, 5), (2, 3)]:
                assert canon[o.map_coord(coord)] == grid[coord]

    @given(
        sx=st.sampled_from([-1, 1]),
        sy=st.sampled_from([-1, 1]),
        sz=st.sampled_from([-1, 1]),
        coord=st.tuples(
            st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_map_unmap_involution(self, sx, sy, sz, coord):
        o = Orientation((sx, sy, sz), (6, 6, 6))
        assert o.map_coord(o.map_coord(coord)) == coord

    def test_pair_becomes_canonical(self, rng):
        for _ in range(30):
            s = tuple(int(v) for v in rng.integers(0, 7, 3))
            d = tuple(int(v) for v in rng.integers(0, 7, 3))
            o = Orientation.for_pair(s, d, (7, 7, 7))
            ms, md = o.map_coord(s), o.map_coord(d)
            assert all(a <= b for a, b in zip(ms, md, strict=True))
