"""Unit tests for coordinate primitives and single-hop steps."""

import pytest

from repro.mesh.coords import is_monotone_path, manhattan
from repro.mesh.topology import Mesh


class TestStepAndDistance:
    def test_step_positive(self):
        assert Mesh((3, 4, 5)).step((1, 2, 3), 2, 1) == (1, 2, 4)

    def test_step_negative(self):
        assert Mesh((3, 4)).step((1, 2), 0, -1) == (0, 2)

    def test_manhattan_matches_paper_definition(self):
        # D(u, v) = |xv-xu| + |yv-yu| + |zv-zu| (Section 2)
        assert manhattan((0, 0, 0), (3, 4, 5)) == 12
        assert manhattan((2, 2), (2, 2)) == 0

    def test_manhattan_dimension_mismatch(self):
        with pytest.raises(ValueError):
            manhattan((0, 0), (0, 0, 0))

    def test_neighbors_interior_degree_2n(self):
        # interior node degree 2n (Section 2)
        assert len(Mesh((3, 3, 3)).neighbors((1, 1, 1))) == 6

    def test_neighbors_corner_degree_n(self):
        assert len(Mesh((3, 3, 3)).neighbors((0, 0, 0))) == 3


class TestMonotonePath:
    def test_monotone(self):
        assert is_monotone_path([(0, 0), (1, 0), (1, 1), (2, 1)])

    def test_non_monotone_backstep(self):
        assert not is_monotone_path([(0, 0), (1, 0), (0, 0)])

    def test_non_monotone_jump(self):
        assert not is_monotone_path([(0, 0), (2, 0)])

    def test_trivial(self):
        assert is_monotone_path([(3, 3)])
