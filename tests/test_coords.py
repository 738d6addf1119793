"""Unit tests for coordinate primitives and single-hop steps."""

from typing import Sequence

import pytest

from repro.mesh.coords import manhattan
from repro.mesh.topology import Mesh


def is_monotone_path(path: Sequence[Sequence[int]]) -> bool:
    """True iff every hop of ``path`` moves by +1 along some axis.

    In the canonical orientation a *minimal* path from s to d (d
    component-wise >= s) is exactly a monotone path; this predicate backs
    the routers' minimality assertions.
    """
    for a, b in zip(path, path[1:], strict=False):
        diffs = [y - x for x, y in zip(a, b, strict=True)]
        nonzero = [d for d in diffs if d != 0]
        if len(nonzero) != 1 or nonzero[0] != 1:
            return False
    return True


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
