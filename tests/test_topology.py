"""Unit tests for the mesh topology and its shared adjacency table."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh.coords import manhattan
from repro.mesh.topology import Mesh, Mesh2D, Mesh3D
from repro.simkit.message import Message
from repro.simkit.network import MeshNetwork


class TestConstruction:
    def test_kn_nodes(self):
        # k-ary n-D mesh has k^n nodes (Section 2)
        assert Mesh3D(4).size == 64
        assert Mesh2D(5).size == 25

    def test_rectangular_extents(self):
        mesh = Mesh((2, 3, 4))
        assert mesh.size == 24
        assert mesh.shape == (2, 3, 4)

    def test_rejects_empty_or_nonpositive(self):
        with pytest.raises(ValueError):
            Mesh(())
        with pytest.raises(ValueError):
            Mesh((0, 3))

    def test_mesh3d_partial_extents_rejected(self):
        with pytest.raises(ValueError):
            Mesh3D(3, 4)

    def test_equality_and_hash(self):
        assert Mesh3D(4) == Mesh((4, 4, 4))
        assert hash(Mesh3D(4)) == hash(Mesh((4, 4, 4)))
        assert Mesh2D(4) != Mesh3D(4)

    def test_pickles_after_table_use(self):
        mesh = Mesh3D(3)
        assert mesh.contains((2, 2, 2))
        copy = pickle.loads(pickle.dumps(mesh))
        assert copy == mesh and copy.neighbors((0, 0, 0)) == mesh.neighbors((0, 0, 0))


class TestQueries:
    def test_contains(self):
        mesh = Mesh3D(3)
        assert mesh.contains((0, 0, 0))
        assert mesh.contains((2, 2, 2))
        assert not mesh.contains((3, 0, 0))
        assert not mesh.contains((0, -1, 0))
        assert not mesh.contains((0, 0))

    def test_degree(self):
        # interior degree 2n, less at faces (Section 2)
        mesh = Mesh3D(3)
        assert len(mesh.neighbors((1, 1, 1))) == 6
        assert len(mesh.neighbors((0, 0, 0))) == 3
        assert len(mesh.neighbors((0, 1, 1))) == 5

    def test_neighbors_linear_array_structure(self):
        # nodes along each dimension form a linear array (Section 2)
        mesh = Mesh((4, 1))
        assert mesh.neighbors((0, 0)) == [(1, 0)]
        assert set(mesh.neighbors((1, 0))) == {(2, 0), (0, 0)}

    def test_neighbor_along_direction(self):
        mesh = Mesh2D(4)
        assert mesh.step((1, 1), 0, 1) == (2, 1)
        assert mesh.step((3, 1), 0, 1) is None

    def test_require_validates(self):
        mesh = Mesh2D(4)
        with pytest.raises(IndexError):
            mesh.require((4, 0))
        with pytest.raises(ValueError):
            mesh.require((1, 1, 1))


class TestIndexing:
    def test_nodes_iteration_covers_all(self):
        mesh = Mesh((2, 3))
        nodes = list(mesh.nodes())
        assert len(nodes) == 6
        assert len(set(nodes)) == 6

    def test_array_helpers(self):
        mesh = Mesh2D(3)
        assert mesh.zeros().shape == (3, 3)
        assert mesh.full(7)[2, 2] == 7


class TestAdjacencyTable:
    """One property: the shared table is the coordinate definition."""

    @settings(max_examples=40, deadline=None)
    @given(shape=st.lists(st.integers(1, 3), min_size=1, max_size=4).map(tuple))
    def test_table_matches_coordinate_definition(self, shape):
        mesh = Mesh(shape)
        nodes = list(mesh.nodes())
        net = MeshNetwork(mesh, np.zeros(shape, dtype=bool))
        for a in nodes:
            nbrs = mesh.neighbors(a)
            # Adjacent iff exactly one coordinate differs, by 1.
            assert set(nbrs) == {b for b in nodes if manhattan(a, b) == 1}
            for b in [*nodes, None]:  # None: a face slot of the row
                if b is None or manhattan(a, b) != 1:  # self, diagonal, jump
                    with pytest.raises(ValueError):
                        net.transmit(Message("X", a, b))
            slots = []
            for axis, k in enumerate(shape):
                for sign in (1, -1):
                    c = a[axis] + sign
                    moved = a[:axis] + (c,) + a[axis + 1:]
                    want = moved if 0 <= c < k else None
                    assert mesh.step(a, axis, sign) == want
                    if want is None:
                        assert not mesh.contains(moved)  # negative / too large
                        with pytest.raises(ValueError):
                            net.transmit(Message("X", moved, a))
                    else:
                        slots.append(want)
            # Row order: +axis0, -axis0, +axis1, ...
            assert nbrs == slots
            assert mesh.contains(a) and mesh.contains(list(a))
            assert mesh.contains(tuple(np.int64(c) for c in a))
            assert not mesh.contains(a + (0,)) and not mesh.contains(a[:-1])
