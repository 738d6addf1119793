"""k-ary n-dimensional mesh topology.

Section 2 of the paper: a k-ary n-D mesh has k^n nodes, interior degree
2n, diameter (k-1)·n; nodes along each dimension form a linear array.
``Mesh`` supports per-axis extents (k need not be uniform) because the
experiments sweep rectangular meshes too.

Adjacency is one table per shape (:func:`adjacency_table`), built on
first use and shared by every :class:`Mesh` of that shape — the DES
network and the protocol handlers step through the same rows.
"""

from __future__ import annotations

import functools
import itertools
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.mesh.coords import Coord
from repro.util.validation import check_positive, check_shape_member

#: Mesh shapes whose adjacency tables stay cached.  A table holds one
#: row of 2n neighbor slots per node (about 0.7 MiB for 16³); a process
#: simulates a handful of shapes, so the bound only stops callers that
#: cycle through many shapes from growing memory.
ADJACENCY_CACHE_SIZE = 8

#: One node's neighbors along +axis0, -axis0, +axis1, ... (None at a face).
Row = tuple[Coord | None, ...]


@functools.lru_cache(maxsize=ADJACENCY_CACHE_SIZE)
def adjacency_table(shape: tuple[int, ...]) -> Mapping[Coord, Row]:
    """The read-only neighbor table of the mesh with extents ``shape``.

    Maps every node to its :data:`Row`: the neighbor along ``(axis,
    sign)`` sits in slot ``2 * axis + (sign < 0)``.  Rows reuse the
    table's key tuples, and the slot order is the order in which the
    protocols send to their neighbors, so it fixes the order of
    equal-time DES events.
    """
    nodes = {c: c for c in itertools.product(*(range(k) for k in shape))}
    return MappingProxyType({
        c: tuple(
            nodes.get(c[:axis] + (c[axis] + sign,) + c[axis + 1:])
            for axis in range(len(shape))
            for sign in (1, -1)
        )
        for c in nodes
    })


class Mesh:
    """An n-dimensional mesh with extents ``shape`` (one per axis)."""

    def __init__(self, shape: Sequence[int]):
        shape = tuple(int(k) for k in shape)
        if not shape:
            raise ValueError("mesh needs at least one dimension")
        for k in shape:
            check_positive("mesh extent", k)
        self.shape: tuple[int, ...] = shape
        self.ndim: int = len(shape)

    # -- basic queries ---------------------------------------------------

    @property
    def size(self) -> int:
        """Total number of nodes (k^n for the uniform case)."""
        return int(np.prod(self.shape))

    @functools.cached_property
    def adjacency(self) -> Mapping[Coord, Row]:
        """This shape's shared neighbor table (see :func:`adjacency_table`)."""
        return adjacency_table(self.shape)

    def contains(self, coord: Sequence[int]) -> bool:
        """True iff ``coord`` addresses a node of this mesh."""
        try:
            return coord in self.adjacency
        except TypeError:  # an unhashable sequence, e.g. a list
            return tuple(coord) in self.adjacency

    def require(self, coord: Sequence[int], name: str = "coord") -> Coord:
        """Validate and canonicalize a node address."""
        check_shape_member(name, coord, self.shape)
        return tuple(int(c) for c in coord)

    # -- iteration -------------------------------------------------------

    def nodes(self) -> Iterator[Coord]:
        """Iterate over all node addresses in C (row-major) order."""
        return itertools.product(*(range(k) for k in self.shape))

    def neighbors(self, coord: Sequence[int]) -> list[Coord]:
        """In-mesh neighbors of ``coord``, in table row order."""
        try:
            row = self.adjacency[coord]
        except (KeyError, TypeError):
            row = self.adjacency[self.require(coord)]
        return [n for n in row if n is not None]

    def step(self, coord: Coord, axis: int, sign: int) -> Coord | None:
        """The neighbor one hop along ``axis`` (``sign`` ±1), None at a face.

        Unvalidated hot-path lookup: ``coord`` must be a node of this
        mesh (a KeyError otherwise).
        """
        return self.adjacency[coord][2 * axis + (sign < 0)]

    # -- arrays ----------------------------------------------------------

    def zeros(self, dtype=np.int8) -> np.ndarray:
        """A node-indexed array of zeros with this mesh's shape."""
        return np.zeros(self.shape, dtype=dtype)

    def full(self, value, dtype=None) -> np.ndarray:
        """A node-indexed array filled with ``value``."""
        return np.full(self.shape, value, dtype=dtype)

    # -- misc --------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Mesh) and self.shape == other.shape

    def __hash__(self) -> int:
        return hash(("Mesh", self.shape))

    def __getstate__(self) -> dict:
        # The shared table is not picklable; a copy re-fetches it on use.
        return {k: v for k, v in self.__dict__.items() if k != "adjacency"}

    def __repr__(self) -> str:
        return f"{type(self).__name__}(shape={self.shape})"


class Mesh2D(Mesh):
    """Convenience 2-D mesh: ``Mesh2D(kx, ky)``."""

    def __init__(self, kx: int, ky: int | None = None):
        super().__init__((kx, ky if ky is not None else kx))


class Mesh3D(Mesh):
    """Convenience 3-D mesh: ``Mesh3D(kx, ky, kz)``."""

    def __init__(self, kx: int, ky: int | None = None, kz: int | None = None):
        if (ky is None) != (kz is None):
            raise ValueError("give either one extent (cubic) or all three")
        if ky is None:
            ky = kz = kx
        super().__init__((kx, ky, kz))
