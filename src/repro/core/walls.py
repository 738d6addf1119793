"""Boundary walls with chain merging (Algorithm 2 step 3, Algorithm 5 step 4).

A wall for MCC ``M`` and dimension ``dim`` carries the (chain-merged)
forbidden region ``Q_dim`` and ``M``'s critical region ``Q'_dim`` along
the cells from which a routing could step into the forbidden region.

Both regions are closed within each *column* — the cells that share
every coordinate except ``dim``.  A negative shadow holds every cell
below the shadowing cell of its column, so a union of shadows does too,
and a positive shadow holds every cell above.  A wall therefore stores
one height per column instead of grid masks:

* ``tops[p]`` — the merged forbidden region is ``coord[dim] < tops[p]``
  (the depth of the highest chain-member cell in column ``p``, 0 if
  none: a shadow is strict);
* ``bottoms[p]`` — the critical region is ``coord[dim] >= bottoms[p]``
  (one past the owner's lowest cell, the axis length if none).

Entry cells for an entry axis ``a ≠ dim`` are the cells just outside
the forbidden region whose ``+a`` neighbour is inside it: in column
``p`` the depths ``tops[p] <= depth < tops[p + e_a]``.  Safe entry cells
are the wall's *record cells* — the distributed protocol deposits its
boundary records exactly there.  Its ``WALL`` message carries the same
``tops`` as a column map per plane; its ``bottoms`` map holds the lowest
cells themselves, one below the heights here.

Chain merging reproduces the paper's boundary joining: when the wall of
``M`` runs into another MCC ``M'`` (``M'`` occupies an entry cell), the
wall continues along ``M'``'s boundary and the forbidden regions merge
(``Q(M) := Q(M) ∪ Q(M')``), which on heights is a column-wise maximum.
:func:`build_walls` runs that fixpoint for every MCC of one dimension
at once; each round tests the current merged region, and the chain
lists the owner first, then each round's new obstructors in ascending
order.  The critical region stays the owner's — chains extend the
forbidden side only (Algorithm 5 step 4: "merge Q_Y(v) into Q_Y(u)").

``records`` is derived from the heights on each read, as read-only
masks; the point queries (:meth:`Wall.blocks`, :meth:`Wall.in_critical`)
read the heights directly and reject off-mesh coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.components import MCCSet
from repro.core.labelling import _shifted_blocked
from repro.util.validation import check_shape_member


def _read_only(mask: np.ndarray) -> np.ndarray:
    """Derived masks are fresh arrays; freeze them like cached ones."""
    mask.setflags(write=False)
    return mask


@dataclass(frozen=True)
class Wall:
    """The merged boundary information of one (MCC, dimension) pair.

    ``tops`` and ``bottoms`` are column-height arrays over the mesh
    shape without ``dim`` (see the module docstring); ``safe`` is the
    class's safe mask, one array shared by every wall of a build;
    ``chain`` lists the MCC indices merged into the forbidden region
    (starting with the owner).
    """

    mcc_index: int
    dim: int
    tops: np.ndarray
    bottoms: np.ndarray
    safe: np.ndarray = field(repr=False)
    chain: tuple[int, ...]

    def _depths(self) -> np.ndarray:
        """Every cell's ``dim`` coordinate, shaped to broadcast."""
        shape = [1] * self.safe.ndim
        shape[self.dim] = self.safe.shape[self.dim]
        return np.arange(shape[self.dim]).reshape(shape)

    def _column(self, heights: np.ndarray) -> np.ndarray:
        return np.expand_dims(heights, self.dim)

    @property
    def records(self) -> dict[int, np.ndarray]:
        """Entry axis -> read-only mask of the safe cells holding a record."""
        depths = self._depths()
        outside = depths >= self._column(self.tops)
        out = {}
        for axis in range(self.safe.ndim):
            if axis != self.dim:
                ahead = _shifted_blocked(self.tops, axis - (axis > self.dim), 1)
                entry = outside & (depths < self._column(ahead))
                out[axis] = _read_only(entry & self.safe)
        return out

    def _locate(self, name: str, coord: Sequence[int]) -> tuple[tuple[int, ...], int]:
        """(column, depth) of an on-mesh coordinate."""
        coord = tuple(int(c) for c in coord)
        check_shape_member(name, coord, self.safe.shape)
        return coord[: self.dim] + coord[self.dim + 1 :], coord[self.dim]

    def in_critical(self, dest: Sequence[int]) -> bool:
        """True when ``dest`` lies in the owner's critical region."""
        column, depth = self._locate("dest", dest)
        return bool(depth >= self.bottoms[column])

    def blocks(self, source: Sequence[int], dest: Sequence[int]) -> bool:
        """Lemma 1's witness: ``source`` in the merged Q, ``dest`` in Q'."""
        s_column, s_depth = self._locate("source", source)
        return self.in_critical(dest) and bool(s_depth < self.tops[s_column])


def _ranges(first: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The concatenated ranges ``[first[i], first[i] + sizes[i])``."""
    ends = np.cumsum(sizes)
    total = ends[-1] if ends.size else 0
    return np.arange(total) + np.repeat(first - ends + sizes, sizes)


def _chain_heights(
    labels: np.ndarray, count: int, dim: int
) -> tuple[np.ndarray, np.ndarray, list[tuple[int, ...]]]:
    """Merged tops, owner bottoms and chains of every MCC along ``dim``.

    Heights come back as ``(count, *column_shape)`` arrays, one row per
    owner ``1..count``.  Every MCC's own heights are one scatter over the
    unsafe cells; the chain fixpoint then runs on heights for all owners
    at once, re-testing only owners whose merged region grew last round.
    """
    depth_size = labels.shape[dim]
    column_shape = labels.shape[:dim] + labels.shape[dim + 1 :]
    columns = math.prod(column_shape)
    grid = np.moveaxis(labels, dim, -1).reshape(columns, depth_size)
    cols, depths = np.nonzero(grid)
    # Sorted keys: a depth interval of one column is one searchsorted span.
    cells = cols * depth_size + depths
    members = grid[cols, depths].astype(np.intp)
    heights = depths.astype(np.min_scalar_type(depth_size))
    slot = (members - 1) * columns + cols
    bottoms = np.full(count * columns, depth_size, heights.dtype)
    np.minimum.at(bottoms, slot, heights + 1)
    merged = np.zeros(count * columns, heights.dtype)
    np.maximum.at(merged, slot, heights)
    by_member = np.argsort(members, kind="stable")
    member_size = np.bincount(members, minlength=count + 1)
    member_first = np.cumsum(member_size) - member_size

    chains = [[owner] for owner in range(1, count + 1)]
    width = count + 1  # pair key: owner * width + obstructor
    owners = np.arange(1, count + 1)
    in_chain = owners * width + owners
    # A 1-D mesh has no entry axis, so nothing ever obstructs.
    active = np.arange(count if column_shape else 0)
    while active.size:
        # Obstructors: unsafe cells at depths [tops(p), tops(p + e_a)).
        here = merged.reshape((count, *column_shape))[active]
        flat_here = here.reshape(active.size, columns)
        found = []
        for axis in range(1, here.ndim):
            ahead = _shifted_blocked(here, axis, 1).reshape(active.size, columns)
            rows, at = np.nonzero(flat_here < ahead)
            base = at * depth_size
            first = np.searchsorted(cells, base + flat_here[rows, at])
            sizes = np.searchsorted(cells, base + ahead[rows, at]) - first
            hit = members[_ranges(first, sizes)]
            found.append(np.repeat(active[rows] + 1, sizes) * width + hit)
        new = np.unique(np.concatenate(found))
        new = new[~np.isin(new, in_chain)]
        if not new.size:
            break
        in_chain = np.concatenate([in_chain, new])
        pair_owners, obstructors = np.divmod(new, width)
        pairs = zip(pair_owners.tolist(), obstructors.tolist(), strict=True)
        for owner, obstructor in pairs:
            chains[owner - 1].append(obstructor)
        # Merge: scatter each new member's cells into its owner's row.
        sizes = member_size[obstructors]
        cell = by_member[_ranges(member_first[obstructors], sizes)]
        target = np.repeat(pair_owners - 1, sizes) * columns + cols[cell]
        active = np.unique(target[heights[cell] > merged[target]] // columns)
        np.maximum.at(merged, target, heights[cell])
    shape = (count, *column_shape)
    return merged.reshape(shape), bottoms.reshape(shape), [tuple(c) for c in chains]


def build_walls(mccs: MCCSet) -> list[Wall]:
    """All walls (one per MCC per dimension) with merged regions.

    Walls whose forbidden region is empty (the MCC hugs the mesh floor
    along ``dim`` everywhere) are still returned — their record masks are
    empty and they never guard anything — so callers can index walls as
    ``mcc_count × ndim`` deterministically.
    """
    labels = mccs.labels
    if not len(mccs):
        return []
    safe = mccs.labelled.safe_mask
    per_dim = [_chain_heights(labels, len(mccs), dim) for dim in range(labels.ndim)]
    return [
        Wall(
            mcc_index=mcc.index,
            dim=dim,
            tops=tops[row, ...],
            bottoms=bottoms[row, ...],
            safe=safe,
            chain=chains[row],
        )
        for row, mcc in enumerate(mccs)
        for dim, (tops, bottoms, chains) in enumerate(per_dim)
    ]
