"""Ring-walk primitives: wall-following around a fault region.

The identification process walks messages along the *edge ring* of an
MCC — the safe nodes 8-adjacent to the region (edge nodes plus outer
corner nodes).  A clockwise walker keeps the region on its right, a
counter-clockwise walker on its left; both are classical wall-followers
specialized to grid rings.

All functions are pure and plane-generic: a *plane* is an (axis_u,
axis_v) pair, so the same walker identifies 2-D MCCs (axes (0, 1)) and
the XY/XZ/YZ sections of 3-D MCCs (Algorithm 5 step 1).  A step reads
the passable neighbors from a caller-supplied map, so the walker can be
driven either by the true grid (tests) or by strictly node-local
knowledge inside the protocol, where a node probes its in-plane
neighbors once per action and hands the result over.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.mesh.coords import Coord

# Headings are (du, dv) unit steps within the plane.
_CW_ORDER = {  # right-hand follower: right, straight, left, back
    (0, 1): [(1, 0), (0, 1), (-1, 0), (0, -1)],
    (1, 0): [(0, -1), (1, 0), (0, 1), (-1, 0)],
    (0, -1): [(-1, 0), (0, -1), (1, 0), (0, 1)],
    (-1, 0): [(0, 1), (-1, 0), (0, -1), (1, 0)],
}
_CCW_ORDER = {  # left-hand follower: left, straight, right, back
    (0, 1): [(-1, 0), (0, 1), (1, 0), (0, -1)],
    (-1, 0): [(0, -1), (-1, 0), (0, 1), (1, 0)],
    (0, -1): [(1, 0), (0, -1), (-1, 0), (0, 1)],
    (1, 0): [(0, 1), (1, 0), (0, -1), (-1, 0)],
}


def plane_step(
    coord: Sequence[int], axis_u: int, axis_v: int, du: int, dv: int
) -> Coord:
    """Move within the plane; other coordinates stay fixed."""
    out = list(coord)
    out[axis_u] += du
    out[axis_v] += dv
    return tuple(out)


def ring_step(
    heading: tuple[int, int],
    clockwise: bool,
    passable: Mapping[tuple[int, int], Coord],
) -> tuple[Coord, tuple[int, int]] | None:
    """One wall-following step; None when boxed in.

    ``passable`` maps each in-plane direction ``(du, dv)`` whose
    neighbor is safe and in the mesh to that neighbor.  Returns the next
    cell and the new heading.
    """
    for direction in (_CW_ORDER if clockwise else _CCW_ORDER)[heading]:
        cell = passable.get(direction)
        if cell is not None:
            return cell, direction
    return None


def initial_heading(clockwise: bool) -> tuple[int, int]:
    """First move out of the initialization corner.

    The paper sends the clockwise message to the +v edge neighbor (up
    the low-u side) and the counter-clockwise message to the +u edge
    neighbor (along the low-v side).
    """
    return (0, 1) if clockwise else (1, 0)


def fill_interior(
    chain_cells: set[tuple[int, int]],
    corner_uv: tuple[int, int],
    bounds: tuple[int, int] | None = None,
    closed: bool = True,
) -> set[tuple[int, int]]:
    """Region enclosed by a ring (or a border-broken chain) of ring cells.

    Floods the chain's inflated bounding box — clipped to ``bounds``
    (mesh extents in the plane) when given — from cells provably outside
    the region.  Cells the flood cannot reach, minus the chain itself,
    are the enclosed region.

    For a ``closed`` ring every non-chain cell on the clipped box
    perimeter is outside.  For a border-broken chain (``closed=False``)
    the region itself reaches the mesh border, so only the cells
    diagonally below-left of the initialization corner are trusted; when
    the corner hugs the mesh origin and none exist, the caller discards
    the section (the paper's discard semantics).
    """
    if not chain_cells:
        return set()
    us = [c[0] for c in chain_cells]
    vs = [c[1] for c in chain_cells]
    lo_u, hi_u = min(us) - 1, max(us) + 1
    lo_v, hi_v = min(vs) - 1, max(vs) + 1
    if bounds is not None:
        lo_u, hi_u = max(lo_u, 0), min(hi_u, bounds[0] - 1)
        lo_v, hi_v = max(lo_v, 0), min(hi_v, bounds[1] - 1)
    cu, cv = corner_uv
    seeds = [
        (u, v)
        for u, v in ((cu - 1, cv), (cu, cv - 1), (cu - 1, cv - 1))
        if lo_u <= u <= hi_u and lo_v <= v <= hi_v and (u, v) not in chain_cells
    ]
    if closed:
        for u in range(lo_u, hi_u + 1):
            for v in (lo_v, hi_v):
                if (u, v) not in chain_cells:
                    seeds.append((u, v))
        for v in range(lo_v, hi_v + 1):
            for u in (lo_u, hi_u):
                if (u, v) not in chain_cells:
                    seeds.append((u, v))
    if not seeds:
        return set()
    outside: set[tuple[int, int]] = set(seeds)
    stack = list(seeds)
    while stack:
        u, v = stack.pop()
        for du, dv in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nu, nv = u + du, v + dv
            if not (lo_u <= nu <= hi_u and lo_v <= nv <= hi_v):
                continue
            if (nu, nv) in outside or (nu, nv) in chain_cells:
                continue
            outside.add((nu, nv))
            stack.append((nu, nv))
    region: set[tuple[int, int]] = set()
    for u in range(lo_u, hi_u + 1):
        for v in range(lo_v, hi_v + 1):
            if (u, v) not in outside and (u, v) not in chain_cells:
                region.add((u, v))
    return region


def column_tops(cells: Iterable[tuple[int, int]]) -> dict[int, int]:
    """Per-column max height of ``(column, height)`` pairs.

    The forbidden-region encoding of a plane region: a cell is in the
    region's negative shadow along the height axis iff its height is
    below ``tops[column]``.
    """
    tops: dict[int, int] = {}
    for col, height in cells:
        tops[col] = max(tops.get(col, height), height)
    return tops


def column_bottoms(cells: Iterable[tuple[int, int]]) -> dict[int, int]:
    """Per-column min height of ``(column, height)`` pairs.

    The critical-region encoding: a cell is in the region's positive
    shadow iff its height is above ``bottoms[column]``.
    """
    bottoms: dict[int, int] = {}
    for col, height in cells:
        bottoms[col] = min(bottoms.get(col, height), height)
    return bottoms
