"""Ground-truth minimal-path oracle: monotone lattice reachability.

In the canonical direction class, a *minimal* path from ``s`` to ``d``
(component-wise ``s <= d``) is exactly a monotone lattice path: every hop
is +1 along some axis.  Minimal-path existence through a set of open
(non-blocked) nodes is therefore a DAG-reachability problem, solved here
by one dimension-generic wavefront kernel:

* cells are grouped into anti-diagonal *levels* (coordinate sum ``t``);
  every predecessor of a level-``t`` cell (one -1 step along some axis)
  lies on level ``t - 1``;
* a per-shape plan lists each level's cells and each cell's
  predecessors; off-grid predecessors point at a sentinel slot that is
  always False;
* a flood sweeps the levels upward from the lowest seeded one, one
  numpy gather-OR per level carrying the whole batch axis.

That is at most ``sum(k_i - 1) + 1`` numpy steps (3k-2 for a k³ mesh)
per batch of floods, in any dimension.

Every claim of the paper is validated against this module: the labelled
unsafe region must not change reachability (P1), Theorems 1/2 must agree
with it (P2), and the router must deliver whenever it says YES (P3).
"""

from __future__ import annotations

import bisect
import functools
import math
from typing import NamedTuple, Sequence

import numpy as np

from repro import obs
from repro.mesh.orientation import Orientation
from repro.util.validation import check_shape_member

#: Mesh shapes whose level plans stay cached.  A plan holds ndim + 3
#: indices per cell (192 KiB for 16³); a process floods a handful of
#: shapes (the mesh, a degenerate slice of it), so the bound only stops
#: callers that cycle through many shapes from growing memory.
PLAN_CACHE_SIZE = 8


class _LevelPlan(NamedTuple):
    """Index tables of the wavefront sweep for one mesh shape.

    The flood state is stored in *level order*: cells sorted by level,
    so level ``t`` occupies the contiguous rows
    ``offsets[t]:offsets[t + 1]``, and row N (the cell count) is the
    sentinel.
    """

    order: np.ndarray  # level-order row -> C-order flat index
    inverse: np.ndarray  # C-order flat index -> level-order row
    offsets: tuple[int, ...]
    # (ndim + 1, N): per level-order row, the row itself, then the row of
    # its predecessor along each axis (N, the sentinel, when off-grid).
    gather: np.ndarray


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _level_plan(shape: tuple[int, ...]) -> _LevelPlan:
    """Build (once per cached shape) the level plan of ``shape``."""
    n = math.prod(shape)
    coords = np.indices(shape).reshape(len(shape), n)
    level = coords.sum(axis=0)
    order = np.argsort(level, kind="stable")
    flat = np.arange(n)
    inverse = np.empty(n + 1, dtype=np.intp)
    inverse[order] = flat
    inverse[n] = n
    gather = np.empty((len(shape) + 1, n), dtype=np.intp)
    gather[0] = flat
    for axis in range(len(shape)):
        stride = math.prod(shape[axis + 1 :])
        pred = np.where(coords[axis] > 0, flat - stride, n)
        gather[axis + 1] = inverse[pred[order]]
    offsets = (0, *np.cumsum(np.bincount(level)).tolist())
    inverse = inverse[:n]
    for table in (order, inverse, gather):
        table.setflags(write=False)
    return _LevelPlan(order, inverse, offsets, gather)


def monotone_flood_many(open_mask: np.ndarray, seed_masks: np.ndarray) -> np.ndarray:
    """Batched monotone flood: one open mask, many seed masks.

    ``seed_masks`` has shape (B, *open_mask.shape); the result marks, per
    batch entry, the cells reachable from that entry's seeds.  Every
    level step of the wavefront carries the batch axis, so the Python
    loop runs once per level for B floods — the kernel behind every
    flood in this module and the batch routing service's grouped reverse
    floods.
    """
    open_mask = np.asarray(open_mask, dtype=bool)
    seed_masks = np.asarray(seed_masks, dtype=bool)
    if seed_masks.shape[1:] != open_mask.shape:
        raise ValueError(
            f"seed batch shape {seed_masks.shape} must be (B, *{open_mask.shape})"
        )
    batch, n = seed_masks.shape[0], open_mask.size
    with obs.span(
        "monotone_flood_many", cat="kernel", batch=batch, shape=list(open_mask.shape),
    ):
        hits = np.flatnonzero(seed_masks)
        if hits.size == 0:
            return np.zeros_like(seed_masks)
        order, inverse, offsets, gather = _level_plan(open_mask.shape)
        entries, cells = np.divmod(hits, n)
        seeded = inverse[cells]
        state = np.zeros((n + 1, batch), dtype=bool)  # row n: the sentinel
        state[seeded, entries] = True
        # Levels below the lowest seeded one stay False: start there.
        start = bisect.bisect_right(offsets, int(seeded.min())) - 1
        lo = offsets[start]
        # A closed cell gathers only the sentinel, so the OR below is
        # also the AND with the open mask (closed seeds included).
        rows = np.where(open_mask.reshape(n)[order[lo:]], gather[:, lo:], n)
        for t in range(start, len(offsets) - 1):
            a, b = offsets[t], offsets[t + 1]
            np.logical_or.reduce(
                state[rows[:, a - lo : b - lo]], axis=0, out=state[a:b]
            )
        return state[inverse].T.reshape(seed_masks.shape)


def monotone_flood(open_mask: np.ndarray, seed_mask: np.ndarray) -> np.ndarray:
    """Cells reachable from any seed via monotone (+1 per hop) moves.

    Seeds must themselves be open to be reachable.  Works for any
    dimension; the batch-of-one case of :func:`monotone_flood_many`.
    """
    open_mask = np.asarray(open_mask, dtype=bool)
    seed_mask = np.asarray(seed_mask, dtype=bool)
    if open_mask.shape != seed_mask.shape:
        raise ValueError("open and seed masks must share a shape")
    return monotone_flood_many(open_mask, seed_mask[np.newaxis])[0]


def _seed_at(shape: Sequence[int], coord: Sequence[int], name: str) -> np.ndarray:
    check_shape_member(name, coord, shape)
    seed = np.zeros(tuple(shape), dtype=bool)
    seed[tuple(coord)] = True
    return seed


def forward_reachable(open_mask: np.ndarray, source: Sequence[int]) -> np.ndarray:
    """Cells reachable from ``source`` by monotone moves through open cells."""
    return monotone_flood(open_mask, _seed_at(open_mask.shape, source, "source"))


def reverse_reachable(open_mask: np.ndarray, dest: Sequence[int]) -> np.ndarray:
    """Cells from which ``dest`` is monotonically reachable.

    The batch-of-one case of :func:`reverse_reachable_many`.
    """
    return reverse_reachable_many(open_mask, [dest])[0]


def reverse_reachable_many(
    open_mask: np.ndarray, dests: Sequence[Sequence[int]]
) -> np.ndarray:
    """Stacked :func:`reverse_reachable` masks, one per destination.

    Returns shape (len(dests), *open_mask.shape).  Computed by flipping
    every axis and flooding forward from the flipped destinations in one
    batch.
    """
    open_mask = np.asarray(open_mask, dtype=bool)
    axes = tuple(range(open_mask.ndim))
    flipped_open = np.flip(open_mask, axis=axes)
    seeds = np.zeros((len(dests),) + open_mask.shape, dtype=bool)
    for b, dest in enumerate(dests):
        check_shape_member("dest", dest, open_mask.shape)
        seeds[b][tuple(k - 1 - c for c, k in zip(dest, open_mask.shape, strict=True))] = True
    flooded = monotone_flood_many(flipped_open, seeds)
    return np.flip(flooded, axis=tuple(a + 1 for a in axes))


#: Destinations per batched reverse-flood call in :func:`probe_reverse_reachable`
#: (bounds the transient stacked-mask memory, chunk x mesh bools).
PROBE_CHUNK = 64


def group_jobs_by_class(pairs, shape):
    """Group mesh-frame pairs by direction class as canonical probe jobs.

    Yields ``(orientation, jobs)`` per direction class touched, where
    ``jobs`` is a list of ``(index, canonical_source, canonical_dest)``
    ready for :func:`probe_reverse_reachable` — ``index`` is the pair's
    position in ``pairs``.  The shared front half of every batched
    reachability consumer (detection pass, fidelity records): one class
    grouping + coordinate mapping, then each caller picks its own open
    masks per class.
    """
    by_class: dict[tuple[int, ...], list[int]] = {}
    for i, (source, dest) in enumerate(pairs):
        signs = Orientation.for_pair(source, dest, shape).signs
        by_class.setdefault(signs, []).append(i)
    for signs, members in by_class.items():
        orientation = Orientation(signs, tuple(shape))
        yield orientation, [
            (
                i,
                orientation.map_coord(pairs[i][0]),
                orientation.map_coord(pairs[i][1]),
            )
            for i in members
        ]


def probe_reverse_reachable(
    open_mask: np.ndarray,
    jobs: Sequence[tuple[int, Sequence[int], Sequence[int]]],
    out: np.ndarray,
    keep: dict | None = None,
    chunk: int = PROBE_CHUNK,
) -> None:
    """Scatter reverse-reachability verdicts for many canonical pairs.

    ``jobs`` is a list of ``(index, source, dest)`` in the canonical
    frame of ``open_mask``; for each job, ``out[index]`` is set to
    whether ``dest`` is monotonically reachable from ``source`` through
    open cells.  Jobs are grouped by destination and flooded through
    :func:`reverse_reachable_many` in chunks, so the cost is one
    batched DP per ``chunk`` distinct destinations instead of one flood
    per pair — the shared kernel behind the batched detection pass and
    the fidelity experiment's oracle records.  With ``keep`` given, the
    per-destination reach masks are stored there keyed by destination.
    """
    by_dest: dict[tuple[int, ...], list] = {}
    for index, source, dest in jobs:
        by_dest.setdefault(tuple(dest), []).append((index, tuple(source)))
    dests = list(by_dest)
    for start in range(0, len(dests), chunk):
        block = dests[start : start + chunk]
        stacked = reverse_reachable_many(open_mask, block)
        for dest, reach in zip(block, stacked, strict=True):
            for index, source in by_dest[dest]:
                out[index] = bool(reach[source])
            if keep is not None:
                keep[dest] = reach


def minimal_path_exists(
    open_mask: np.ndarray, source: Sequence[int], dest: Sequence[int]
) -> bool:
    """True iff a monotone path source -> dest exists through open cells.

    ``source`` must be component-wise <= ``dest`` (canonical frame); use
    :class:`repro.mesh.orientation.Orientation` first for other classes.
    The whole mask is flooded from ``source``: a monotone path into
    ``dest`` never leaves the RMP box, so the answer is the box's, and
    the flood reuses the mesh shape's cached plan instead of building one
    per box shape.
    """
    source = tuple(int(c) for c in source)
    dest = tuple(int(c) for c in dest)
    check_shape_member("source", source, open_mask.shape)
    check_shape_member("dest", dest, open_mask.shape)
    if any(s > d for s, d in zip(source, dest, strict=True)):
        raise ValueError(
            f"oracle requires canonical frame (source {source} <= dest {dest})"
        )
    return bool(forward_reachable(open_mask, source)[dest])
