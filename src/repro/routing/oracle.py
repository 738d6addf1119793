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
  always 0;
* a batch of floods is bit-packed: bit ``b`` of a cell's ``uint64``
  state word is batch entry ``b``'s flood, and bit ``b`` of the cell's
  open word comes from entry ``b``'s own open mask, so entries with
  different open masks (different direction classes) share one sweep;
* a sweep runs the levels upward from the lowest seeded one: one
  gather, one OR-reduce and one AND with the level's open words per
  level.  A batch wider than :data:`WORD_BITS` sweeps once per word.

That is at most ``sum(k_i - 1) + 1`` level steps (3k-2 for a k³ mesh)
per word of floods, in any dimension.

Batched pair verdicts reach the kernel by one path: the batch
decomposition of :class:`repro.routing.batch.RoutingService`, which
floods the reach-cache misses of up to :data:`WORD_BITS` (class,
destination) groups per call through ``engine.prime_reach``.  Routing,
the sweeps, detection and the fidelity experiment all batch through it.

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
from repro.util.validation import check_shape_member

#: Mesh shapes whose level plans stay cached.  A plan holds ndim + 3
#: indices per cell (192 KiB for 16³); a process floods a handful of
#: shapes (the mesh, a degenerate slice of it), so the bound only stops
#: callers that cycle through many shapes from growing memory.
PLAN_CACHE_SIZE = 8

#: Floods per sweep: the bits of one ``uint64`` state word.  Batched
#: callers chunk their destinations by it, so a chunk is one sweep.
WORD_BITS = 64


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
    # Per level t, an (ndim + 1, width) table: for each of the level's
    # rows, the row itself, then the row of its predecessor along each
    # axis (N, the sentinel, when off-grid).  One contiguous table per
    # level gathers about 1.5x faster than slices of a shared one.
    gathers: tuple[np.ndarray, ...]


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
    gathers = tuple(
        np.ascontiguousarray(gather[:, a:b])
        for a, b in zip(offsets[:-1], offsets[1:], strict=True)
    )
    inverse = inverse[:n]
    for table in (order, inverse, *gathers):
        table.setflags(write=False)
    return _LevelPlan(order, inverse, offsets, gathers)


def _open_groups(
    open_mask, batch: int
) -> tuple[tuple[int, ...], list[tuple[np.ndarray, list[int]]]]:
    """The mesh shape, and ``(flat open mask, entries)`` per distinct mask.

    ``open_mask`` is one array shared by all ``batch`` entries, or a
    non-empty list or tuple of ``batch`` arrays, one per entry.  Entries
    that pass the same array object form one group, so a batch spanning
    a few direction classes packs its open words in a few vector
    operations.
    """
    if not isinstance(open_mask, (list, tuple)):
        open_mask = np.asarray(open_mask, dtype=bool)
        return open_mask.shape, [(open_mask.reshape(-1), list(range(batch)))]
    if len(open_mask) != batch:
        raise ValueError(
            f"{len(open_mask)} open masks for a batch of {batch}: pass one "
            "shared mask or one per entry"
        )
    if not open_mask:
        raise ValueError("an empty list of open masks names no mesh shape")
    shape = np.shape(open_mask[0])
    members: dict[int, list[int]] = {}
    for entry, mask in enumerate(open_mask):
        members.setdefault(id(mask), []).append(entry)
    groups = []
    for entries in members.values():
        mask = np.asarray(open_mask[entries[0]], dtype=bool)
        if mask.shape != shape:
            raise ValueError(f"open masks differ in shape: {mask.shape} vs {shape}")
        groups.append((mask.reshape(-1), entries))
    return shape, groups


def _unpack(words: np.ndarray, out: np.ndarray) -> None:
    """Write bit ``b`` of every word into row ``b`` of ``out`` (bool)."""
    if len(out) <= 8:
        # Below a byte, a test per bit beats unpackbits' per-cell cost.
        for bit, row in enumerate(out):
            np.not_equal(words & np.uint64(1 << bit), 0, out=row)
    else:
        octets = words.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
        bits = np.unpackbits(octets, axis=1, count=len(out), bitorder="little")
        out[:] = bits.view(bool).T


def _flood(
    shape: tuple[int, ...],
    groups: list[tuple[np.ndarray, list[int]]],
    entries: np.ndarray,
    cells: np.ndarray,
    out: np.ndarray,
) -> None:
    """The kernel behind every flood: bit-packed forward floods.

    ``out`` is the all-False ``(batch, N)`` result.  Row ``b`` receives
    the cells reachable by +1 steps through entry ``b``'s open cells
    from its seeds, which are the C-order flat ``cells[i]`` where
    ``entries[i] == b`` (``entries`` ascending).  ``groups`` pairs each
    flat open mask with its entries.
    """
    batch, n = out.shape
    with obs.span("monotone_flood_many", cat="kernel", batch=batch, shape=list(shape)):
        order, inverse, offsets, gathers = _level_plan(shape)
        rows = inverse[cells]
        for lo in range(0, batch, WORD_BITS):
            hi = min(batch, lo + WORD_BITS)
            first, last = entries.searchsorted((lo, hi)).tolist()
            if first == last:
                continue  # no seeds: the word's rows stay False
            state = np.zeros(n + 1, dtype=np.uint64)  # row n: the sentinel
            shifts = (entries[first:last] - lo).astype(np.uint64)
            seeds = np.left_shift(np.uint64(1), shifts)
            np.bitwise_or.at(state, rows[first:last], seeds)
            opened = np.zeros(n, dtype=np.uint64)
            for flat, members in groups:
                word_bits = sum(1 << (e - lo) for e in members if lo <= e < hi)
                if word_bits:
                    opened |= flat[order] * np.uint64(word_bits)
            # Levels below the lowest seeded one stay 0: start there.
            start = bisect.bisect_right(offsets, int(rows[first:last].min())) - 1
            for t in range(start, len(gathers)):
                a, b = offsets[t], offsets[t + 1]
                level = state[a:b]
                # A cell's own seed OR its predecessors, then its open bits.
                np.bitwise_or.reduce(state[gathers[t]], axis=0, out=level)
                level &= opened[a:b]
            _unpack(state[inverse], out[lo:hi])


def monotone_flood_many(open_mask, seed_masks: np.ndarray) -> np.ndarray:
    """Batched monotone flood, one seed mask per batch entry.

    ``seed_masks`` has shape (B, *mesh shape); the result marks, per
    batch entry, the cells reachable from that entry's seeds.
    ``open_mask`` is one mask shared by every entry, or a list or tuple
    of B masks, entry ``b`` flooding through its own.  Entries share
    each level step (see the module docstring), so the Python loop runs
    once per level for up to :data:`WORD_BITS` floods — the kernel
    behind every flood in this module and the batch routing service's
    grouped reverse floods.
    """
    seed_masks = np.asarray(seed_masks, dtype=bool)
    batch = seed_masks.shape[0]
    shape, groups = _open_groups(open_mask, batch)
    if seed_masks.shape[1:] != shape:
        raise ValueError(
            f"seed batch shape {seed_masks.shape} must be (B, *{shape})"
        )
    n = math.prod(shape)
    entries, cells = np.divmod(np.flatnonzero(seed_masks), n)
    out = np.zeros((batch, n), dtype=bool)
    _flood(shape, groups, entries, cells, out)
    return out.reshape(seed_masks.shape)


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


def reverse_reachable_many(open_mask, dests: Sequence[Sequence[int]]) -> np.ndarray:
    """Stacked :func:`reverse_reachable` masks, one per destination.

    ``open_mask`` is one mask shared by every destination, or a list or
    tuple with one mask per destination, so destinations of different
    direction classes flood in one call.  Returns shape
    (len(dests), *mesh shape).
    """
    shape, groups = _open_groups(open_mask, len(dests))
    n = math.prod(shape)
    strides = [math.prod(shape[axis + 1 :]) for axis in range(len(shape))]
    cells = np.empty(len(dests), dtype=np.intp)
    for b, dest in enumerate(dests):
        check_shape_member("dest", dest, shape)
        cells[b] = sum(int(c) * s for c, s in zip(dest, strides, strict=True))
    # A reverse flood is a forward flood of the mesh with every axis
    # flipped, and that flip maps C-order flat index i to n - 1 - i: the
    # kernel reads the masks, seeds and result rows back to front.
    out = np.zeros((len(dests), n), dtype=bool)
    flipped = [(flat[::-1], entries) for flat, entries in groups]
    _flood(shape, flipped, np.arange(len(dests)), n - 1 - cells, out[:, ::-1])
    return out.reshape((len(dests), *shape))


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
