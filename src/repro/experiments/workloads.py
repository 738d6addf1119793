"""Workload generators: fault patterns and routing pairs.

The paper's simulation injects random node faults into 3-D meshes and
measures region overhead and minimal-routing success over random
source/destination pairs.  Generators here cover that plus the
clustered-fault variant used by ablation A3 (faults in real machines
correlate spatially — a failed power rail or cooling zone).
"""

from __future__ import annotations

import numpy as np

from repro.mesh.coords import manhattan
from repro.util.caching import LRUCache, mask_digest
from repro.util.rng import SeedLike, make_rng, sample_distinct
from repro.util.validation import check_fault_count

#: Bound on cached cell tables.  Callers draw all of a mask's pairs
#: before they move to the next mask, so a few entries cover every
#: revisit; a table is the mask's true cells, ``ndim`` ints per cell.
CELL_TABLE_SIZE = 4

_CELL_TABLES: LRUCache[bytes, np.ndarray] = LRUCache(CELL_TABLE_SIZE)


def random_fault_mask(
    shape: tuple[int, ...], count: int, rng: SeedLike = None
) -> np.ndarray:
    """Uniform random node faults: ``count`` distinct cells."""
    rng = make_rng(rng)
    check_fault_count(shape, count)
    mask = np.zeros(shape, dtype=bool)
    mask.flat[sample_distinct(rng, mask.size, count)] = True
    return mask


def clustered_fault_mask(
    shape: tuple[int, ...],
    count: int,
    clusters: int = 3,
    spread: float = 1.5,
    rng: SeedLike = None,
) -> np.ndarray:
    """Spatially clustered faults: Gaussian blobs around random centers."""
    rng = make_rng(rng)
    check_fault_count(shape, count)
    centers = [
        tuple(int(rng.integers(0, k)) for k in shape) for _ in range(max(1, clusters))
    ]
    mask = np.zeros(shape, dtype=bool)
    placed = 0
    attempts = 0
    while placed < count:
        attempts += 1
        if attempts > 200 * count + 1000:
            raise RuntimeError("clustered fault generation did not converge")
        center = centers[int(rng.integers(len(centers)))]
        coord = tuple(
            int(np.clip(round(rng.normal(c, spread)), 0, k - 1))
            for c, k in zip(center, shape, strict=True)
        )
        if mask[coord]:
            continue
        mask[coord] = True
        placed += 1
    return mask


def sample_safe_pair(
    safe_mask: np.ndarray,
    rng: SeedLike = None,
    min_distance: int = 1,
    max_tries: int = 2000,
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """A random (source, dest) pair of safe nodes at distance >= minimum.

    Returns None when no pair is found (degenerate masks) — callers
    skip the trial rather than bias the statistics.  The safe cells come
    from :func:`_cell_table`, so repeated draws from one mask (or from
    fresh copies of it) find its cells once.
    """
    rng = make_rng(rng)
    cells = _cell_table(safe_mask)
    if cells.shape[0] < 2:
        return None
    for _ in range(max_tries):
        i, j = rng.integers(0, cells.shape[0], size=2)
        a = tuple(cells[i].tolist())
        b = tuple(cells[j].tolist())
        if manhattan(a, b) >= min_distance:
            return a, b
    return None


def _cell_table(mask: np.ndarray) -> np.ndarray:
    """``np.argwhere(mask)``, read-only and shared by masks of equal content.

    Keyed by :func:`~repro.util.caching.mask_digest` (shape and cell
    values), so a caller that passes a fresh ``~mask`` per draw still
    hits; the cells keep ``argwhere``'s row-major order.
    """
    key = mask_digest(mask)
    cells = _CELL_TABLES.get(key)
    if cells is None:
        cells = np.argwhere(mask)
        cells.setflags(write=False)
        _CELL_TABLES.put(key, cells)
    return cells
