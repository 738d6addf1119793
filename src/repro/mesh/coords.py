"""Coordinate primitives for n-dimensional meshes.

Coordinates are plain tuples of ints so they hash cheaply and can index
numpy arrays directly.  Mesh adjacency lives in one place, the
per-shape table of :mod:`repro.mesh.topology`.
"""

from __future__ import annotations

from typing import Sequence

Coord = tuple[int, ...]


def manhattan(a: Sequence[int], b: Sequence[int]) -> int:
    """The paper's distance D(u, v) = sum of per-axis absolute deltas."""
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return sum(abs(x - y) for x, y in zip(a, b, strict=True))


def is_monotone_path(path: Sequence[Sequence[int]]) -> bool:
    """True iff every hop of ``path`` moves by +1 along some axis.

    In the canonical orientation a *minimal* path from s to d (d
    component-wise >= s) is exactly a monotone path; this predicate backs
    the router's minimality assertions.
    """
    for a, b in zip(path, path[1:], strict=False):
        diffs = [y - x for x, y in zip(a, b, strict=True)]
        nonzero = [d for d in diffs if d != 0]
        if len(nonzero) != 1 or nonzero[0] != 1:
            return False
    return True
