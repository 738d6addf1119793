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
