"""Orientation algebra of the direction classes (quadrants/octants).

The MCC labelling (Algorithms 1 and 4) is written for routings whose
destination lies in the all-positive quadrant/octant relative to the
source.  For any other source/destination pair the same machinery applies
after reflecting the mesh along the axes where the destination lies on
the negative side.  ``Orientation`` encapsulates those reflections:

* ``to_canonical(grid)`` — a *view* (numpy flip, zero-copy) of a
  node-indexed array such that the routing direction becomes all-+;
  flips are involutions, so the same call maps back;
* coordinate mappings for points.

There are 2^n orientations in an n-D mesh (4 quadrant classes in 2-D,
8 octant classes in 3-D), exactly the paper's direction classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.mesh.coords import Coord


@dataclass(frozen=True)
class Orientation:
    """Reflection signs per axis: +1 keeps an axis, -1 flips it."""

    signs: tuple[int, ...]
    shape: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.signs) != len(self.shape):
            raise ValueError("signs and shape must have equal length")
        for s in self.signs:
            if s not in (-1, 1):
                raise ValueError(f"orientation signs must be ±1, got {s}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(shape: Sequence[int]) -> "Orientation":
        return Orientation((1,) * len(shape), tuple(shape))

    @staticmethod
    def for_pair(
        source: Sequence[int], dest: Sequence[int], shape: Sequence[int]
    ) -> "Orientation":
        """Orientation that maps ``source -> dest`` into the all-+ class.

        Axes where ``dest`` and ``source`` coincide default to +1 (the
        degenerate axis never needs a move, so either class works; the
        labelling for the + class is conservative there).
        """
        signs = tuple(
            -1 if d < s else 1 for s, d in zip(source, dest, strict=True)
        )
        return Orientation(signs, tuple(shape))

    # -- grid views --------------------------------------------------------

    def _flip_axes(self) -> tuple[int, ...]:
        return tuple(a for a, s in enumerate(self.signs) if s < 0)

    def to_canonical(self, grid: np.ndarray) -> np.ndarray:
        """View of ``grid`` with flipped axes so routing heads all-+."""
        if grid.shape[: len(self.shape)] != self.shape:
            raise ValueError(
                f"grid shape {grid.shape} does not match mesh shape {self.shape}"
            )
        axes = self._flip_axes()
        return np.flip(grid, axis=axes) if axes else grid

    # -- point mappings ------------------------------------------------------

    def map_coord(self, coord: Sequence[int]) -> Coord:
        """Map a mesh coordinate into canonical-frame coordinates.

        Reflections are involutions, so the same call maps a canonical
        coordinate back to the mesh frame.
        """
        return tuple(
            (k - 1 - c) if s < 0 else c
            for c, s, k in zip(coord, self.signs, self.shape, strict=True)
        )

    def __repr__(self) -> str:
        pretty = "".join("+" if s > 0 else "-" for s in self.signs)
        return f"Orientation({pretty})"
