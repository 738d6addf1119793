"""Axis-aligned region primitives: boxes and node-set masks.

``Box`` is the closed integer box [lo, hi] per axis — the shape of the
paper's RMP (region of minimal paths), of rectangular faulty blocks, and
of the segments/surfaces in Theorems 1 and 2 (the notation
``[0:xd, yd:yd, 0:zd]`` is exactly a degenerate Box).  It is a plain
value type: each MCC's bounding box and the online RFB dirty box are
Boxes, but region algebra runs on boolean masks (see
:mod:`repro.baselines.rfb`), so Box keeps only membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class Box:
    """Closed integer box: lo[i] <= x[i] <= hi[i] on every axis."""

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise ValueError("lo and hi must have the same dimension")
        for lo, hi in zip(self.lo, self.hi, strict=True):
            if lo > hi:
                raise ValueError(f"empty box: lo {self.lo} > hi {self.hi}")

    def contains(self, coord: Sequence[int]) -> bool:
        return len(coord) == len(self.lo) and all(
            lo <= c <= hi for c, lo, hi in zip(coord, self.lo, self.hi, strict=True)
        )

    def __repr__(self) -> str:
        spans = ", ".join(f"{lo}:{hi}" for lo, hi in zip(self.lo, self.hi, strict=True))
        return f"Box[{spans}]"


def mask_of_cells(cells: Sequence[Sequence[int]], shape: Sequence[int]) -> np.ndarray:
    """Boolean grid with True exactly at ``cells``."""
    out = np.zeros(tuple(shape), dtype=bool)
    if len(cells):
        arr = np.asarray(list(cells), dtype=np.int64)
        out[tuple(arr.T)] = True
    return out

