"""Forbidden and critical regions (Q and Q') of fault regions.

For a region ``M`` and a dimension ``dim`` (canonical frame):

* the *forbidden region* ``Q_dim(M)`` is the shadow strictly on the
  negative side of ``M`` along ``dim``: cells whose remaining coordinates
  match some M-cell sitting strictly above them in ``dim`` ("the region
  right below it" in the paper's 2-D prose);
* the *critical region* ``Q'_dim(M)`` is the shadow strictly on the
  positive side ("the region right above it").

A routing whose destination lies in ``Q'_dim(M)`` must never enter
``Q_dim(M)``: it would have to cross ``M`` itself within the shadow
columns, forcing a detour.  Entry into a negative-side shadow is only
possible along the *other* axes (moving +dim inside a column only leaves
the shadow), which is why one wall per (dim, entry-axis) pair — the
paper's six boundary types in 3-D, two in 2-D — suffices to guard it.
"""

from __future__ import annotations

import numpy as np

from repro.core.labelling import _shifted_blocked


def negative_shadow(mask: np.ndarray, axis: int) -> np.ndarray:
    """Cells strictly below some mask cell along ``axis`` (Q_dim).

    Vectorized as a reversed running-OR along the axis, shifted by one so
    the region is strict (mask cells with nothing above are excluded).
    """
    rev = np.flip(mask, axis=axis)
    acc = np.logical_or.accumulate(rev, axis=axis)
    above_or_equal = np.flip(acc, axis=axis)
    return _shifted_blocked(above_or_equal, axis, 1)


def positive_shadow(mask: np.ndarray, axis: int) -> np.ndarray:
    """Cells strictly above some mask cell along ``axis`` (Q'_dim)."""
    acc = np.logical_or.accumulate(mask, axis=axis)
    return _shifted_blocked(acc, axis, -1)


def shadow_masks(mask: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """(forbidden, critical) = (Q_axis, Q'_axis) of a region mask."""
    return negative_shadow(mask, axis), positive_shadow(mask, axis)


def entry_cells(shadow: np.ndarray, entry_axis: int) -> np.ndarray:
    """Cells just outside ``shadow`` whose +entry_axis neighbor is inside.

    These are exactly the positions where the paper's boundaries place
    their information: a routing message can only step into the shadow
    from one of them (or start inside).  Includes unsafe cells — the
    safe ones are wall *records*, the unsafe ones wall *obstructions*
    (chain merging).  :mod:`repro.core.walls` finds the same cells from
    column heights; this mask form is the definition its tests check.
    """
    inside_ahead = _shifted_blocked(shadow, entry_axis, 1)
    return inside_ahead & ~shadow
