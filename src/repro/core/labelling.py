"""Unsafe-node labelling: Algorithm 1 (2-D), Algorithm 4 (3-D), any n.

Status codes
------------
``SAFE`` (0), ``FAULTY`` (1), ``USELESS`` (2), ``CANT_REACH`` (3).

The rules, for the canonical all-positive direction class:

* a safe node becomes USELESS when *every* positive-axis neighbor exists
  in the mesh and is faulty-or-useless (Algorithm 1 step 2 / Algorithm 4
  step 2);
* a safe node becomes CANT_REACH when every negative-axis neighbor
  exists and is faulty-or-can't-reach (step 3);
* repeat to a fixed point (step 4).

Mesh borders do **not** count as blocking (DESIGN.md interpretation 1):
otherwise the origin corner would be labelled can't-reach in every
fault-free mesh.  With this rule the key invariants hold (and are
property-tested in ``tests/test_minimality.py``):

* a USELESS node u ≠ d cannot appear on any monotone path that ends at
  a safe destination d — all its onward moves lead to useless nodes
  forever;
* a CANT_REACH node u ≠ s cannot be entered by any monotone path that
  starts at a safe source s.

Implementation: a numpy fixed-point sweep.  Each iteration shifts the
blocked mask along every axis and combines with logical AND — O(n · N)
per iteration, at most O(diameter) iterations; grids up to 100³ label in
milliseconds (HPC guide: vectorize the inner loops, keep memory flat).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import obs
from repro.mesh.orientation import Orientation

SAFE: int = 0
FAULTY: int = 1
USELESS: int = 2
CANT_REACH: int = 3

STATUS_NAMES = {SAFE: "safe", FAULTY: "faulty", USELESS: "useless", CANT_REACH: "cant-reach"}


def _shifted_blocked(blocked: np.ndarray, axis: int, sign: int) -> np.ndarray:
    """Blocked-status of each node's neighbor along (axis, sign).

    The one-cell shift ``out[i] = blocked[i + sign]`` along ``axis``,
    for any boolean grid (or the column heights of
    :mod:`repro.core.walls`).  Nodes whose neighbor falls outside the
    mesh get ``False``, or 0 (mesh borders are not blocking).
    """
    out = np.zeros_like(blocked)
    src = [slice(None)] * blocked.ndim
    dst = [slice(None)] * blocked.ndim
    if sign > 0:
        # neighbor at +1: out[..., i, ...] = blocked[..., i+1, ...]
        src[axis] = slice(1, None)
        dst[axis] = slice(None, -1)
    else:
        src[axis] = slice(None, -1)
        dst[axis] = slice(1, None)
    out[tuple(dst)] = blocked[tuple(src)]
    return out


def _fixed_point(
    blocked: np.ndarray, sign: int, core: np.ndarray | None = None
) -> int:
    """Run one labelling rule to its fixed point, in place.

    ``sign=+1`` is the USELESS rule (every positive neighbor blocked),
    ``sign=-1`` the CANT_REACH rule.  ``blocked`` holds the faults plus
    the nodes labelled so far; with ``core``, only its cells may
    change.  Returns the number of newly blocked cells.
    """
    ndim = blocked.ndim
    changed = 0
    while True:
        neigh = _shifted_blocked(blocked, 0, sign)
        for axis in range(1, ndim):
            neigh &= _shifted_blocked(blocked, axis, sign)
        # Only not-yet-blocked nodes can change; count them and update
        # in place rather than allocating a fresh mask per sweep.
        neigh &= ~blocked
        if core is not None:
            neigh &= core
        new = np.count_nonzero(neigh)
        if new == 0:
            return changed
        changed += new
        blocked |= neigh


def closure(fault_mask: np.ndarray, sign: int) -> np.ndarray:
    """The full blocked mask of one labelling rule over the whole mesh.

    The faults plus the nodes the rule labels: USELESS for ``sign=+1``,
    CANT_REACH for ``sign=-1``.  A fresh array; ``fault_mask`` is only
    read.
    """
    blocked = np.array(fault_mask, dtype=bool)
    _fixed_point(blocked, sign)
    return blocked


def closure_region(
    blocked: np.ndarray,
    sign: int,
    lo: Sequence[int],
    hi: Sequence[int],
) -> int:
    """Run one labelling rule to its fixed point inside a dirty box.

    ``blocked`` is the *full* blocked mask of one closure (faults plus
    already-labelled nodes) and is updated **in place**; only cells in
    the inclusive box ``[lo, hi]`` may change, cells outside are frozen
    and only read as neighbor values.  Returns the number of newly
    blocked cells.

    Soundness (the dirty-region argument used by
    :class:`repro.online.DynamicFaultModel`): the closure operator is
    monotone, so iterating it from any seed between the generators
    (faults) and the true least fixed point converges to that fixed
    point.  When every cell that can still change lies inside the box —
    e.g. after injecting faults ``P``, a newly blocked cell of the
    ``sign=+1`` closure has a monotone increasing chain of newly blocked
    cells ending at some ``f`` in ``P``, hence sits in ``[0, max(P)]`` —
    the restricted sweep computes exactly the full closure.  The box is
    extended one layer along the neighbor direction so border cells read
    real frozen values; the mesh border itself stays non-blocking.
    """
    ndim = blocked.ndim
    lo = tuple(int(c) for c in lo)
    hi = tuple(int(c) for c in hi)
    if any(a > b for a, b in zip(lo, hi, strict=True)):
        return 0
    with obs.span(
        "closure_region", cat="kernel", sign=sign, lo=list(lo), hi=list(hi)
    ) as sp:
        # Extend one layer toward the neighbor side (clipped to the mesh) so
        # core cells at the box face read true frozen values instead of the
        # border rule; the extra layer itself is never written.
        if sign > 0:
            ext = tuple(
                slice(a, min(b + 2, k))
                for a, b, k in zip(lo, hi, blocked.shape, strict=True)
            )
        else:
            ext = tuple(slice(max(a - 1, 0), b + 1) for a, b in zip(lo, hi, strict=True))
        view = blocked[ext]
        core = np.ones(view.shape, dtype=bool)
        for axis in range(ndim):
            span = hi[axis] - lo[axis] + 1
            idx = [slice(None)] * ndim
            if sign > 0:
                idx[axis] = slice(span, None)
            else:
                idx[axis] = slice(None, view.shape[axis] - span)
            core[tuple(idx)] = False
        changed = _fixed_point(view, sign, core)
        sp.set(changed=changed)
    return changed


@dataclass(frozen=True)
class LabelledGrid:
    """The outcome of the labelling procedure, in the canonical frame.

    ``status`` holds SAFE/FAULTY/USELESS/CANT_REACH per node; the
    convenience masks are views derived once.  ``orientation`` records the
    direction class so that callers can map coordinates back to the mesh
    frame.
    """

    status: np.ndarray
    orientation: Orientation

    @property
    def fault_mask(self) -> np.ndarray:
        return self.status == FAULTY

    @property
    def unsafe_mask(self) -> np.ndarray:
        """Faulty or useless or can't-reach (the MCC node set)."""
        return self.status != SAFE

    @property
    def open_mask(self) -> np.ndarray:
        """Neither faulty nor useless: the cells reach masks flood through."""
        return (self.status != FAULTY) & (self.status != USELESS)

    @property
    def safe_mask(self) -> np.ndarray:
        return self.status == SAFE

    @property
    def shape(self) -> tuple[int, ...]:
        return self.status.shape

    def counts(self) -> dict[str, int]:
        """Node counts per status (reporting helper)."""
        return {
            name: int((self.status == code).sum())
            for code, name in STATUS_NAMES.items()
        }


def label_grid(
    fault_mask: np.ndarray, orientation: Orientation | None = None
) -> LabelledGrid:
    """Run the labelling procedure for one direction class.

    ``fault_mask`` is in mesh-frame coordinates; the returned
    :class:`LabelledGrid` is in the *canonical* frame of ``orientation``
    (identity by default).  A node that satisfies both rules (useless and
    can't-reach) is reported as USELESS — either way it is unsafe, and
    the tie is impossible for non-degenerate meshes larger than 1 per
    axis except through faults on both sides.
    """
    if orientation is None:
        orientation = Orientation.identity(fault_mask.shape)
    faults = orientation.to_canonical(np.asarray(fault_mask, dtype=bool))
    status = compose_status(faults, closure(faults, +1), closure(faults, -1))
    return LabelledGrid(status=status, orientation=orientation)


def compose_status(
    faults: np.ndarray, useless_blocked: np.ndarray, cant_blocked: np.ndarray
) -> np.ndarray:
    """The status grid of one direction class from its two closures.

    ``useless_blocked``/``cant_blocked`` are the faults plus the USELESS
    / CANT_REACH nodes (:func:`closure`).  A node in both is USELESS
    (see :func:`label_grid`); faults are FAULTY.
    """
    status = np.zeros(faults.shape, dtype=np.int8)
    status[cant_blocked] = CANT_REACH
    status[useless_blocked] = USELESS
    status[faults] = FAULTY
    return status


def unsafe_mask(fault_mask: np.ndarray) -> np.ndarray:
    """Shorthand: canonical-class unsafe mask for a fault mask."""
    return label_grid(np.asarray(fault_mask, dtype=bool)).unsafe_mask
