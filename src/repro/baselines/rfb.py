"""The rectangular faulty block (RFB) model — the paper's baseline.

The conventional fault region (Wu [8]; Boppana & Chalasani; Su & Shin):

1. *Local closure*: a non-faulty node becomes unsafe when it has
   faulty/unsafe neighbors along at least two **different dimensions**
   (either sign).  Iterate to a fixed point — this glues diagonal fault
   clusters exactly like the classic node-labelling schemes.
2. *Block formation*: each connected unsafe component is expanded to its
   bounding rectangle (2-D) / cuboid (3-D).
3. *Block merging*: overlapping or face/corner-adjacent blocks (within
   Chebyshev distance 1) merge into their joint bounding box, repeated
   until all blocks are pairwise disjoint and separated — the standard
   "disjoint rectangular faulty blocks" the literature assumes.

Steps 2–3 are one mask kernel, :func:`_fill_blocks`: label the blocked
cells with full 3ⁿ connectivity, fill each component's bounding box,
and repeat until nothing changes.  Two boxes within Chebyshev distance
1 always share a 3ⁿ component, and a fixed point's components are boxes
at distance >= 2 from each other, so the fixed point is exactly step
3's pairwise-separated block set (``tests/test_rfb.py`` checks it
against the pairwise rule).  Blocks are bounding boxes of mesh cells,
so they never leave the mesh.

Compared with the MCC model, RFB regions swallow many more non-faulty
nodes (the whole point of the paper; experiment T1) and consequently
declare fewer source/destination pairs minimally routable (T2).

``variant="local"`` skips steps 2–3 for the ablation A1.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from repro.core.labelling import LabelledGrid, _shifted_blocked, compose_status
from repro.core.model_cache import cached_mesh_status
from repro.mesh.orientation import Orientation
from repro.mesh.regions import Box


def _local_closure(fault_mask: np.ndarray) -> np.ndarray:
    """Fixed point of the two-different-dimensions rule; includes faults."""
    blocked = fault_mask.copy()
    while True:
        axes_hit = np.zeros(fault_mask.shape, dtype=np.int8)
        for axis in range(fault_mask.ndim):
            hit = _shifted_blocked(blocked, axis, 1)
            hit |= _shifted_blocked(blocked, axis, -1)
            axes_hit += hit
        new_blocked = blocked | (axes_hit >= 2)
        if np.array_equal(new_blocked, blocked):
            return blocked
        blocked = new_blocked


def _fill_blocks(blocked: np.ndarray) -> np.ndarray:
    """Steps 2–3: fill each 3ⁿ component's bounding box until stable."""
    structure = ndimage.generate_binary_structure(blocked.ndim, blocked.ndim)
    while True:
        labels, _ = ndimage.label(blocked, structure=structure)
        filled = np.zeros_like(blocked)
        for slc in ndimage.find_objects(labels):
            filled[slc] = True
        if np.array_equal(filled, blocked):
            return filled
        blocked = filled


def rfb_unsafe(fault_mask: np.ndarray, variant: str = "block") -> np.ndarray:
    """Boolean mask of all nodes inside rectangular faulty blocks.

    ``variant="block"`` is the canonical model; ``variant="local"`` stops
    after the local closure (ablation A1).
    """
    fault_mask = np.asarray(fault_mask, dtype=bool)
    if variant == "local":
        return _local_closure(fault_mask)
    if variant != "block":
        raise ValueError(f"unknown RFB variant {variant!r}")
    return _fill_blocks(_local_closure(fault_mask))


def _rfb_status(fault_mask: np.ndarray) -> np.ndarray:
    """Mesh-frame status grid: FAULTY faults, USELESS other block members.

    A block blocks both labelling rules, and USELESS wins the tie.
    """
    unsafe = rfb_unsafe(fault_mask)
    return compose_status(fault_mask, unsafe, unsafe)


class DynamicRFBState:
    """Incrementally maintained RFB region over a mutating fault mask.

    The online counterpart of :func:`rfb_unsafe` (the baseline analog of
    the MCC model's :class:`repro.online.dynamic_model.DynamicFaultModel`):
    ``unsafe`` and its complement ``open`` are mesh-frame arrays mutated
    **in place**, so the online router's class models alias them (per
    direction class via orientation views, as :func:`rfb_labelled`
    shares one frozen grid per mask: RFB regions are
    direction-independent).

    :meth:`apply` is a **block-local recompute**.  Its region is the
    fill rule seeded with the event: the component of
    ``_fill_blocks(unsafe | event box)`` that holds the event's bounding
    box, i.e. the event box plus every block within Chebyshev distance
    1 of it, transitively.  Each block left outside is at distance >= 2
    from that region, and the region's fresh blocks are bounding boxes
    of its own faults, so they stay inside it: neither side can touch
    the other, and ``rfb_unsafe`` of the cropped faults is the
    from-scratch result there.  Above ``FULL_RECOMPUTE_FRACTION`` of the
    mesh the region is the whole mesh.  Byte-identity with a
    from-scratch :func:`rfb_unsafe` of the current mask is
    property-tested in ``tests/test_rfb.py``.
    """

    #: Region fraction of the mesh above which a from-scratch recompute
    #: is simpler than the cropped one (same asymptotics at that size).
    FULL_RECOMPUTE_FRACTION = 0.5

    def __init__(self, fault_mask: np.ndarray):
        self.fault_mask = fault_mask  # live alias; owner mutates in place
        self.shape = tuple(fault_mask.shape)
        self.unsafe = np.zeros(self.shape, dtype=bool)
        self.open = np.ones(self.shape, dtype=bool)
        self._recompute(tuple(slice(0, k) for k in self.shape))

    def _recompute(self, region: tuple[slice, ...]) -> np.ndarray:
        """From-scratch RFB of the faults in ``region``, written in place.

        Returns the cells (region-relative) whose unsafe bit changed.
        """
        new = rfb_unsafe(self.fault_mask[region])
        changed = np.argwhere(self.unsafe[region] != new)
        self.unsafe[region] = new
        self.open[region] = ~new
        return changed

    def apply(self, cells, kind: str) -> tuple[Box | None, int, bool]:
        """Recompute after ``cells`` changed state (mask already mutated).

        Returns ``(dirty, swept, full)``: the bounding box of the cells
        whose *unsafe* status changed (``None`` when the region is
        unchanged — e.g. faults appearing inside an existing block), the
        number of cells swept by the recompute, and whether the
        full-recompute fallback ran.
        """
        cells = [tuple(int(v) for v in c) for c in cells]
        if kind == "inject" and all(self.unsafe[c] for c in cells):
            # New faults strictly inside existing blocks: the closure
            # and the block set are unchanged.
            return None, 0, False
        lo, hi = np.min(cells, axis=0), np.max(cells, axis=0)
        seeded = self.unsafe.copy()
        seeded[tuple(slice(a, b + 1) for a, b in zip(lo, hi, strict=True))] = True
        labels, _ = ndimage.label(_fill_blocks(seeded))
        region = ndimage.find_objects(labels)[labels[cells[0]] - 1]
        swept = int(np.prod([s.stop - s.start for s in region]))
        full = swept > self.FULL_RECOMPUTE_FRACTION * self.fault_mask.size
        if full:
            region = tuple(slice(0, k) for k in self.shape)
            # T6r's cost column counts a full recompute as two mesh sweeps.
            swept = 2 * self.fault_mask.size
        changed = self._recompute(region)
        dirty = None
        if len(changed):
            offset = np.array([s.start for s in region])
            dirty = Box(
                tuple(int(v) for v in changed.min(axis=0) + offset),
                tuple(int(v) for v in changed.max(axis=0) + offset),
            )
        return dirty, swept, full


def rfb_labelled(
    fault_mask: np.ndarray,
    orientation: Orientation | None = None,
) -> LabelledGrid:
    """Present the RFB region as a :class:`LabelledGrid`.

    Non-faulty block members get status USELESS, so the baseline reads
    like an MCC labelling (routing takes its ``unsafe_mask`` and
    ``open_mask``) — only the regions differ.
    RFB regions are direction-independent: the mask's mesh-frame status
    is computed once per mask content
    (:func:`~repro.core.model_cache.cached_mesh_status`), and each
    class's grid is a read-only orientation view of it.
    """
    fault_mask = np.asarray(fault_mask, dtype=bool)
    if orientation is None:
        orientation = Orientation.identity(fault_mask.shape)
    status = cached_mesh_status(fault_mask, _rfb_status, kind="rfb")
    return LabelledGrid(
        status=orientation.to_canonical(status), orientation=orientation
    )
