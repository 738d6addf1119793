"""Content-addressed reuse of canonical-class labellings.

A single T5 pattern is labelled by three consumers
(``ConditionEvaluator``'s endpoint check, its mcc routing service, and
the detection pass), and T7 reads a pattern's safe mask before its mcc
service labels the same class.  This module keys the expensive
per-class derivations by **fault-mask content**
(:func:`repro.util.caching.mask_digest`), so a consumer that meets a
(pattern, class, model-kind) combination already labelled anywhere in
the process skips the work.  In ``run_all("paper", workers=1)`` the
hits come from those two tiers and from T2's RFB class views of one
mesh-frame grid (DESIGN.md "Cross-pattern labelling reuse").

Three kinds of entry share one bounded LRU:

* :func:`cached_labelled` — just the :class:`LabelledGrid` fixed point
  (what the condition evaluator and the detection pass read);
* :func:`cached_class_assets` — labelled grid + extracted MCCs + walls
  (what a static mcc routing service builds; it reads only the
  labelling);
* :func:`cached_mesh_status` — one mesh-frame status grid per mask for
  a direction-independent model (RFB): every class's labelling is an
  orientation view of it, so the model runs once per mask, not once per
  class, and an RFB class builds no MCCs or walls.

Cached arrays are frozen (``writeable=False``): every consumer treats
model state as immutable, and the flag turns an accidental in-place
mutation — which would silently corrupt *other* patterns' results —
into an immediate error.  The online dynamic-fault subsystem
(:mod:`repro.online`) deliberately bypasses this cache: it mutates its
label arrays in place per epoch.  Routing services are not cached:
every pattern builds its own (:func:`repro.service.make_service`).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.components import MCCSet, extract_mccs
from repro.core.labelling import LabelledGrid, label_grid
from repro.core.walls import Wall, build_walls
from repro.mesh.orientation import Orientation
from repro.util.caching import LRUCache, mask_digest

#: Bound on cached (pattern, class, kind) entries.  A labelling entry
#: is one int8 status grid; an assets entry adds the MCC label grid and
#: cell lists, one shared safe mask, and two column-height arrays per
#: wall; an RFB mask takes one mesh-frame grid entry.  64 holds a 3-D
#: pattern's 16 mcc entries (8 classes, a labelling and an assets entry
#: each) and its RFB entry without pinning unbounded sweeps.
DEFAULT_LABELLING_CACHE_SIZE = 64

LABELLING_CACHE: LRUCache[tuple, tuple] = LRUCache(DEFAULT_LABELLING_CACHE_SIZE)


def _freeze(labelled: LabelledGrid) -> LabelledGrid:
    labelled.status.setflags(write=False)
    return labelled


def _freeze_assets(mccs: MCCSet, walls: list[Wall]) -> None:
    """Pin every array a cached (labelled, mccs, walls) entry exposes.

    Consumers hold these for the lifetime of a pattern; an in-place
    write through any of them would corrupt *other* callers' results
    for the same mask digest.  ``DynamicFaultModel``
    (:mod:`repro.online.dynamic_model`) is the one sanctioned
    mutable-alias holder — it never goes through this cache, building
    its own label arrays so it can relabel in place per epoch.
    """
    mccs.labels.setflags(write=False)
    for mcc in mccs.mccs:
        mcc.cells.setflags(write=False)
    for wall in walls:
        wall.tops.setflags(write=False)
        wall.bottoms.setflags(write=False)
        wall.safe.setflags(write=False)


def _resolve_orientation(
    fault_mask: np.ndarray, orientation: Orientation | None
) -> Orientation:
    if orientation is None:
        return Orientation.identity(fault_mask.shape)
    return orientation


def cached_labelled(
    fault_mask: np.ndarray,
    orientation: Orientation | None = None,
    labeller: Callable[..., LabelledGrid] = label_grid,
    kind: str = "mcc",
    digest: bytes | None = None,
) -> LabelledGrid:
    """The class labelling for a mask, reused across patterns by content.

    ``digest`` lets callers that label many classes of one mask hash it
    once; omitted, it is computed here.  ``kind`` namespaces different
    labellers ("mcc", "rfb", ...) so their entries never collide.
    ``orientation`` defaults to the identity class, matching
    :func:`~repro.core.labelling.label_grid`.
    """
    orientation = _resolve_orientation(fault_mask, orientation)
    if digest is None:
        digest = mask_digest(fault_mask)
    key = (digest, orientation.signs, kind, "labelled")
    hit = LABELLING_CACHE.get(key)
    if hit is not None:
        return hit[0]
    labelled = _freeze(labeller(fault_mask, orientation))
    LABELLING_CACHE.put(key, (labelled,))
    return labelled


def cached_class_assets(
    fault_mask: np.ndarray,
    orientation: Orientation | None = None,
    labeller: Callable[..., LabelledGrid] = label_grid,
    kind: str = "mcc",
    digest: bytes | None = None,
) -> tuple[LabelledGrid, MCCSet, list[Wall]]:
    """Labelled grid + MCCs + walls for one (pattern, class, kind).

    The heavy trio the router and condition evaluator both need; the
    labelled grid is shared with :func:`cached_labelled` entries via the
    same digest, so mixed consumers still label once.
    """
    orientation = _resolve_orientation(fault_mask, orientation)
    if digest is None:
        digest = mask_digest(fault_mask)
    key = (digest, orientation.signs, kind, "assets")
    hit = LABELLING_CACHE.get(key)
    if hit is not None:
        return hit
    labelled = cached_labelled(
        fault_mask, orientation, labeller=labeller, kind=kind, digest=digest
    )
    mccs = extract_mccs(labelled)
    walls = build_walls(mccs)
    _freeze_assets(mccs, walls)
    assets = (labelled, mccs, walls)
    LABELLING_CACHE.put(key, assets)
    return assets


def cached_mesh_status(
    fault_mask: np.ndarray,
    model: Callable[[np.ndarray], np.ndarray],
    kind: str,
) -> np.ndarray:
    """``model(fault_mask)``, a mesh-frame status grid, once per mask content.

    For fault models whose regions do not depend on the direction class
    (RFB): each class labelling is a read-only orientation view of this
    one frozen grid, not a copy.  ``kind`` namespaces the models.
    """
    key = (mask_digest(fault_mask), kind, "mesh")
    hit = LABELLING_CACHE.get(key)
    if hit is not None:
        return hit[0]
    status = model(fault_mask)
    status.setflags(write=False)
    LABELLING_CACHE.put(key, (status,))
    return status


def clear_labelling_cache() -> None:
    """Drop every cached entry of all three kinds (tests, memory pressure)."""
    LABELLING_CACHE.clear()
