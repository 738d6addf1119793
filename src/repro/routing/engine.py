"""Per-direction-class model state for adaptive minimal routing.

Routing a pair (Algorithm 3 / Algorithm 6 step 2) maps it into its
direction class, checks feasibility (Theorems 1–2), and at every hop
keeps the directions whose neighbour can still reach the destination;
:class:`repro.routing.batch.RoutingService` runs that procedure, one
pair or a batch at a time.  This module holds what it runs on:

* :class:`_ClassModel` — one direction class's two masks and its
  LRU-bounded per-destination reach masks (:data:`REACH_CACHE_SIZE`);
* :func:`class_model` — the model of a fault pattern's class under a
  mode ("mcc", "rfb", "oracle" or "blind");
* :func:`prime_reach` — fills many reach-cache misses in one kernel
  call;
* :class:`RouteResult` — the outcome of one routing attempt.

"mcc", "rfb" and "oracle" differ only in the fault model that decides
which nodes are permitted: "mcc" blocks faulty and useless nodes, "rfb"
whole rectangular faulty blocks, and "oracle" faulty nodes alone, so
its exclusion rule is exact reverse reachability — the reference the
MCC mode must match (property P3).  "blind" mode uses no model at all
(baseline).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.baselines.rfb import rfb_labelled
from repro.core.labelling import label_grid
from repro.core.model_cache import cached_class_assets
from repro.mesh.coords import Coord, manhattan
from repro.mesh.orientation import Orientation
from repro.routing.oracle import reverse_reachable, reverse_reachable_many
from repro.util.caching import LRUCache

#: Bound on cached per-destination reachability masks (per class),
#: read when a routing service is built.
REACH_CACHE_SIZE = 1024


@dataclass
class RouteResult:
    """Outcome of one routing attempt (mesh-frame coordinates).

    ``feasible`` is the fault-information model's verdict on minimal-path
    existence: True/False when a model ran its check, ``None`` when no
    check ever ran (blind mode failures — the model has no opinion).
    A delivered result always reports ``feasible=True``: the traversed
    path itself is the existence proof.
    """

    delivered: bool
    path: list[Coord]
    feasible: bool | None
    stuck_at: Coord | None = None
    reason: str = ""
    #: Fault-model epoch the verdict was computed against.  ``None`` for
    #: static routers; :class:`repro.online.OnlineRoutingService` stamps
    #: it so callers can tell which version of a mutating fault set a
    #: result reflects.
    epoch: int | None = None

    @property
    def hops(self) -> int:
        return len(self.path) - 1

    def is_minimal(self) -> bool:
        """Delivered with hop count equal to the Manhattan distance."""
        return self.delivered and self.hops == manhattan(self.path[0], self.path[-1])


class _ClassModel:
    """Per-direction-class model state (canonical frame).

    A fault model answers Algorithm 3 step 2 two questions, and a class
    model holds the two masks that answer them: ``unsafe``, the nodes
    that cannot be a source or destination, and ``_open``, the nodes a
    packet may enter.  Under mcc these are the MCC node set and the
    cells that are neither faulty nor useless.

    The exact informational content of the paper's distributed model is
    property P1: a node is *useless* for this direction class iff every
    minimal path through it dies, so monotone reachability over the
    open cells equals ground-truth reachability over the non-faulty
    cells (validated in test_minimality).  The engine evaluates the
    routing rule in that distilled form — one cached reverse flood per
    destination — while the message-passing layer in
    :mod:`repro.distributed` realizes the same decisions with literal
    per-node boundary records.  No wall reaches this class: walls are
    read by the figures (Figure 3), and the tests compare the paper's
    region-membership forms against this exact rule.

    Can't-reach cells are *not* excluded from ``_open``: they cannot be
    entered from within the direction class (a safe node's positive
    neighbor is never can't-reach — tested), so their exclusion is
    automatic, and degenerate pairs whose RMP is a lower-dimensional
    slice may stand on them legitimately.

    The "rfb" and "oracle" models are this same class over other masks.
    The oracle's are the faults and their complement, so its reach
    masks are exact reverse reachability over the non-faulty cells.
    The online router passes live arrays that fault events update in
    place.
    """

    def __init__(
        self,
        unsafe: np.ndarray,
        open_mask: np.ndarray,
        reach_cache_size: int | None,
    ):
        self.unsafe = unsafe
        self._open = open_mask
        # Reverse-reachability through permitted cells, per destination
        # (LRU-bounded: million-pair workloads touch many destinations).
        self._reach: LRUCache[Coord, np.ndarray] = LRUCache(reach_cache_size)

    def reach_mask(self, dest: Coord) -> np.ndarray:
        """Cells that can still reach ``dest`` through permitted cells.

        Entries are frozen on insert: every consumer treats reach masks
        as shared immutable snapshots (the batch scorer hands them out
        directly), so an in-place write must fail loudly.
        """
        mask = self._reach.get(dest)
        if mask is None:
            mask = reverse_reachable(self._open, dest)
            mask.setflags(write=False)
            self._reach.put(dest, mask)
        return mask


def prime_reach(misses: Sequence[tuple[_ClassModel, Coord]]) -> list[np.ndarray]:
    """Fill the reach caches of many (class model, destination) misses.

    One :func:`reverse_reachable_many` call floods them all, each
    destination through its own class's open mask, so the misses of
    several direction classes share one kernel call.  Each mask is
    cached as its own frozen copy: a view would keep the whole stacked
    result alive for as long as any one mask stays cached.  Returns the
    cached masks in the order of ``misses``.
    """
    if not misses:
        return []
    stacked = reverse_reachable_many(
        [model._open for model, _ in misses], [dest for _, dest in misses]
    )
    masks = []
    for (model, dest), mask in zip(misses, stacked, strict=True):
        mask = mask.copy()
        mask.setflags(write=False)
        masks.append(model._reach.put(dest, mask))
    return masks


def class_model(
    fault_mask: np.ndarray,
    orientation: Orientation,
    mode: str,
    reach_cache_size: int | None,
) -> _ClassModel:
    """The model of one direction class of ``fault_mask`` under ``mode``.

    The mcc labelling comes from the content-addressed cross-pattern
    cache (:mod:`repro.core.model_cache`), so sweeps that revisit a
    pattern — or several model consumers over one pattern — label each
    direction class once per process.  An rfb class is an orientation
    view of its mask's one cached RFB region.  Digests are taken from
    the mask as it is *now*, so a cached model always matches the
    content even when a caller mutates its mask array between builds.
    oracle/blind consult only the fault mask: a snapshot of its
    canonical view and the complement.
    """
    if mode == "mcc":
        labelled = cached_class_assets(fault_mask, orientation, labeller=label_grid)[0]
    elif mode == "rfb":
        labelled = rfb_labelled(fault_mask, orientation)
    else:
        faults = orientation.to_canonical(fault_mask).copy()
        return _ClassModel(faults, ~faults, reach_cache_size)
    return _ClassModel(labelled.unsafe_mask, labelled.open_mask, reach_cache_size)
