"""The adaptive minimal routing engine (Algorithm 3 / Algorithm 6 step 2).

``AdaptiveRouter`` carries a fault-information model ("mcc", "rfb",
"oracle", or "blind") for one fault pattern and routes arbitrary pairs:

1. map the pair into its direction class (canonical frame);
2. feasibility check (model condition; Theorem 1/2);
3. hop-by-hop forwarding: a candidate direction survives when its
   neighbor can still reach the destination through permitted nodes —
   the exact informational content of Algorithm 3 step 2(b)'s boundary
   records (see _ClassModel for why this is the distilled form and how
   it relates to the walls);

4. a pluggable policy picks among the survivors (step 2c).

"mcc", "rfb" and "oracle" differ only in the labelling that decides
which nodes are permitted: "mcc" blocks faulty and useless nodes, "rfb"
whole rectangular faulty blocks, and "oracle" faulty nodes alone, so
its exclusion rule is exact reverse reachability — the reference the
MCC mode must match (property P3).  "blind" mode uses no model at all
(baseline).

All model state is cached: one ``_ClassModel`` per direction class and
one reverse-reachability mask per destination (LRU-bounded by
:data:`REACH_CACHE_SIZE`).  :mod:`repro.routing.batch` exploits exactly
these caches to route many pairs over one pattern without redundant
work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.baselines.rfb import rfb_labelled
from repro.core.labelling import FAULTY, USELESS, LabelledGrid, label_grid
from repro.core.model_cache import cached_class_assets
from repro.mesh.coords import Coord, manhattan
from repro.mesh.orientation import Orientation
from repro.routing.oracle import reverse_reachable, reverse_reachable_many
from repro.routing.policies import FixedOrderPolicy, Policy
from repro.util.caching import LRUCache
from repro.util.validation import check_shape_member

#: Bound on cached per-destination reachability masks (per class),
#: read when a router is built.
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

    The exact informational content of the paper's distributed model is
    property P1: a node is *useless* for this direction class iff every
    minimal path through it dies, so monotone reachability over the
    non-faulty, non-useless cells equals ground-truth reachability over
    the non-faulty cells (validated in test_minimality).  The engine
    evaluates the routing rule in that distilled form — one cached
    reverse flood per destination — while the message-passing layer in
    :mod:`repro.distributed` realizes the same decisions with literal
    per-node boundary records.  No wall reaches this class: the model
    cache builds walls next to each labelling, but only the labelling
    is taken here, and T5 too reads labellings alone.  Walls are read
    by the figures (Figure 3), and the tests compare the paper's
    region-membership forms against this exact rule.

    Can't-reach cells are *not* excluded here: they cannot be entered
    from within the direction class (a safe node's positive neighbor is
    never can't-reach — tested), so their exclusion is automatic, and
    degenerate pairs whose RMP is a lower-dimensional slice may stand on
    them legitimately.

    The "rfb" and "oracle" models are this same class over another
    labelling.  The oracle's labelling marks faults only, so its reach
    masks are exact reverse reachability over the non-faulty cells.
    """

    def __init__(
        self,
        labelled: LabelledGrid,
        reach_cache_size: int | None,
        blocked: np.ndarray | None = None,
        open_mask: np.ndarray | None = None,
        unsafe: np.ndarray | None = None,
    ):
        """``blocked``/``open_mask``/``unsafe`` override the masks
        normally derived from ``labelled.status`` — the online router
        passes its dynamic class's live arrays here so fault events
        update the model in place instead of rebuilding it."""
        self.labelled = labelled
        self.unsafe = labelled.unsafe_mask if unsafe is None else unsafe
        status = labelled.status
        if blocked is None:
            blocked = (status == FAULTY) | (status == USELESS)
        self._blocked = blocked
        self._open = ~blocked if open_mask is None else open_mask
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

    def candidates(self, pos: Coord, dest: Coord) -> list[int]:
        """Surviving preferred axes at ``pos`` for ``dest`` (canonical).

        Algorithm 3 step 2's one exclusion rule: step onto a neighbor
        only if it can still reach ``dest`` through permitted cells.
        ``dest`` itself passes whenever it is permitted, which a routed
        pair's model-safe destination always is.
        """
        reach = self.reach_mask(dest)
        out = []
        for axis in range(len(pos)):
            if pos[axis] < dest[axis]:
                nxt = list(pos)
                nxt[axis] += 1
                if reach[tuple(nxt)]:
                    out.append(axis)
        return out

    def feasible(self, source: Coord, dest: Coord) -> bool:
        """Theorem 1/2: a minimal path exists iff the model permits one."""
        if source == dest:
            return True
        if self._blocked[source]:
            return False
        return bool(self.reach_mask(dest)[source])

    def endpoints_safe(self, source: Coord, dest: Coord) -> bool:
        return not (self.unsafe[source] or self.unsafe[dest])


def prime_reach(misses: Sequence[tuple[_ClassModel, Coord]]) -> None:
    """Fill the reach caches of many (class model, destination) misses.

    One :func:`reverse_reachable_many` call floods them all, each
    destination through its own class's open mask, so the misses of
    several direction classes share one kernel call.  Each mask is
    cached as its own frozen copy: a view would keep the whole stacked
    result alive for as long as any one mask stays cached.
    """
    if not misses:
        return
    stacked = reverse_reachable_many(
        [model._open for model, _ in misses], [dest for _, dest in misses]
    )
    for (model, dest), mask in zip(misses, stacked, strict=True):
        mask = mask.copy()
        mask.setflags(write=False)
        model._reach.put(dest, mask)


class AdaptiveRouter:
    """Minimal adaptive router over one fault pattern.

    ``mode`` selects the fault-information model:

    * ``"mcc"``    — the paper's model (labelling + walls);
    * ``"rfb"``    — same machinery over rectangular faulty blocks;
    * ``"oracle"`` — a labelling that marks faults only, so its
      exclusions are exact reverse reachability (reference);
    * ``"blind"``  — no model; only faulty neighbors are avoided.

    Each class model caches at most :data:`REACH_CACHE_SIZE`
    per-destination reachability masks.  mcc/rfb labellings come from
    the content-addressed cross-pattern cache
    (:mod:`repro.core.model_cache`), so sweeps that revisit a pattern —
    or several model consumers over one pattern — label each direction
    class once per process.
    """

    MODES = ("mcc", "rfb", "oracle", "blind")

    def __init__(
        self,
        fault_mask: np.ndarray,
        mode: str = "mcc",
        policy: Policy | None = None,
    ):
        if mode not in self.MODES:
            raise ValueError(f"unknown router mode {mode!r}; pick from {self.MODES}")
        self.fault_mask = np.asarray(fault_mask, dtype=bool)
        self.mode = mode
        self.policy = policy or FixedOrderPolicy()
        self.reach_cache_size = REACH_CACHE_SIZE
        self._models: dict[tuple[int, ...], _ClassModel] = {}

    # -- model construction (cached per direction class) -------------------

    def _model_for(self, orientation: Orientation) -> _ClassModel:
        key = orientation.signs
        if key not in self._models:
            if self.mode in ("mcc", "rfb"):
                # Content-addressed: the digest is taken from the mask as
                # it is *now*, so the cached labelling always matches the
                # labelled content even when a caller mutates its mask
                # array between builds.
                labelled, _, _ = cached_class_assets(
                    self.fault_mask,
                    orientation,
                    labeller=rfb_labelled if self.mode == "rfb" else label_grid,
                    kind=self.mode,
                )
            else:
                # oracle/blind consult only the fault mask: skip the
                # labelling fixed point and mark faults directly.
                status = orientation.to_canonical(self.fault_mask).astype(np.int8)
                status *= FAULTY
                labelled = LabelledGrid(status=status, orientation=orientation)
            self._models[key] = _ClassModel(labelled, self.reach_cache_size)
        return self._models[key]

    # -- routing -------------------------------------------------------------

    def route(self, source: Sequence[int], dest: Sequence[int]) -> RouteResult:
        """Route one packet; returns the mesh-frame path and verdicts."""
        source = tuple(int(c) for c in source)
        dest = tuple(int(c) for c in dest)
        shape = self.fault_mask.shape
        check_shape_member("source", source, shape)
        check_shape_member("dest", dest, shape)
        if self.fault_mask[source] or self.fault_mask[dest]:
            # A failed result, not an exception: dynamic-fault workloads
            # (MeshNetwork.inject_fault) route to endpoints that died
            # mid-run, which must score as failures, not crash the sweep.
            return RouteResult(
                delivered=False,
                path=[source],
                feasible=False,
                reason="endpoint faulty",
            )
        orientation = Orientation.for_pair(source, dest, shape)
        s = orientation.map_coord(source)
        d = orientation.map_coord(dest)
        model = self._model_for(orientation)

        reason = self._infeasible_reason(model, s, d)
        if reason is not None:
            return RouteResult(
                delivered=False, path=[source], feasible=False, reason=reason
            )
        return self._forward(model, orientation, s, d)

    def _infeasible_reason(
        self, model: _ClassModel, s: Coord, d: Coord
    ) -> str | None:
        """The model's refusal reason for a canonical pair, or None (go).

        Blind mode has no feasibility check: it just tries.
        """
        if self.mode == "blind":
            return None
        if not model.endpoints_safe(s, d):
            return "endpoint inside fault region"
        if not model.feasible(s, d):
            return "infeasible"
        return None

    def _forward(
        self, model: _ClassModel, orientation: Orientation, s: Coord, d: Coord
    ) -> RouteResult:
        """Hop-by-hop forwarding loop after a passed (or absent) check.

        Every hop moves one step toward ``d``, so the walk either arrives
        in exactly ``manhattan(s, d)`` hops or stops with no candidate.
        After a passed model check every hop stays inside ``d``'s reach
        mask, so only blind mode can stop — and blind mode ran no check,
        so a stopped walk's verdict is unknown (``feasible=None``).
        """
        pos = s
        canonical_path = [pos]
        while pos != d:
            candidates = self._candidates(model, pos, d)
            if not candidates:
                path = [orientation.unmap_coord(c) for c in canonical_path]
                return RouteResult(
                    delivered=False,
                    path=path,
                    feasible=None,
                    stuck_at=path[-1],
                    reason="stuck",
                )
            axis = self.policy.choose(candidates, pos, d)
            if axis not in candidates:
                raise RuntimeError(f"policy chose non-candidate axis {axis}")
            nxt = list(pos)
            nxt[axis] += 1
            pos = tuple(nxt)
            canonical_path.append(pos)
        path = [orientation.unmap_coord(c) for c in canonical_path]
        return RouteResult(delivered=True, path=path, feasible=True)

    def _candidates(self, model: _ClassModel, pos: Coord, dest: Coord) -> list[int]:
        if self.mode != "blind":
            return model.candidates(pos, dest)
        out = []
        for axis in range(len(pos)):
            if pos[axis] >= dest[axis]:
                continue
            nxt = list(pos)
            nxt[axis] += 1
            if not model.labelled.fault_mask[tuple(nxt)]:
                out.append(axis)
        return out

