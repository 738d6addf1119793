"""Epoch-counted batched routing over a mutating fault set.

:class:`OnlineRoutingService` is the online counterpart of
:class:`repro.routing.batch.RoutingService`: same batch decomposition,
same engine, but the per-class models alias the arrays of a
:class:`DynamicFaultModel`, so a fault event updates routing state in
place instead of forcing a cold rebuild.  The service then does three
things the static stack cannot:

* **scoped invalidation** — a cached per-destination reach mask floods
  through the open cells of ``[0, dest]`` only, so an event whose
  dirty cells all sit outside that cone cannot have changed it.  The
  event's :class:`~repro.online.dynamic_model.ClassDirt` carries the
  component-wise minimum corner of the changed cells per class, and
  only cached destinations ``dest >= lo`` are dropped (the cone test
  is conservative: it may drop a fresh mask, never keep a stale one);
* **epoch stamping** — every :class:`RouteResult` carries the
  fault-model epoch its verdict was computed against, so consumers of
  asynchronous results can tell pre- from post-event answers;
* **event-bounded batching** — queries arriving between fault events
  queue via :meth:`submit` and route through the existing
  ``route_batch`` machinery; ``inject``/``repair`` flush the queue
  first, so a queued query is always answered at the epoch it was
  submitted under.

The service also carries the paper's baseline fault-information model:
``mode="rfb"`` keeps a :class:`~repro.baselines.rfb.DynamicRFBState`
warm across events (block-local recompute, one shared block set for
all direction classes), so T6 can compare MCC and RFB under identical
churn histories.

Parity with a cold :class:`RoutingService` built on the current mask is
property-tested in ``tests/test_online_dynamic.py`` — element-wise
identical results after arbitrary inject/repair sequences, which is
exactly the statement that no stale cache entry survives invalidation.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.analysis.sanitize import maybe_sanitize_online_service
from repro.baselines.rfb import DynamicRFBState
from repro.mesh.coords import Coord
from repro.mesh.orientation import Orientation
from repro.online.dynamic_model import DynamicFaultModel, FaultEvent
from repro.routing.batch import RoutingService
from repro.routing.engine import RouteResult, _ClassModel
from repro.util.validation import check_shape_member


class _OnlineRouter(RoutingService):
    """A :class:`RoutingService` whose models track a dynamic fault set.

    Each class model *aliases* two live arrays, ``unsafe`` and
    ``open``, so every fault event updates routing state with no
    rebuild; only the per-destination caches need scoped eviction.  In
    "mcc" mode they are the dynamic class's own.  The other modes take
    orientation views of one mesh-frame pair: in "rfb" mode the shared
    :class:`~repro.baselines.rfb.DynamicRFBState` (the baseline's block
    set is direction-independent, so a single block-local recompute per
    event serves all 2^n classes), in "oracle"/"blind" modes the live
    fault mask and its complement.
    """

    def __init__(self, model: DynamicFaultModel, mode: str = "mcc"):
        # The asarray in the base constructor keeps the model's own
        # array (no copy for a bool ndarray): routing reads stay live.
        super().__init__(model.fault_mask, mode=mode)
        assert self.fault_mask is model.fault_mask
        self.model = model
        # Live open mask behind the oracle/blind class models.
        self._open_mesh = ~model.fault_mask
        # Incrementally maintained RFB block state (rfb mode only).
        self._rfb = DynamicRFBState(model.fault_mask) if mode == "rfb" else None
        #: Reach masks dropped by scoped invalidation, and entries that
        #: survived an event (cache-efficiency telemetry).
        self.evicted = 0
        self.retained = 0

    def _model_for(self, orientation: Orientation) -> _ClassModel:
        key = orientation.signs
        if key not in self._models:
            # Events mutate the aliased arrays in place, and the engine
            # sees the new model immediately.
            view = orientation.to_canonical
            if self.mode == "mcc":
                cls = self.model.class_for(orientation)
                masks = cls.unsafe, cls.open
            elif self.mode == "rfb":
                masks = view(self._rfb.unsafe), view(self._rfb.open)
            else:
                masks = view(self.fault_mask), view(self._open_mesh)
            self._models[key] = _ClassModel(*masks, self.reach_cache_size)
        return self._models[key]

    # -- event application -------------------------------------------------

    def _evict_cone(self, cache, lo: Coord | None) -> None:
        """Drop cached destinations inside the dirty cone ``dest >= lo``."""
        for dest in cache.keys():
            if lo is not None and all(d >= a for d, a in zip(dest, lo, strict=True)):
                cache.pop(dest)
                self.evicted += 1
            else:
                self.retained += 1

    def _canonical_lo(self, signs: tuple[int, ...], cells) -> Coord:
        """Component-wise minimum of ``cells`` in one class's frame."""
        orientation = Orientation(signs, self.fault_mask.shape)
        mapped = [orientation.map_coord(c) for c in cells]
        return tuple(int(v) for v in np.min(mapped, axis=0))

    def apply_event(self, event: FaultEvent) -> None:
        """Invalidate exactly the cached state the event can have touched.

        Per class, ``lo`` is the low corner of the cells whose open
        status may have changed; ``None`` means none did.
        """
        for c in event.cells:
            self._open_mesh[c] = not self.fault_mask[c]
        origin = (0,) * self.fault_mask.ndim  # every dest is >= origin
        if self.mode == "rfb":
            dirty, swept, full = self._rfb.apply(event.cells, event.kind)
            event.dirty_cells += swept
            if full:
                event.full_recomputes += 1
        for signs, m in self._models.items():
            if self.mode == "mcc":
                dirt = event.classes[signs]
                lo = origin if dirt.full else dirt.open_lo
            elif self.mode == "rfb":
                if full:
                    lo = origin
                elif dirty is None:
                    lo = None  # block set unchanged: no cached mask is stale
                else:
                    lo = self._canonical_lo(signs, (dirty.lo, dirty.hi))
            else:
                # The faults-only labelling changes at the event cells alone.
                lo = self._canonical_lo(signs, event.cells)
            self._evict_cone(m._reach, lo)


class OnlineRoutingService:
    """Serve routing queries while the fault set mutates underneath.

    The constructor takes the *initial* fault mask; thereafter the fault
    set changes only through :meth:`inject` / :meth:`repair`, each of
    which advances the epoch, incrementally relabels
    (:class:`DynamicFaultModel`), and scopes cache invalidation to the
    event's dirty region.  All route entry points stamp their results
    with the epoch they were computed at.
    """

    def __init__(self, fault_mask: np.ndarray, mode: str = "mcc"):
        self.model = DynamicFaultModel(fault_mask)
        self.router = _OnlineRouter(self.model, mode=mode)
        self._pending: list[tuple[int, tuple[Coord, Coord]]] = []
        self._done: dict[int, RouteResult] = {}
        self._tickets = 0
        maybe_sanitize_online_service(self)

    # -- state -------------------------------------------------------------

    @property
    def epoch(self) -> int:
        return self.model.epoch

    @property
    def mode(self) -> str:
        return self.router.mode

    @property
    def fault_mask(self) -> np.ndarray:
        """The live fault mask (mutate only via inject/repair)."""
        return self.model.fault_mask

    # -- routing -----------------------------------------------------------

    def _stamp(self, results: list[RouteResult]) -> list[RouteResult]:
        epoch = self.model.epoch
        for r in results:
            r.epoch = epoch
        return results

    def route(self, source: Sequence[int], dest: Sequence[int]) -> RouteResult:
        """Route one pair immediately at the current epoch."""
        return self._stamp([self.router.route(source, dest)])[0]

    def route_batch(
        self, pairs: Iterable[Sequence[Sequence[int]]]
    ) -> list[RouteResult]:
        """Route a batch immediately at the current epoch."""
        return self._stamp(self.router.route_batch(pairs))

    def feasible_batch(
        self, pairs: Iterable[Sequence[Sequence[int]]]
    ) -> np.ndarray:
        """Vectorized feasibility verdicts at the current epoch."""
        return self.router.feasible_batch(pairs)

    # -- event-bounded query batching --------------------------------------

    def submit(self, source: Sequence[int], dest: Sequence[int]) -> int:
        """Queue one query; it routes at the next flush or fault event.

        Returns the query's ticket, the key of its result in
        :meth:`flush` and :meth:`take_completed`.  Queued queries are
        guaranteed to be answered at the epoch they were submitted
        under: fault events flush the queue before mutating the model,
        and every result carries its epoch.
        """
        source = tuple(int(c) for c in source)
        dest = tuple(int(c) for c in dest)
        # Reject off-mesh endpoints now: a raise at flush time would fail
        # every query queued with this one.
        check_shape_member("source", source, self.fault_mask.shape)
        check_shape_member("dest", dest, self.fault_mask.shape)
        ticket = self._tickets
        self._tickets += 1
        self._pending.append((ticket, (source, dest)))
        return ticket

    def flush(self) -> dict[int, RouteResult]:
        """Route every queued query in one batch; results by ticket."""
        if not self._pending:
            return {}
        tickets = [t for t, _ in self._pending]
        pairs = [p for _, p in self._pending]
        self._pending = []
        results = self.route_batch(pairs)
        flushed = dict(zip(tickets, results, strict=True))
        self._done.update(flushed)
        return flushed

    def take_completed(self) -> dict[int, RouteResult]:
        """Drain every completed queued query accumulated so far."""
        done, self._done = self._done, {}
        return done

    # -- fault events ------------------------------------------------------

    def inject(self, cells: Iterable[Sequence[int]]) -> FaultEvent:
        """Flush queued queries, then mark ``cells`` faulty (new epoch)."""
        self.flush()
        event = self.model.inject(cells)
        self.router.apply_event(event)
        return event

    def repair(self, cells: Iterable[Sequence[int]]) -> FaultEvent:
        """Flush queued queries, then mark ``cells`` healthy (new epoch)."""
        self.flush()
        event = self.model.repair(cells)
        self.router.apply_event(event)
        return event
