"""Epoch-versioned fault model with incremental labelling.

:class:`DynamicFaultModel` owns one mutating fault mask and, per
direction class that has been requested, the two closure masks behind
the paper's labelling (Algorithm 1/4): ``useless_blocked`` (faults plus
USELESS nodes — the ``sign=+1`` fixed point) and ``cant_blocked``
(faults plus CANT_REACH — ``sign=-1``).  Routing reads the two masks
derived from them, ``open`` (neither faulty nor useless) and ``unsafe``
(blocked by either rule).  :meth:`DynamicFaultModel.labelled_for`
composes a status grid from the closures with
:func:`~repro.core.labelling.label_grid`'s own composition, and it is
byte-identical to a from-scratch labelling of the current mask
(property-tested).

Why incremental updates are sound
---------------------------------

The closure operator ("block a node when all its existing sign-side
neighbors are blocked") is monotone, and the label set is its least
fixed point over the fault set.  Iterating the operator from *any* seed
between the generators and the true fixed point converges to that fixed
point, which gives both update paths:

* **inject(P)**: the old labels are a subset of the new fixed point
  (monotonicity in the fault set), so seeding with ``old labels ∪ P``
  warm-starts the sweep.  A newly blocked cell has a monotone chain of
  newly blocked cells ending at some ``f ∈ P``, so all change is
  confined to the dirty box (``[0, max(P)]`` for the + closure,
  ``[min(P), top]`` for the −), and the sweep runs only there
  (:func:`repro.core.labelling.closure_region`).  Cheaper still: a
  cell's rule verdict can only flip if a sign-side neighbor newly
  became blocked, so when no neighbor of ``P`` newly satisfies the rule
  the old set is already the fixed point and the sweep is skipped
  entirely — the common case for sparse faults.
* **repair(P)**: labels can shrink, so the slab ``[0, max(P)]`` /
  ``[min(P), top]`` is recomputed from scratch with frozen boundary
  values (cells outside the slab cannot change: any cell whose label
  depends on a repaired fault is component-wise below/above it).  When
  no labels exist at all — sparse faults again — only the repaired
  cells themselves can change and a scalar fixed point over ``P``
  suffices.

Repair falls back to a full per-class recompute when the combined
dirty slabs approach the full-mesh sweep volume
(:data:`FULL_RECOMPUTE_FRACTION`) — at that size the from-scratch sweep is
no more work and simpler.  Injection never needs the fallback: its
sweep is warm-started at the old fixed point, so even a full-mesh box
converges in a couple of cheap iterations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro import obs
from repro.core.labelling import LabelledGrid, closure, closure_region, compose_status
from repro.mesh.coords import Coord
from repro.mesh.orientation import Orientation
from repro.util.validation import check_event_cells

#: Combined dirty-slab volume (both signs), as a fraction of the full
#: 2-sweep volume ``2 * mesh_size``, above which a *repair* falls back
#: to a from-scratch class relabel instead of slab recomputes (inject
#: sweeps are warm-started and never benefit from the fallback).  Read
#: when a model is built.
FULL_RECOMPUTE_FRACTION = 0.75


def _corner(cells: Sequence[Coord], ndim: int, pick) -> Coord:
    """Component-wise min/max corner of a (small) cell list, scalar."""
    return tuple(pick(c[a] for c in cells) for a in range(ndim))


@dataclass
class ClassDirt:
    """What one event changed in one direction class (canonical frame).

    ``open_lo`` is the component-wise minimum over all cells whose
    *open* status (``~useless_blocked`` — what reach masks flood
    through) changed; ``None`` means no open cell changed.  A cached
    per-destination mask for ``dest`` can only be stale when
    ``dest >= open_lo`` component-wise, so cache invalidation is scoped
    to that cone.  ``full`` marks a full-recompute fallback: everything
    may have changed.  (Oracle-mode reach masks flood through the
    non-faulty cells alone; since oracle routers build no dynamic
    classes, the online service derives that cone from
    ``FaultEvent.cells`` directly.)
    """

    open_lo: Coord | None
    full: bool = False


@dataclass
class FaultEvent:
    """One inject/repair: the epoch it created and its relabel cost."""

    epoch: int
    kind: str  # "inject" | "repair"
    cells: tuple[Coord, ...]  # mesh-frame coordinates
    classes: dict[tuple[int, ...], ClassDirt] = field(default_factory=dict)
    #: Cells covered by region sweeps (0 when every class took the
    #: scalar fast path) — the event's relabel cost in sweep volume.
    dirty_cells: int = 0
    #: Net change in labelled (non-fault USELESS/CANT_REACH) cells.
    label_delta: int = 0
    #: Classes that fell back to a from-scratch relabel.
    full_recomputes: int = 0


class _DynamicClass:
    """One direction class's incrementally maintained label state.

    All arrays are canonical-frame and mutated in place, so the router's
    class model aliases ``unsafe`` and ``open`` and stays current
    without copies.
    """

    def __init__(self, orientation: Orientation, mesh_faults: np.ndarray):
        self.orientation = orientation
        # Live view: mesh-frame mutations show through automatically.
        self.faults = orientation.to_canonical(mesh_faults)
        self.shape = tuple(self.faults.shape)
        self.size = self.faults.size
        self.useless_blocked = closure(self.faults, +1)
        self.cant_blocked = closure(self.faults, -1)
        self.open = ~self.useless_blocked
        self.unsafe = self.useless_blocked | self.cant_blocked
        self.label_count = {
            +1: int((self.useless_blocked & ~self.faults).sum()),
            -1: int((self.cant_blocked & ~self.faults).sum()),
        }

    def _blocked(self, sign: int) -> np.ndarray:
        return self.useless_blocked if sign > 0 else self.cant_blocked

    # -- shared helpers ----------------------------------------------------

    def _refresh_box(self, lo: Sequence[int], hi: Sequence[int]) -> None:
        """Rederive open/unsafe from the closure masks inside a box."""
        sl = tuple(slice(a, b + 1) for a, b in zip(lo, hi, strict=True))
        useless = self.useless_blocked[sl]
        self.open[sl] = ~useless
        self.unsafe[sl] = useless | self.cant_blocked[sl]

    def _refresh_cells(self, cells: Iterable[Coord]) -> None:
        for c in cells:
            useless = self.useless_blocked[c]
            self.open[c] = not useless
            self.unsafe[c] = useless or self.cant_blocked[c]

    def _rule_holds(self, blocked: np.ndarray, cell: Coord, sign: int) -> bool:
        """All sign-side neighbors exist and are blocked (border rule:
        a missing neighbor never blocks)."""
        for axis, c in enumerate(cell):
            n = c + sign
            if not 0 <= n < self.shape[axis]:
                return False
            if not blocked[cell[:axis] + (n,) + cell[axis + 1 :]]:
                return False
        return True

    def _box(self, sign: int, cells: Sequence[Coord]) -> tuple[Coord, Coord]:
        """The dirty bounding box of an event for one closure sign.

        Scalar min/max on purpose: event cell lists are tiny and this
        sits on the fast path, where a numpy reduction per axis would
        cost more than the whole event.
        """
        ndim = len(self.shape)
        if sign > 0:
            return (0,) * ndim, _corner(cells, ndim, max)
        return _corner(cells, ndim, min), tuple(k - 1 for k in self.shape)

    @staticmethod
    def _volume(lo: Coord, hi: Coord) -> int:
        out = 1
        for a, b in zip(lo, hi, strict=True):
            out *= b - a + 1
        return out

    # -- inject ------------------------------------------------------------

    def inject(self, cells: Sequence[Coord], event: FaultEvent) -> ClassDirt:
        """Escalate labels for newly faulty ``cells`` (canonical coords).

        The mesh-frame fault mask has already been updated (``faults``
        is a live view); this seeds both closures with the new faults
        and sweeps each dirty box only when a neighbor's rule verdict
        actually flipped.
        """
        open_changed: list[Coord] = [c for c in cells if self.open[c]]
        for sign in (+1, -1):
            blocked = self._blocked(sign)
            fresh = [c for c in cells if not blocked[c]]
            # Cells previously blocked as labels are now faults.
            relabelled = len(cells) - len(fresh)
            self.label_count[sign] -= relabelled
            event.label_delta -= relabelled
            for c in fresh:
                blocked[c] = True
            # Frontier check: a cell's rule verdict can only have
            # flipped if a sign-side neighbor newly became blocked, so
            # when no neighbor of the event cells fires, the old labels
            # plus the new faults are already the fixed point.
            fired = False
            for f in cells:
                for axis in range(len(self.shape)):
                    if not 0 <= f[axis] - sign < self.shape[axis]:
                        continue
                    u = f[:axis] + (f[axis] - sign,) + f[axis + 1 :]
                    if not blocked[u] and self._rule_holds(blocked, u, sign):
                        fired = True
                        break
                if fired:
                    break
            if not fired:
                continue
            lo, hi = self._box(sign, cells)
            sl = tuple(slice(a, b + 1) for a, b in zip(lo, hi, strict=True))
            before = blocked[sl].copy()
            grown = closure_region(blocked, sign, lo, hi)
            event.dirty_cells += self._volume(lo, hi)
            self.label_count[sign] += grown
            event.label_delta += grown
            if grown:
                if sign > 0:  # only the + closure feeds the open mask
                    diff = np.argwhere(blocked[sl] != before)
                    open_changed.extend(
                        tuple(int(v) + o for v, o in zip(row, lo, strict=True))
                        for row in diff
                    )
                self._refresh_box(lo, hi)
        self._refresh_cells(cells)
        ndim = len(self.shape)
        open_lo = _corner(open_changed, ndim, min) if open_changed else None
        return ClassDirt(open_lo=open_lo)

    # -- repair ------------------------------------------------------------

    def repair(
        self,
        cells: Sequence[Coord],
        event: FaultEvent,
        full_recompute_fraction: float,
    ) -> ClassDirt:
        """Relabel after ``cells`` healed (canonical coords).

        Labels can shrink, so the affected slab is recomputed from
        scratch with frozen boundaries — unless no labels exist for a
        sign, in which case only the repaired cells themselves can
        change and a scalar fixed point over them suffices.
        """
        mesh_cells = self.size
        boxes = {sign: self._box(sign, cells) for sign in (+1, -1)}
        sweep_volume = sum(
            self._volume(lo, hi)
            for sign, (lo, hi) in boxes.items()
            if self.label_count[sign] > 0
        )
        if sweep_volume > full_recompute_fraction * 2 * mesh_cells:
            self.rebuild(event)
            return ClassDirt(open_lo=(0,) * len(self.shape), full=True)
        open_changed: list[Coord] = list(cells)  # faults became open
        for sign in (+1, -1):
            blocked = self._blocked(sign)
            if self.label_count[sign] == 0:
                # No labels anywhere: lfp(F) == F, so after removing P
                # only cells of P can stay blocked (as new labels).
                # Scalar fixed point from below over P alone.
                for c in cells:
                    blocked[c] = False
                changed = True
                kept: set[Coord] = set()
                while changed:
                    changed = False
                    for c in cells:
                        if c not in kept and self._rule_holds(blocked, c, sign):
                            blocked[c] = True
                            kept.add(c)
                            changed = True
                self.label_count[sign] += len(kept)
                event.label_delta += len(kept)
                continue
            lo, hi = boxes[sign]
            sl = tuple(slice(a, b + 1) for a, b in zip(lo, hi, strict=True))
            before = blocked[sl].copy()
            # The repaired cells were blocked *as faults* before the
            # event, and the current mask no longer marks them faulty —
            # exclude them from the old label count by hand.  Both
            # boxes contain every event cell by construction.
            labels_before = int((before & ~self.faults[sl]).sum()) - len(cells)
            blocked[sl] = self.faults[sl]
            closure_region(blocked, sign, lo, hi)
            event.dirty_cells += self._volume(lo, hi)
            labels_after = int((blocked[sl] & ~self.faults[sl]).sum())
            self.label_count[sign] += labels_after - labels_before
            event.label_delta += labels_after - labels_before
            if sign > 0:
                diff = np.argwhere(blocked[sl] != before)
                open_changed.extend(
                    tuple(int(v) + o for v, o in zip(row, lo, strict=True)) for row in diff
                )
            self._refresh_box(lo, hi)
        self._refresh_cells(cells)
        ndim = len(self.shape)
        return ClassDirt(open_lo=_corner(open_changed, ndim, min))

    def rebuild(self, event: FaultEvent | None = None) -> None:
        """From-scratch relabel of this class, in place (fallback path)."""
        self.useless_blocked[...] = closure(self.faults, +1)
        self.cant_blocked[...] = closure(self.faults, -1)
        before = self.label_count.copy()
        self.label_count = {
            +1: int((self.useless_blocked & ~self.faults).sum()),
            -1: int((self.cant_blocked & ~self.faults).sum()),
        }
        self._refresh_box((0,) * len(self.shape), tuple(k - 1 for k in self.shape))
        if event is not None:
            event.full_recomputes += 1
            event.dirty_cells += 2 * self.size
            event.label_delta += sum(self.label_count.values()) - sum(
                before.values()
            )


class DynamicFaultModel:
    """A mutating fault set with epoch-versioned incremental labels.

    ``inject``/``repair`` update the fault mask **in place** (router
    state holding the array stays current), advance ``epoch``, and
    incrementally maintain the labels of every direction class built so
    far; classes are built lazily on first request
    (:meth:`labelled_for`).  Each event returns a :class:`FaultEvent`
    describing, per class, the dirty cone caches must invalidate.
    """

    def __init__(self, fault_mask: np.ndarray):
        self.fault_mask = np.array(fault_mask, dtype=bool)  # owned copy
        self.shape = tuple(self.fault_mask.shape)
        self.full_recompute_fraction = FULL_RECOMPUTE_FRACTION
        self.epoch = 0
        self._classes: dict[tuple[int, ...], _DynamicClass] = {}
        self.stats = {
            "events": 0,
            "injects": 0,
            "repairs": 0,
            "dirty_cells": 0,
            "full_recomputes": 0,
            "class_builds": 0,
        }

    # -- class state -------------------------------------------------------

    def class_for(self, orientation: Orientation | None = None) -> _DynamicClass:
        if orientation is None:
            orientation = Orientation.identity(self.shape)
        key = orientation.signs
        if key not in self._classes:
            self._classes[key] = _DynamicClass(orientation, self.fault_mask)
            self.stats["class_builds"] += 1
        return self._classes[key]

    def labelled_for(self, orientation: Orientation | None = None) -> LabelledGrid:
        """One direction class's labelled grid at the current epoch.

        Composed afresh from the class's closure masks, so it is a
        snapshot: later events do not show through.
        """
        cls = self.class_for(orientation)
        status = compose_status(cls.faults, cls.useless_blocked, cls.cant_blocked)
        return LabelledGrid(status=status, orientation=cls.orientation)

    def fault_count(self) -> int:
        return int(self.fault_mask.sum())

    # -- events ------------------------------------------------------------

    def inject(self, cells: Iterable[Sequence[int]]) -> FaultEvent:
        """Mark ``cells`` faulty; labels escalate incrementally."""
        mesh_cells = check_event_cells(cells, self.fault_mask, want_faulty=False)
        with obs.span("fault_inject", cat="online", cells=len(mesh_cells)) as sp:
            for c in mesh_cells:
                self.fault_mask[c] = True
            self.epoch += 1
            event = FaultEvent(
                epoch=self.epoch, kind="inject", cells=tuple(mesh_cells)
            )
            for signs, cls in self._classes.items():
                canon = [cls.orientation.map_coord(c) for c in mesh_cells]
                event.classes[signs] = cls.inject(canon, event)
            self._account(event, "injects")
            sp.set(
                epoch=event.epoch,
                dirty_cells=event.dirty_cells,
                full_recomputes=event.full_recomputes,
            )
        return event

    def repair(self, cells: Iterable[Sequence[int]]) -> FaultEvent:
        """Mark ``cells`` healthy again; affected slabs are relabelled."""
        mesh_cells = check_event_cells(cells, self.fault_mask, want_faulty=True)
        with obs.span("fault_repair", cat="online", cells=len(mesh_cells)) as sp:
            for c in mesh_cells:
                self.fault_mask[c] = False
            self.epoch += 1
            event = FaultEvent(
                epoch=self.epoch, kind="repair", cells=tuple(mesh_cells)
            )
            for signs, cls in self._classes.items():
                canon = [cls.orientation.map_coord(c) for c in mesh_cells]
                event.classes[signs] = cls.repair(
                    canon, event, self.full_recompute_fraction
                )
            self._account(event, "repairs")
            sp.set(
                epoch=event.epoch,
                dirty_cells=event.dirty_cells,
                full_recomputes=event.full_recomputes,
            )
        return event

    def _account(self, event: FaultEvent, kind: str) -> None:
        self.stats["events"] += 1
        self.stats[kind] += 1
        self.stats["dirty_cells"] += event.dirty_cells
        self.stats["full_recomputes"] += event.full_recomputes
