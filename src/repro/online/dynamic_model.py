"""Epoch-versioned fault model with incremental labelling.

:class:`DynamicFaultModel` owns one mutating fault mask and, per
direction class it keeps, one closure mask behind the paper's
labelling (Algorithm 1/4): ``blocked``, the faults plus the class's
USELESS nodes (:func:`~repro.core.labelling.closure`).  The labelling
rules mirror each other: class σ's CANT_REACH closure is class −σ's
USELESS closure with every axis reversed (:mod:`repro.core.labelling`).
So classes are built in opposite pairs, class σ reads ``cant`` as a
reversed view of its partner's ``blocked``, and each event updates
each closure once.  Routing reads the two masks derived from them,
``open`` (neither faulty nor useless) and ``unsafe`` (blocked by
either rule), kept for the classes that were requested.
:meth:`DynamicFaultModel.labelled_for` composes a status grid from the
two closures with :func:`~repro.core.labelling.label_grid`'s own
composition, and it is byte-identical to a from-scratch labelling of
the current mask (property-tested).

Why incremental updates are sound
---------------------------------

The closure operator ("block a node when all its existing
positive-side neighbors are blocked") is monotone, and the label set is
its least fixed point over the fault set.  Iterating the operator from
*any* seed between the generators and the true fixed point converges
to that fixed point, which gives both update paths:

* **inject(P)**: the old labels are a subset of the new fixed point
  (monotonicity in the fault set), so seeding with ``old labels ∪ P``
  warm-starts the sweep.  A newly blocked cell has a monotone chain of
  newly blocked cells ending at some ``f ∈ P``, so all change is
  confined to the dirty box ``[0, max(P)]``, and the sweep runs only
  there (:func:`repro.core.labelling.closure_region`).  Cheaper still:
  a cell's rule verdict can only flip if a positive-side neighbor newly
  became blocked, so when no neighbor of ``P`` newly satisfies the rule
  the old set is already the fixed point and the sweep is skipped
  entirely — the common case for sparse faults.
* **repair(P)**: labels can shrink, so the slab ``[0, max(P)]`` is
  recomputed from scratch with frozen boundary values (cells outside
  the slab cannot change: any cell whose label depends on a repaired
  fault is component-wise below it).  When the closure holds no labels
  at all — sparse faults again — only the repaired cells themselves can
  change and a scalar fixed point over ``P`` suffices.

A repair falls back to a from-scratch relabel of a pair's two closures
when the slabs a class would sweep over them approach the full
two-sweep volume (:data:`FULL_RECOMPUTE_FRACTION`) — at that size the
from-scratch sweep is no more work and simpler.  Both classes of a pair
read the same two closures, so they decide alike.  Injection never
needs the fallback: its sweep is warm-started at the old fixed point,
so even a full-mesh box converges in a couple of cheap iterations.

The counts of a :class:`FaultEvent` are per requested class: each adds
the boxes its two closures swept (the volume over which it refreshes
``open`` and ``unsafe``), both closures' label deltas, and one
fallback.  A class built only as a partner adds nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from repro import obs
from repro.core.labelling import LabelledGrid, closure, closure_region, compose_status
from repro.mesh.coords import Coord
from repro.mesh.orientation import Orientation
from repro.util.validation import check_event_cells

#: A class's two dirty slabs, as a fraction of the full 2-sweep volume
#: ``2 * mesh_size``, above which a *repair* falls back to a
#: from-scratch relabel of the pair instead of slab recomputes (inject
#: sweeps are warm-started and never benefit from the fallback).  Read
#: when a model is built.
FULL_RECOMPUTE_FRACTION = 0.75


def _corner(cells: Sequence[Coord], ndim: int, pick) -> Coord:
    """Component-wise min/max corner of a (small) cell list, scalar."""
    return tuple(pick(c[a] for c in cells) for a in range(ndim))


@dataclass
class FaultEvent:
    """One inject/repair: the epoch it created and its relabel cost."""

    epoch: int
    kind: str  # "inject" | "repair"
    cells: tuple[Coord, ...]  # mesh-frame coordinates
    #: Per requested class, the component-wise minimum (canonical
    #: frame) of the cells whose *open* status changed, or ``None`` when
    #: none did; a fallback reports the origin.  A cached reach mask for
    #: ``dest`` can only be stale when ``dest >=`` this corner, so cache
    #: invalidation is scoped to that cone.  (Oracle-mode reach masks
    #: flood through the non-faulty cells alone; since oracle routers
    #: build no dynamic classes, the online service derives that cone
    #: from ``cells`` directly.)
    classes: dict[tuple[int, ...], Coord | None] = field(default_factory=dict)
    #: Cells covered by region sweeps, summed over the two closures of
    #: each requested class (0 when every closure took the scalar fast
    #: path; a fallback counts both closures whole) — the event's
    #: relabel cost in sweep volume.
    dirty_cells: int = 0
    #: Net change in labelled (non-fault) cells, summed over the same
    #: closures.
    label_delta: int = 0
    #: Requested classes whose closures fell back to a from-scratch
    #: relabel.
    full_recomputes: int = 0


class _Step(NamedTuple):
    """What one event did to one closure, in its class's frame."""

    hi: Coord | None  # the swept box is [0, hi]; None when nothing was swept
    swept: int  # cells in that box
    delta: int  # net change in labels
    changed: list[Coord]  # cells whose open status may have changed
    rebuilt: bool = False


class _DynamicClass:
    """One direction class's incrementally maintained USELESS closure.

    All arrays are canonical-frame and mutated in place.  Built in
    pairs (:meth:`pair`): ``cant``, this class's CANT_REACH closure, is
    its ``partner``'s ``blocked`` with every axis reversed (a view).  A
    requested class also keeps the two masks routing reads, ``open``
    and ``unsafe``, so the router's class model aliases them and stays
    current without copies.  ``step`` records what the last event did
    to ``blocked``.
    """

    def __init__(self, orientation: Orientation, mesh_faults: np.ndarray):
        self.orientation = orientation
        # Live view: mesh-frame mutations show through automatically.
        self.faults = orientation.to_canonical(mesh_faults)
        self.shape = tuple(self.faults.shape)
        self.size = self.faults.size
        self.blocked = closure(self.faults)
        self.labels = self._count_labels()

    @classmethod
    def pair(
        cls, orientation: Orientation, mesh_faults: np.ndarray
    ) -> tuple[_DynamicClass, _DynamicClass]:
        """Class ``orientation`` and its opposite, each reading the
        other's closure reversed as its ``cant``."""
        opposite = Orientation(tuple(-s for s in orientation.signs), orientation.shape)
        a, b = cls(orientation, mesh_faults), cls(opposite, mesh_faults)
        a.partner, b.partner = b, a
        a.cant, b.cant = np.flip(b.blocked), np.flip(a.blocked)
        return a, b

    def _count_labels(self) -> int:
        return int(np.count_nonzero(self.blocked)) - int(np.count_nonzero(self.faults))

    def _rule_holds(self, cell: Coord) -> bool:
        """All positive-side neighbors exist and are blocked (border
        rule: a missing neighbor never blocks)."""
        for axis, c in enumerate(cell):
            if c + 1 == self.shape[axis]:
                return False
            if not self.blocked[cell[:axis] + (c + 1,) + cell[axis + 1 :]]:
                return False
        return True

    def _fires(self, cells: Sequence[Coord]) -> bool:
        """Frontier check: whether a lower neighbor of ``cells`` newly
        satisfies the rule.  A cell's rule verdict can only flip when a
        positive-side neighbor newly became blocked, so when none fires,
        the old labels plus the new faults are already the fixed point."""
        for f in cells:
            for axis, c in enumerate(f):
                if c:
                    u = f[:axis] + (c - 1,) + f[axis + 1 :]
                    if not self.blocked[u] and self._rule_holds(u):
                        return True
        return False

    def _box(self, hi: Coord) -> tuple[tuple[slice, ...], int]:
        """The dirty box ``[0, hi]`` as slices, and its volume."""
        volume = 1
        for h in hi:
            volume *= h + 1
        return tuple(slice(0, h + 1) for h in hi), volume

    # -- the closure's update ----------------------------------------------

    def inject(self, cells: Sequence[Coord]) -> None:
        """Escalate the closure for newly faulty ``cells`` (canonical coords).

        The mesh-frame fault mask has already been updated (``faults``
        is a live view); this seeds the closure with the new faults and
        sweeps the dirty box only when a neighbor's rule verdict
        actually flipped.
        """
        blocked = self.blocked
        fresh = [c for c in cells if not blocked[c]]
        for c in fresh:
            blocked[c] = True
        # Cells previously blocked as labels are now faults.
        delta = len(fresh) - len(cells)
        changed = fresh
        hi, swept = None, 0
        if self._fires(cells):
            hi = _corner(cells, len(self.shape), max)
            sl, swept = self._box(hi)
            before = blocked[sl].copy()
            delta += closure_region(blocked, (0,) * len(hi), hi)
            diff = np.argwhere(blocked[sl] != before)
            changed = changed + [tuple(map(int, row)) for row in diff]
        self.labels += delta
        self.step = _Step(hi, swept, delta, changed)

    def slab(self, cells: Sequence[Coord]) -> int:
        """The volume a repair of ``cells`` would sweep (0 when the
        closure holds no labels: the scalar path sweeps nothing)."""
        return self._box(_corner(cells, len(self.shape), max))[1] if self.labels else 0

    def repair(self, cells: Sequence[Coord], rebuild: bool) -> None:
        """Shrink the closure after ``cells`` healed (canonical coords).

        Labels can shrink, so the affected slab is recomputed from
        scratch with frozen boundaries — unless the closure holds no
        labels, in which case only the repaired cells themselves can
        change and a scalar fixed point over them suffices.  With
        ``rebuild``, the whole closure is relabelled from scratch.
        """
        ndim = len(self.shape)
        blocked = self.blocked
        if rebuild:
            blocked[...] = closure(self.faults)
            labels, self.labels = self.labels, self._count_labels()
            top = tuple(k - 1 for k in self.shape)
            self.step = _Step(top, self.size, self.labels - labels, [(0,) * ndim], True)
            return
        changed = list(cells)  # faults became open
        if self.labels == 0:
            # No labels anywhere: lfp(F) == F, so after removing P only
            # cells of P can stay blocked (as new labels).  Scalar fixed
            # point from below over P alone.
            for c in cells:
                blocked[c] = False
            grew = True
            kept: set[Coord] = set()
            while grew:
                grew = False
                for c in cells:
                    if c not in kept and self._rule_holds(c):
                        blocked[c] = True
                        kept.add(c)
                        grew = True
            self.labels = len(kept)
            self.step = _Step(None, 0, len(kept), changed)
            return
        hi = _corner(cells, ndim, max)
        sl, swept = self._box(hi)
        before = blocked[sl].copy()
        faults = self.faults[sl]
        # The repaired cells were blocked *as faults* before the event,
        # and the current mask no longer marks them faulty — exclude them
        # from the old label count by hand.  The box contains every
        # event cell by construction.
        labels_before = int(np.count_nonzero(before & ~faults)) - len(cells)
        blocked[sl] = faults
        closure_region(blocked, (0,) * ndim, hi)
        delta = int(np.count_nonzero(blocked[sl] & ~faults)) - labels_before
        self.labels += delta
        diff = np.argwhere(blocked[sl] != before)
        changed += [tuple(map(int, row)) for row in diff]
        self.step = _Step(hi, swept, delta, changed)

    # -- the requested class's masks ---------------------------------------

    def _refresh(self, where) -> None:
        """Rederive open/unsafe from the two closures at a box or a cell."""
        useless = self.blocked[where]
        self.open[where] = ~useless
        self.unsafe[where] = useless | self.cant[where]

    def settle(self, cells: Sequence[Coord], event: FaultEvent) -> Coord | None:
        """Refresh ``open``/``unsafe`` once both closures took the event.

        Adds this class's counts to ``event`` and returns the low corner
        of its open-changed cells.  The partner's box ``[0, hi]`` is
        ``[top - hi, top]`` in this class's frame.
        """
        own, other = self.step, self.partner.step
        if own.hi is not None:
            self._refresh(self._box(own.hi)[0])
        if other.hi is not None:
            flipped = zip(other.hi, self.shape, strict=True)
            self._refresh(tuple(slice(k - 1 - h, k) for h, k in flipped))
        for c in cells:
            self._refresh(c)
        event.dirty_cells += own.swept + other.swept
        event.label_delta += own.delta + other.delta
        event.full_recomputes += own.rebuilt
        return _corner(own.changed, len(self.shape), min) if own.changed else None


class DynamicFaultModel:
    """A mutating fault set with epoch-versioned incremental labels.

    ``inject``/``repair`` update the fault mask **in place** (router
    state holding the array stays current), advance ``epoch``, and
    incrementally maintain the closure of every direction class built
    so far; classes are built lazily, in opposite pairs, on first
    request (:meth:`labelled_for`).  Each event returns a
    :class:`FaultEvent` describing, per requested class, the dirty cone
    caches must invalidate.
    """

    def __init__(self, fault_mask: np.ndarray):
        self.fault_mask = np.array(fault_mask, dtype=bool)  # owned copy
        self.shape = tuple(self.fault_mask.shape)
        self.full_recompute_fraction = FULL_RECOMPUTE_FRACTION
        self.epoch = 0
        #: Every class whose closure is kept: the requested ones and
        #: their opposites.
        self._built: dict[tuple[int, ...], _DynamicClass] = {}
        #: The requested classes, which keep ``open`` and ``unsafe``.
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
            if key not in self._built:
                for cls in _DynamicClass.pair(orientation, self.fault_mask):
                    self._built[cls.orientation.signs] = cls
            cls = self._classes[key] = self._built[key]
            cls.open = ~cls.blocked
            cls.unsafe = cls.blocked | cls.cant
            self.stats["class_builds"] += 1
        return self._classes[key]

    def labelled_for(self, orientation: Orientation | None = None) -> LabelledGrid:
        """One direction class's labelled grid at the current epoch.

        Composed afresh from the class's two closures, so it is a
        snapshot: later events do not show through.
        """
        cls = self.class_for(orientation)
        status = compose_status(cls.faults, cls.blocked, cls.cant)
        return LabelledGrid(status=status, orientation=cls.orientation)

    def fault_count(self) -> int:
        return int(self.fault_mask.sum())

    # -- events ------------------------------------------------------------

    def inject(self, cells: Iterable[Sequence[int]]) -> FaultEvent:
        """Mark ``cells`` faulty; labels escalate incrementally."""
        return self._apply("inject", cells)

    def repair(self, cells: Iterable[Sequence[int]]) -> FaultEvent:
        """Mark ``cells`` healthy again; affected slabs are relabelled."""
        return self._apply("repair", cells)

    def _apply(self, kind: str, cells: Iterable[Sequence[int]]) -> FaultEvent:
        """Apply one event to the mask, to each closure once, then to
        each requested class's masks and counts."""
        inject = kind == "inject"
        mesh_cells = check_event_cells(cells, self.fault_mask, want_faulty=not inject)
        with obs.span(f"fault_{kind}", cat="online", cells=len(mesh_cells)) as sp:
            for c in mesh_cells:
                self.fault_mask[c] = inject
            self.epoch += 1
            event = FaultEvent(epoch=self.epoch, kind=kind, cells=tuple(mesh_cells))
            canon = {
                signs: [cls.orientation.map_coord(c) for c in mesh_cells]
                for signs, cls in self._built.items()
            }
            if inject:
                for signs, cls in self._built.items():
                    cls.inject(canon[signs])
            else:
                # Decided from the label counts before the event, so
                # both classes of a pair decide alike.
                limit = self.full_recompute_fraction * 2 * self.fault_mask.size
                slabs = {s: cls.slab(canon[s]) for s, cls in self._built.items()}
                for signs, cls in self._built.items():
                    partner = cls.partner.orientation.signs
                    cls.repair(canon[signs], slabs[signs] + slabs[partner] > limit)
            for signs, cls in self._classes.items():
                event.classes[signs] = cls.settle(canon[signs], event)
            self.stats["events"] += 1
            self.stats[kind + "s"] += 1
            self.stats["dirty_cells"] += event.dirty_cells
            self.stats["full_recomputes"] += event.full_recomputes
            sp.set(
                epoch=event.epoch,
                dirty_cells=event.dirty_cells,
                full_recomputes=event.full_recomputes,
            )
        return event
