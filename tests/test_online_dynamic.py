"""Tests for the online dynamic-fault subsystem (repro.online).

The load-bearing property: after ANY sequence of inject/repair events,
the incrementally maintained labels are byte-identical to a
from-scratch ``label_grid`` of the current mask in every direction
class, and the online routing service answers exactly like a cold
static service built on the current mask — which is precisely the
statement that the warm-started fixed points are sound and that scoped
cache invalidation never keeps a stale reach mask.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.labelling import closure_region, label_grid
from repro.mesh.coords import Coord
from repro.mesh.orientation import Orientation
from repro.online import DynamicFaultModel, OnlineRoutingService, dynamic_model
from repro.online.dynamic_model import FaultEvent
from repro.routing import engine
from repro.routing.batch import RoutingService
from tests.conftest import all_classes
from tests.test_labelling import _closure_reference, closure_by_rule, region_by_rule


def apply_script(target, script, on_event=None):
    """Drive a model or service through a normalized event script.

    ``target`` is anything with ``fault_mask``/``inject``/``repair``
    (a :class:`DynamicFaultModel` or an :class:`OnlineRoutingService`).
    ``script`` is a list of (kind_bit, cell_seeds); cells are resolved
    against the *current* mask so every event is valid, and duplicate
    draws collapse.
    """
    for kind_bit, seeds in script:
        current = target.fault_mask
        pool = np.argwhere(~current) if kind_bit else np.argwhere(current)
        if not len(pool):
            continue
        cells = sorted(
            {tuple(int(v) for v in pool[s % len(pool)]) for s in seeds}
        )
        event = (
            target.inject(cells) if kind_bit else target.repair(cells)
        )
        if on_event is not None:
            on_event(event, cells)
    return target


def mask_strategy(max_dim=3, min_density=0.0):
    """(shape, mask) for small 2-D/3-D meshes with random faults: up to
    a third of the cells, drawing at least ``min_density`` of them
    (duplicate draws collapse)."""

    @st.composite
    def build(draw):
        ndim = draw(st.integers(2, max_dim))
        shape = tuple(
            draw(st.integers(2, 5 if ndim == 3 else 7)) for _ in range(ndim)
        )
        n = int(np.prod(shape))
        flats = draw(
            st.lists(
                st.integers(0, n - 1),
                min_size=int(n * min_density),
                max_size=max(1, n // 3),
            )
        )
        mask = np.zeros(shape, dtype=bool)
        for f in flats:
            mask.flat[f] = True
        return shape, mask

    return build()


def script_strategy():
    return st.lists(
        st.tuples(
            st.booleans(),  # True = inject, False = repair
            st.lists(st.integers(0, 10_000), min_size=1, max_size=3),
        ),
        min_size=1,
        max_size=8,
    )


def _corner(cells, ndim, pick):
    return tuple(pick(c[a] for c in cells) for a in range(ndim))


class TwoClosureClass:
    """Reference: one direction class that keeps both of its closures.

    ``useless_blocked`` (the ``+1`` rule) and ``cant_blocked`` (the
    ``-1`` rule, reached through the reversed-axes identity), each
    updated per event with its own per-sign sweep — the per-class
    accounting that :class:`DynamicFaultModel`'s shared closures must
    reproduce.  ``inject``/``repair`` add the class's counts to the
    event and return its open-changed low corner (the origin on a
    fallback).
    """

    def __init__(self, orientation: Orientation, mesh_faults: np.ndarray):
        self.orientation = orientation
        self.faults = orientation.to_canonical(mesh_faults)
        self.shape = tuple(self.faults.shape)
        self.size = self.faults.size
        self.useless_blocked = closure_by_rule(self.faults, +1)
        self.cant_blocked = closure_by_rule(self.faults, -1)
        self.open = ~self.useless_blocked
        self.unsafe = self.useless_blocked | self.cant_blocked
        self.label_count = {
            +1: int((self.useless_blocked & ~self.faults).sum()),
            -1: int((self.cant_blocked & ~self.faults).sum()),
        }

    def _blocked(self, sign: int) -> np.ndarray:
        return self.useless_blocked if sign > 0 else self.cant_blocked

    def _refresh_box(self, lo, hi) -> None:
        sl = tuple(slice(a, b + 1) for a, b in zip(lo, hi, strict=True))
        useless = self.useless_blocked[sl]
        self.open[sl] = ~useless
        self.unsafe[sl] = useless | self.cant_blocked[sl]

    def _refresh_cells(self, cells) -> None:
        for c in cells:
            useless = self.useless_blocked[c]
            self.open[c] = not useless
            self.unsafe[c] = useless or self.cant_blocked[c]

    def _rule_holds(self, blocked, cell, sign) -> bool:
        for axis, c in enumerate(cell):
            n = c + sign
            if not 0 <= n < self.shape[axis]:
                return False
            if not blocked[cell[:axis] + (n,) + cell[axis + 1 :]]:
                return False
        return True

    def _box(self, sign, cells):
        ndim = len(self.shape)
        if sign > 0:
            return (0,) * ndim, _corner(cells, ndim, max)
        return _corner(cells, ndim, min), tuple(k - 1 for k in self.shape)

    @staticmethod
    def _volume(lo, hi) -> int:
        out = 1
        for a, b in zip(lo, hi, strict=True):
            out *= b - a + 1
        return out

    def inject(self, cells, event: FaultEvent) -> Coord | None:
        open_changed = [c for c in cells if self.open[c]]
        for sign in (+1, -1):
            blocked = self._blocked(sign)
            fresh = [c for c in cells if not blocked[c]]
            relabelled = len(cells) - len(fresh)
            self.label_count[sign] -= relabelled
            event.label_delta -= relabelled
            for c in fresh:
                blocked[c] = True
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
            grown = region_by_rule(blocked, sign, lo, hi)
            event.dirty_cells += self._volume(lo, hi)
            self.label_count[sign] += grown
            event.label_delta += grown
            if grown:
                if sign > 0:
                    diff = np.argwhere(blocked[sl] != before)
                    open_changed.extend(
                        tuple(int(v) + o for v, o in zip(row, lo, strict=True))
                        for row in diff
                    )
                self._refresh_box(lo, hi)
        self._refresh_cells(cells)
        ndim = len(self.shape)
        return _corner(open_changed, ndim, min) if open_changed else None

    def repair(self, cells, event: FaultEvent, fraction: float) -> Coord | None:
        boxes = {sign: self._box(sign, cells) for sign in (+1, -1)}
        sweep_volume = sum(
            self._volume(lo, hi)
            for sign, (lo, hi) in boxes.items()
            if self.label_count[sign] > 0
        )
        if sweep_volume > fraction * 2 * self.size:
            self.rebuild(event)
            return (0,) * len(self.shape)
        open_changed = list(cells)
        for sign in (+1, -1):
            blocked = self._blocked(sign)
            if self.label_count[sign] == 0:
                for c in cells:
                    blocked[c] = False
                changed = True
                kept = set()
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
            labels_before = int((before & ~self.faults[sl]).sum()) - len(cells)
            blocked[sl] = self.faults[sl]
            region_by_rule(blocked, sign, lo, hi)
            event.dirty_cells += self._volume(lo, hi)
            labels_after = int((blocked[sl] & ~self.faults[sl]).sum())
            self.label_count[sign] += labels_after - labels_before
            event.label_delta += labels_after - labels_before
            if sign > 0:
                diff = np.argwhere(blocked[sl] != before)
                open_changed.extend(
                    tuple(int(v) + o for v, o in zip(row, lo, strict=True))
                    for row in diff
                )
            self._refresh_box(lo, hi)
        self._refresh_cells(cells)
        return _corner(open_changed, len(self.shape), min)

    def rebuild(self, event: FaultEvent) -> None:
        self.useless_blocked[...] = closure_by_rule(self.faults, +1)
        self.cant_blocked[...] = closure_by_rule(self.faults, -1)
        before = self.label_count.copy()
        self.label_count = {
            +1: int((self.useless_blocked & ~self.faults).sum()),
            -1: int((self.cant_blocked & ~self.faults).sum()),
        }
        self._refresh_box((0,) * len(self.shape), tuple(k - 1 for k in self.shape))
        event.full_recomputes += 1
        event.dirty_cells += 2 * self.size
        event.label_delta += sum(self.label_count.values()) - sum(before.values())


class TwoClosureModel:
    """Reference model: every requested class keeps both closures."""

    def __init__(self, fault_mask: np.ndarray, fraction: float):
        self.fault_mask = np.array(fault_mask, dtype=bool)
        self.fraction = fraction
        self.classes: dict[tuple[int, ...], TwoClosureClass] = {}

    def request(self, orientation: Orientation) -> None:
        if orientation.signs not in self.classes:
            self.classes[orientation.signs] = TwoClosureClass(
                orientation, self.fault_mask
            )

    def apply(self, kind: str, cells) -> FaultEvent:
        for c in cells:
            self.fault_mask[c] = kind == "inject"
        event = FaultEvent(epoch=0, kind=kind, cells=tuple(cells))
        for signs, cls in self.classes.items():
            canon = [cls.orientation.map_coord(c) for c in cells]
            if kind == "inject":
                event.classes[signs] = cls.inject(canon, event)
            else:
                event.classes[signs] = cls.repair(canon, event, self.fraction)
        return event


class TestClosureRegion:
    def test_full_box_matches_closure(self):
        rng = np.random.default_rng(5)
        for shape in [(6, 7), (4, 5, 4)]:
            mask = rng.random(shape) < 0.3
            for sign in (+1, -1):
                want = _closure_reference(mask, sign) | mask
                got = mask.copy()
                region_by_rule(
                    got, sign, (0,) * len(shape), tuple(k - 1 for k in shape)
                )
                assert np.array_equal(want, got)

    def test_restricted_box_freezes_outside(self):
        blocked = np.zeros((5, 5), dtype=bool)
        blocked[4, 4] = True
        # Box excludes (3, 4)/(4, 3): nothing inside [0,2]^2 can change.
        grown = closure_region(blocked, (0, 0), (2, 2))
        assert grown == 0
        assert blocked.sum() == 1

    def test_empty_box_is_noop(self):
        blocked = np.zeros((4, 4), dtype=bool)
        assert closure_region(blocked, (2, 2), (1, 1)) == 0

    def test_returns_newly_blocked_count(self):
        # A full +corner pocket: (3,3) fault with neighbors (3,4),(4,3)
        # faulty makes... use a 2x2 notch: faults at (0,1),(1,0) and
        # (1,1) leave (0,0) useless.
        blocked = np.zeros((2, 2), dtype=bool)
        blocked[0, 1] = blocked[1, 0] = blocked[1, 1] = True
        grown = closure_region(blocked, (0, 0), (1, 1))
        assert grown == 1 and blocked[0, 0]


class TestIncrementalLabels:
    @settings(max_examples=60, deadline=None)
    @given(mask_strategy(), script_strategy(), st.integers(0, 3))
    def test_byte_identical_to_from_scratch(self, shape_mask, script, lazy_at):
        """Incremental labels == label_grid after every event, all classes."""
        shape, mask = shape_mask
        model = DynamicFaultModel(mask)
        orients = all_classes(shape)
        # Instantiate one class up front; the rest join mid-sequence to
        # cover lazily built classes receiving later events.
        model.labelled_for(orients[0])
        epochs = [model.epoch]
        step = [0]

        def check(event, cells):
            epochs.append(event.epoch)
            if step[0] == lazy_at:
                for o in orients:
                    model.labelled_for(o)
            step[0] += 1
            for signs, cls in model._classes.items():
                o = Orientation(signs, shape)
                want = label_grid(model.fault_mask, o)
                got = model.labelled_for(o)
                assert np.array_equal(want.status, got.status), (
                    f"class {signs} diverged at epoch {event.epoch}"
                )
                assert want.status.dtype == got.status.dtype
                # The two masks routing reads, maintained in place.
                assert np.array_equal(want.unsafe_mask, cls.unsafe)
                assert np.array_equal(want.open_mask, cls.open)
            # Each closure's label count stays exact (it gates the
            # repair fast path), requested or partner alike.
            for cls in model._built.values():
                assert cls.labels == int((cls.blocked & ~cls.faults).sum())

        apply_script(model, script, on_event=check)
        assert epochs == sorted(epochs) and len(set(epochs)) == len(epochs)

    @settings(max_examples=25, deadline=None)
    @given(mask_strategy(), script_strategy())
    def test_full_recompute_fallback_agrees(self, shape_mask, script):
        """fraction=0 forces the fallback; results must not change."""
        shape, mask = shape_mask
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dynamic_model, "FULL_RECOMPUTE_FRACTION", 0.0)
            always_full = DynamicFaultModel(mask)
        for o in all_classes(shape)[:2]:
            always_full.labelled_for(o)

        def check(event, cells):
            for signs, cls in always_full._classes.items():
                o = Orientation(signs, shape)
                want = label_grid(always_full.fault_mask, o)
                assert np.array_equal(want.status, always_full.labelled_for(o).status)
                assert np.array_equal(want.unsafe_mask, cls.unsafe)
                assert np.array_equal(want.open_mask, cls.open)

        apply_script(always_full, script, on_event=check)

    def test_epoch_and_stats_accounting(self):
        model = DynamicFaultModel(np.zeros((4, 4), dtype=bool))
        model.labelled_for()
        e1 = model.inject([(1, 1), (2, 2)])
        e2 = model.repair([(1, 1)])
        assert (e1.epoch, e2.epoch) == (1, 2)
        assert model.epoch == 2
        assert model.stats["events"] == 2
        assert model.stats["injects"] == 1
        assert model.stats["repairs"] == 1
        assert model.fault_count() == 1

    def test_invalid_events_raise(self):
        model = DynamicFaultModel(np.zeros((4, 4), dtype=bool))
        model.inject([(1, 1)])
        with pytest.raises(ValueError):
            model.inject([(1, 1)])  # already faulty
        with pytest.raises(ValueError):
            model.repair([(0, 0)])  # healthy
        with pytest.raises(ValueError):
            model.inject([(9, 9)])  # outside mesh
        with pytest.raises(ValueError):
            model.inject([(0, 0), (0, 0)])  # duplicate
        with pytest.raises(ValueError):
            model.inject([])  # empty
        assert model.epoch == 1  # failed events do not advance the epoch

    def test_useless_cell_surviving_repair_stays_labelled(self):
        # Faults on all + neighbors of (0,0) in 2-D: (0,1) and (1,0);
        # (0,0) is USELESS.  Repairing (0,1) with (1,1) also faulty
        # keeps (0,1) itself SAFE but leaves labels consistent.
        mask = np.zeros((3, 3), dtype=bool)
        mask[0, 1] = mask[1, 0] = mask[1, 1] = True
        model = DynamicFaultModel(mask)
        labelled = model.labelled_for()
        assert labelled.status[0, 0] == 2  # USELESS
        model.repair([(0, 1)])
        want = label_grid(model.fault_mask)
        assert np.array_equal(want.status, model.labelled_for().status)


def _cant_reach_corner():
    """A 3-D mask whose identity class has one CANT_REACH label,
    (1, 1, 1), and no USELESS label."""
    mask = np.zeros((3, 3, 3), dtype=bool)
    mask[0, 1, 1] = mask[1, 0, 1] = mask[1, 1, 0] = True
    return (3, 3, 3), mask


class TestAccountingReference:
    @settings(max_examples=120, deadline=None)
    @given(
        # Dense enough that closures hold labels, so repairs reach the
        # fallback decision and the slab sweeps.
        mask_strategy(min_density=1 / 6),
        script_strategy(),
        st.sampled_from([0.0, 0.75, 1.0]),
        st.lists(st.none() | st.integers(0, 8), min_size=8, max_size=8),
    )
    # Only the identity class is requested, and only its CANT_REACH
    # closure (its partner's) holds a label: the repair's fallback is
    # decided by the partner's slab.
    @example(_cant_reach_corner(), [(False, [0])], 0.0, [0] + [None] * 7)
    def test_counts_match_two_closure_classes(self, shape_mask, script, fraction, when):
        """One closure per class, counted per requested class, reads as
        if each class kept both of its closures: per event, the same
        ``dirty_cells``, ``label_delta``, ``full_recomputes`` and
        per-class dirty corners as :class:`TwoClosureModel`, and each
        closure's label count equals the reference's for that rule.
        Class ``i`` of ``all_classes`` is requested before the script
        (``when[i] == 0``), after event ``k`` (``k``), or never
        (``None``)."""
        shape, mask = shape_mask
        orients = all_classes(shape)
        when = when[: len(orients)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dynamic_model, "FULL_RECOMPUTE_FRACTION", fraction)
            model = DynamicFaultModel(mask)
        ref = TwoClosureModel(mask, fraction)
        step = [0]

        def request():
            for o, at in zip(orients, when, strict=True):
                if at == step[0]:
                    model.class_for(o)
                    ref.request(o)

        def check(event, cells):
            want = ref.apply(event.kind, cells)
            assert (event.dirty_cells, event.label_delta, event.full_recomputes) == (
                want.dirty_cells, want.label_delta, want.full_recomputes
            )
            assert event.classes == want.classes
            for signs, cls in model._classes.items():
                two = ref.classes[signs]
                assert cls.labels == two.label_count[+1]
                assert cls.partner.labels == two.label_count[-1]
                assert np.array_equal(cls.unsafe, two.unsafe)
                assert np.array_equal(cls.open, two.open)
            step[0] += 1
            request()

        request()
        apply_script(model, script, on_event=check)


class TestOnlineRoutingService:
    @settings(max_examples=20, deadline=None)
    @given(
        mask_strategy(),
        script_strategy(),
        st.sampled_from(["mcc", "rfb", "oracle", "blind"]),
        st.randoms(use_true_random=False),
    )
    def test_parity_with_cold_service(self, shape_mask, script, mode, pyrng):
        """Warm caches + events + scoped invalidation == cold rebuild."""
        shape, mask = shape_mask
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "REACH_CACHE_SIZE", 4)
            online = OnlineRoutingService(mask.copy(), mode=mode)
        cells = [tuple(c) for c in np.ndindex(shape)]

        def pairs():
            return [
                (pyrng.choice(cells), pyrng.choice(cells)) for _ in range(10)
            ]

        def check(event, _cells):
            batch = pairs()
            got = online.route_batch(batch)
            cold = RoutingService(
                online.fault_mask.copy(), mode=mode
            ).route_batch(batch)
            for g, c in zip(got, cold, strict=True):
                assert (g.delivered, g.path, g.feasible, g.stuck_at, g.reason) == (
                    c.delivered, c.path, c.feasible, c.stuck_at, c.reason
                )
                assert g.epoch == online.epoch
                assert c.epoch is None  # static services don't stamp

        check(None, None)  # warm the caches before the first event
        apply_script(online, script, on_event=check)

    @settings(max_examples=20, deadline=None)
    @given(
        mask_strategy(),
        script_strategy(),
        st.sampled_from(RoutingService.MODES),
        st.integers(0, 8),
    )
    def test_class_masks_match_cold_service(self, shape_mask, script, mode, early):
        """The mask contract: a class model is two masks, ``unsafe`` and
        ``_open``.  After every event, each class model the online
        service built holds exactly a cold service's masks for the
        current fault mask, in all four modes.  ``early`` classes are
        built before the first event, the rest after the script."""
        shape, mask = shape_mask
        online = OnlineRoutingService(mask.copy(), mode=mode)
        orients = all_classes(shape)
        for o in orients[:early]:
            online.router._model_for(o)

        def check(event, _cells):
            cold = RoutingService(online.fault_mask.copy(), mode=mode)
            for signs, got in online.router._models.items():
                want = cold._model_for(Orientation(signs, shape))
                assert np.array_equal(got.unsafe, want.unsafe), (mode, signs)
                assert np.array_equal(got._open, want._open), (mode, signs)

        apply_script(online, script, on_event=check)
        for o in orients:
            online.router._model_for(o)
        check(None, None)

    def test_submit_flush_answers_at_submission_epoch(self):
        mask = np.zeros((5, 5), dtype=bool)
        online = OnlineRoutingService(mask)
        t1 = online.submit((0, 0), (4, 4))
        t2 = online.submit((4, 4), (0, 0))
        event = online.inject([(2, 2)])  # flushes the queue first
        t3 = online.submit((0, 0), (4, 4))
        flushed = online.flush()
        assert set(flushed) == {t3}
        done = online.take_completed()
        assert set(done) == {t1, t2, t3}
        assert done[t1].epoch == 0 and done[t2].epoch == 0
        assert done[t3].epoch == event.epoch == 1
        assert online.take_completed() == {}
        assert online.flush() == {}

    def test_route_is_stamped_and_live(self):
        mask = np.zeros((4, 4), dtype=bool)
        online = OnlineRoutingService(mask)
        before = online.route((0, 0), (3, 3))
        assert before.delivered and before.epoch == 0
        # Wall off the destination corner: (3,3) becomes unreachable.
        online.inject([(2, 3), (3, 2)])
        after = online.route((0, 0), (3, 3))
        assert not after.delivered and after.epoch == 1
        online.repair([(2, 3)])
        healed = online.route((0, 0), (3, 3))
        assert healed.delivered and healed.epoch == 2

    def test_rfb_mode_served_incrementally(self):
        # The baseline model now has a block-local incremental form:
        # mode "rfb" serves routing across events instead of raising.
        mask = np.zeros((5, 5), dtype=bool)
        mask[2, 2] = True
        online = OnlineRoutingService(mask, mode="rfb")
        assert online.route((0, 0), (4, 4)).delivered
        online.inject([(2, 3)])
        assert online.epoch == 1
        result = online.route((0, 0), (4, 4))
        assert result.epoch == 1

    def test_feasible_batch_tracks_events(self):
        mask = np.zeros((4, 4), dtype=bool)
        online = OnlineRoutingService(mask)
        batch = [((0, 0), (3, 3)), ((3, 0), (0, 3))]
        assert online.feasible_batch(batch).all()
        online.inject([(2, 3), (3, 2)])
        got = online.feasible_batch(batch)
        assert not got[0] and got[1]

    def test_scoped_invalidation_retains_disjoint_cones(self):
        # A reach mask floods [0, dest] only: a cached low destination
        # survives an injection at the high corner of the same class,
        # while the cached high destination (whose cone contains the
        # event) is dropped.
        mask = np.zeros((6, 6), dtype=bool)
        online = OnlineRoutingService(mask)
        online.route((0, 0), (2, 2))  # identity class, dest (2, 2)
        online.route((0, 0), (5, 5))  # identity class, dest (5, 5)
        evicted_before = online.router.evicted
        online.inject([(5, 5)])
        assert online.router.retained > 0
        assert online.router.evicted > evicted_before
        model = online.router._models[(1, 1)]
        assert (2, 2) in model._reach and (5, 5) not in model._reach
        # And correctness after partial retention:
        cold = RoutingService(online.fault_mask.copy())
        for pair in [((0, 0), (4, 4)), ((4, 4), (0, 0)), ((1, 0), (0, 5))]:
            g = online.route(*pair)
            c = cold.route(*pair)
            assert (g.delivered, g.path, g.reason) == (
                c.delivered, c.path, c.reason
            )


class TestDynamicClassInternals:
    def test_arrays_alias_router_models(self):
        mask = np.zeros((4, 4), dtype=bool)
        online = OnlineRoutingService(mask)
        online.route((0, 0), (3, 3))
        signs = (1, 1)
        cls = online.model._classes[signs]
        model = online.router._models[signs]
        assert model._open is cls.open
        assert model.unsafe is cls.unsafe

    def test_dynamic_class_open_is_complement(self):
        rng = np.random.default_rng(3)
        mask = rng.random((5, 5)) < 0.25
        model = DynamicFaultModel(mask)
        cls = model.class_for()
        assert np.array_equal(cls.open, ~cls.blocked)
        assert np.array_equal(cls.unsafe, label_grid(mask).unsafe_mask)
        # One closure per class: the CANT_REACH closure is the opposite
        # class's USELESS closure, reversed, and shares its memory.
        assert cls.partner is model._built[(-1, -1)]
        assert cls.partner.partner is cls
        assert np.shares_memory(cls.cant, cls.partner.blocked)
        assert np.array_equal(cls.cant, _closure_reference(mask, -1) | mask)
        assert (-1, -1) not in model._classes  # built, not requested
