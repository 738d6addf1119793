"""Tests for cross-pattern labelling reuse (repro.core.model_cache)."""

import numpy as np
import pytest

from repro.core import model_cache
from repro.core.conditions import ConditionEvaluator
from repro.core.labelling import label_grid
from repro.core.model_cache import (
    LABELLING_CACHE,
    cached_class_assets,
    cached_labelled,
    clear_labelling_cache,
)
from repro.mesh.orientation import Orientation
from repro.routing.batch import RoutingService
from tests.conftest import all_classes


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_labelling_cache()
    yield
    clear_labelling_cache()


def some_mask():
    mask = np.zeros((6, 6), dtype=bool)
    mask[2, 3] = mask[3, 3] = mask[3, 2] = True
    return mask


class TestCachedLabelled:
    def test_same_content_shares_one_labelling(self):
        a = cached_labelled(some_mask(), Orientation.identity((6, 6)))
        b = cached_labelled(some_mask(), Orientation.identity((6, 6)))
        assert a is b  # content-addressed: distinct arrays, one entry

    def test_matches_label_grid(self):
        for orientation in all_classes((6, 6)):
            want = label_grid(some_mask(), orientation)
            got = cached_labelled(some_mask(), orientation)
            assert np.array_equal(want.status, got.status)

    def test_cached_status_is_frozen(self):
        labelled = cached_labelled(some_mask(), Orientation.identity((6, 6)))
        with pytest.raises(ValueError):
            labelled.status[0, 0] = 3

    def test_distinct_contents_distinct_entries(self):
        other = some_mask()
        other[0, 0] = True
        a = cached_labelled(some_mask(), Orientation.identity((6, 6)))
        b = cached_labelled(other, Orientation.identity((6, 6)))
        assert a is not b
        assert not np.array_equal(a.status, b.status)

    def test_kind_namespaces_do_not_collide(self):
        from repro.baselines.rfb import rfb_labelled

        mcc = cached_labelled(some_mask(), Orientation.identity((6, 6)))
        rfb = cached_labelled(
            some_mask(),
            Orientation.identity((6, 6)),
            labeller=rfb_labelled,
            kind="rfb",
        )
        assert mcc is not rfb


class TestAssetsSharing:
    def test_router_and_evaluator_share_labelling(self, closure_runs):
        mask = some_mask()
        service = RoutingService(mask, mode="mcc")
        evaluator = ConditionEvaluator(mask.copy())
        orientation = Orientation.identity((6, 6))
        model = service._model_for(orientation)
        assert evaluator.endpoint_safe((0, 0), (5, 5))
        assert evaluator.exists((0, 0), (5, 5))
        assert closure_runs == [+1, -1]  # one class labelled once
        labelled = cached_labelled(mask, orientation)
        assert np.array_equal(model.unsafe, labelled.unsafe_mask)

    def test_two_routers_same_pattern_label_once(self, closure_runs):
        mask = some_mask()
        r1 = RoutingService(mask, mode="mcc")
        r2 = RoutingService(mask.copy(), mode="mcc")
        orientation = Orientation.identity((6, 6))
        a, b = r1._model_for(orientation), r2._model_for(orientation)
        assert closure_runs == [+1, -1]
        assert np.array_equal(a.unsafe, b.unsafe)
        assert np.array_equal(a._open, b._open)

    def test_assets_reuse_labelled_entry(self):
        orientation = Orientation.identity((6, 6))
        labelled = cached_labelled(some_mask(), orientation)
        assets = cached_class_assets(some_mask(), orientation)
        assert assets[0] is labelled

    def test_routing_results_unchanged_by_cache(self):
        mask = some_mask()
        RoutingService(mask, mode="mcc").route((0, 0), (5, 5))  # warm it
        cached = RoutingService(mask, mode="mcc").route((0, 0), (5, 5))
        clear_labelling_cache()
        fresh = RoutingService(mask, mode="mcc").route((0, 0), (5, 5))
        assert (cached.delivered, cached.path) == (fresh.delivered, fresh.path)

    def test_lru_bound_holds(self):
        orientation = Orientation.identity((4, 4))
        for i in range(LABELLING_CACHE.maxsize + 10):
            mask = np.zeros((4, 4), dtype=bool)
            mask.flat[i % 16] = True
            mask.flat[(i * 7 + 3) % 16] = True
            cached_labelled(mask, orientation)
        assert len(LABELLING_CACHE) <= LABELLING_CACHE.maxsize


class TestModelKinds:
    def test_only_mcc_models_build_mccs_and_walls(self, monkeypatch):
        """rfb, oracle and blind class models read two masks and build
        no MCCs or walls; mcc models still build both (the assets entry
        of :func:`cached_class_assets`)."""
        calls = []
        for name in ("extract_mccs", "build_walls"):
            real = getattr(model_cache, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(model_cache, name, counted)
        mask = np.zeros((5, 5, 5), dtype=bool)
        for cell in [(2, 2, 2), (2, 3, 2), (3, 2, 2), (1, 4, 3)]:
            mask[cell] = True
        classes = all_classes(mask.shape)
        for mode in ("rfb", "oracle", "blind"):
            service = RoutingService(mask, mode=mode)
            for orientation in classes:
                service._model_for(orientation)
        assert calls == []
        service = RoutingService(mask, mode="mcc")
        for orientation in classes:
            service._model_for(orientation)
        assert calls.count("extract_mccs") == calls.count("build_walls") == 8
