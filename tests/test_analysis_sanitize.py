"""Seeded-violation tests for the three runtime sanitizers.

Each sanitizer gets a clean run over the real subsystem it guards
(asserting it actually checked something) plus at least one seeded
violation that must raise its dedicated error.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.sanitize import (
    CacheMutationError,
    DigestGuardedCache,
    EpochViolationError,
    SessionBleedError,
    SessionShadow,
    TieBreakHazardError,
    _ShadowStore,
    enabled,
    maybe_sanitize_network,
    maybe_sanitize_online_service,
    sanitize_network,
    sanitize_online_service,
    value_digest,
)
from repro.core.model_cache import cached_class_assets, cached_labelled
from repro.distributed.pipeline import DistributedMCCPipeline
from repro.mesh.topology import Mesh
from repro.online.service import OnlineRoutingService


def small_mask() -> np.ndarray:
    mask = np.zeros((6, 6), dtype=bool)
    mask[2, 3] = True
    mask[3, 2] = True
    return mask


# -- enable flag -------------------------------------------------------------


def test_enabled_flag_parsing(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    assert not enabled()
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert not enabled()
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert enabled()


def test_maybe_hooks_are_noops_when_disabled(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    service = OnlineRoutingService(small_mask())
    assert maybe_sanitize_online_service(service) is None
    pipe = DistributedMCCPipeline(Mesh((5, 5)), small_mask()[:5, :5])
    assert maybe_sanitize_network(pipe.net) is None


# -- frozen-cache write barrier ----------------------------------------------


def test_value_digest_sees_nested_arrays():
    a = np.arange(6).reshape(2, 3)
    before = value_digest({"x": [a], "y": 1})
    a[0, 0] = 99
    assert value_digest({"x": [a], "y": 1}) != before


def test_digest_guarded_cache_clean_hits():
    cache = DigestGuardedCache(4, label="unit")
    cache.put("k", np.arange(4))
    assert cache.get("k") is not None
    assert cache.verified_hits == 1


def test_digest_guarded_cache_detects_alias_mutation():
    cache = DigestGuardedCache(4, label="unit")
    arr = np.arange(4)
    arr.setflags(write=False)
    cache.put("k", arr)
    alias = cache.get("k")
    alias.setflags(write=True)
    alias[0] = 99
    with pytest.raises(CacheMutationError):
        cache.get("k")


def test_digest_guarded_cache_prunes_digests_on_eviction():
    cache = DigestGuardedCache(2, label="unit")
    for i in range(5):
        cache.put(i, np.arange(i + 1))
    assert len(cache._digests) <= 2


def test_barrier_clean_on_real_labelling_cache(sanitized_cache_barrier):
    mask = small_mask()
    first = cached_labelled(mask)
    again = cached_labelled(mask)
    assert again is first
    cached_class_assets(mask)
    cached_class_assets(mask)
    assert sanitized_cache_barrier.cache.verified_hits >= 2


def test_barrier_catches_rewritable_alias_on_real_cache(
    sanitized_cache_barrier,
):
    mask = small_mask()
    labelled = cached_labelled(mask)
    alias = labelled.status
    alias.setflags(write=True)
    alias[0, 0] = 7
    with pytest.raises(CacheMutationError):
        cached_labelled(mask)


def test_frozen_assets_refuse_direct_writes(sanitized_cache_barrier):
    assets = cached_class_assets(small_mask())
    labelled, mccs, walls = assets
    with pytest.raises(ValueError):
        labelled.status[0, 0] = 1
    with pytest.raises(ValueError):
        mccs.labels[0, 0] = 1
    assert all(not m.cells.flags.writeable for m in mccs.mccs)
    assert walls
    digest = value_digest(assets)
    for wall in walls:
        for heights in (wall.tops, wall.bottoms):
            assert not heights.flags.writeable
            with pytest.raises(ValueError):
                heights[...] = 0
        assert not wall.safe.flags.writeable
        # Derived masks are fresh read-only arrays that the wall does
        # not keep: reading them must not change the entry's digest.
        for mask in wall.records.values():
            assert not mask.flags.writeable
    assert value_digest(assets) == digest
    assert cached_class_assets(small_mask()) is assets  # barrier re-verifies


# -- DES session-isolation sanitizer -----------------------------------------


def run_query_batch(pipe: DistributedMCCPipeline, pairs) -> None:
    handles = [pipe.submit(s, d) for s, d in pairs]
    pipe.drain()
    for handle in handles:
        assert handle.result is not None


def test_session_sanitizer_clean_on_real_pipeline():
    mask = np.zeros((7, 7), dtype=bool)
    mask[3, 3] = True
    mask[3, 4] = True
    pipe = DistributedMCCPipeline(Mesh((7, 7)), mask).build()
    shadow = sanitize_network(pipe.net)
    assert sanitize_network(pipe.net) is shadow  # idempotent
    run_query_batch(
        pipe, [((0, 0), (6, 6)), ((1, 0), (6, 5)), ((0, 2), (5, 6))]
    )
    assert shadow.checked_accesses > 0


def test_session_bleed_raises():
    shadow = SessionShadow()
    store = _ShadowStore(shadow, (0, 0), {"queries": {1: "a", 2: "b"}})
    shadow.before_event(1.0)
    shadow.session = 1
    store["queries"][1]  # own session: fine
    with pytest.raises(SessionBleedError):
        store["queries"][2]


def test_tie_break_hazard_raises():
    """A session event and an unattributed protocol event racing on the
    same (node, query) state at one timestamp is order-dependent."""
    shadow = SessionShadow()
    store = _ShadowStore(shadow, (0, 0), {"queries": {1: "a", 2: "b"}})
    shadow.before_event(2.5)
    shadow.session = 1
    store["queries"][1] = "write"
    shadow.after_event()
    shadow.before_event(2.5)  # same virtual time, different event
    with pytest.raises(TieBreakHazardError):
        store["queries"].pop(1, None)


def test_same_session_same_timestamp_is_fine():
    shadow = SessionShadow()
    store = _ShadowStore(shadow, (0, 0), {"queries": {1: "a"}})
    shadow.before_event(2.5)
    shadow.session = 1
    store["queries"][1] = "w1"
    shadow.after_event()
    shadow.before_event(2.5)
    shadow.session = 1
    store["queries"][1] = "w2"
    shadow.after_event()


def test_new_timestamp_clears_conflict_window():
    shadow = SessionShadow()
    store = _ShadowStore(shadow, (0, 0), {"queries": {1: "a"}})
    shadow.before_event(1.0)
    shadow.session = 1
    store["queries"][1] = "w"
    shadow.after_event()
    shadow.before_event(2.0)  # later time: a genuine ordering exists
    store["queries"][1] = "w"
    shadow.after_event()


def test_accesses_outside_events_are_ignored():
    shadow = SessionShadow()
    store = _ShadowStore(shadow, (0, 0), {"queries": {1: "a"}})
    shadow.before_event(1.0)
    shadow.session = 2
    shadow.after_event()
    store["queries"][1]  # drain()-style bookkeeping between events
    assert shadow.checked_accesses == 0


def test_session_sanitizer_catches_seeded_bleed_in_network(monkeypatch):
    """A handler that writes to a foreign session's state must fail.

    Built with self-instrumentation off so the tampering sits *under*
    the sanitizer's wrappers, like real buggy protocol code would.
    """
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    mask = np.zeros((5, 5), dtype=bool)
    pipe = DistributedMCCPipeline(Mesh((5, 5)), mask).build()

    # The first query message lands on a neighbor of the source; make
    # both leak into a foreign session *before* the sanitizer wraps the
    # handlers, as real buggy protocol code would.
    def tamper(coord):
        node = pipe.net.nodes[coord]
        original = node.on_message

        def leaky(msg):
            if msg.payload.get("query") is not None:
                node.store.setdefault("queries", {})[-999] = "bleed"
            return original(msg)

        node.on_message = leaky

    tamper((1, 0))
    tamper((0, 1))
    sanitize_network(pipe.net)
    with pytest.raises(SessionBleedError):
        run_query_batch(pipe, [((0, 0), (4, 4))])


# -- epoch sanitizer ---------------------------------------------------------


def test_epoch_sanitizer_clean_run():
    service = OnlineRoutingService(small_mask())
    shadow = sanitize_online_service(service)
    assert sanitize_online_service(service) is shadow  # idempotent
    t1 = service.submit((0, 0), (5, 5))
    t2 = service.submit((5, 0), (0, 5))
    flushed = service.flush()
    assert set(flushed) == {t1, t2}
    assert shadow.checked_results == 2


def test_epoch_sanitizer_allows_flush_before_event_protocol():
    service = OnlineRoutingService(small_mask())
    shadow = sanitize_online_service(service)
    service.submit((0, 0), (5, 5))
    service.inject([(1, 1)])  # flushes first, then advances the epoch
    service.submit((5, 0), (0, 5))
    service.flush()
    assert shadow.checked_results == 2


def test_epoch_sanitizer_catches_unflushed_model_mutation():
    service = OnlineRoutingService(small_mask())
    sanitize_online_service(service)
    service.submit((0, 0), (5, 5))
    # Mutate the model directly, bypassing the flush-before-event path.
    event = service.model.inject([(1, 1)])
    service.router.apply_event(event)
    with pytest.raises(EpochViolationError):
        service.flush()
