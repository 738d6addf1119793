"""Concurrent query sessions and churn-aware DES re-stabilization.

Two pillars of the concurrent simulation core:

* **Session parity** — a batch of queries submitted as interleaved
  sessions and resolved by one ``drain()`` yields delivery verdicts,
  paths, hop counts, and per-query message costs element-wise identical
  to blocking per-query ``route()`` calls (property-tested over random
  meshes and fault patterns).
* **Churn exactness** — ``apply_event`` re-stabilizes incrementally:
  labels converge byte-identical to a from-scratch ``label_grid`` of
  the mutated mask, routing after arbitrary inject/repair histories
  stays exact against the reachability oracle, and drained results are
  stamped with the epoch they completed under.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.labelling import SAFE, label_grid
from repro.distributed.pipeline import DistributedMCCPipeline
from repro.mesh.topology import Mesh, Mesh2D
from repro.routing.oracle import minimal_path_exists
from tests.conftest import random_mask


def sample_canonical_pairs(rng, lab, count):
    """Random safe canonical-frame pairs for a labelled pattern."""
    cells = np.argwhere(lab == SAFE)
    pairs = []
    tries = 0
    while len(pairs) < count and tries < 50 * count:
        tries += 1
        i, j = rng.integers(0, len(cells), size=2)
        s = tuple(int(v) for v in np.minimum(cells[i], cells[j]))
        d = tuple(int(v) for v in np.maximum(cells[i], cells[j]))
        if lab[s] == SAFE and lab[d] == SAFE and s != d:
            pairs.append((s, d))
    return pairs


class TestSessionParity:
    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_batch_matches_serial_elementwise(self, seed, three_d):
        rng = np.random.default_rng(seed)
        shape = (5, 5, 5) if three_d else (8, 8)
        mask = random_mask(rng, shape, int(rng.integers(1, 9)))
        lab = label_grid(mask).status
        pairs = sample_canonical_pairs(rng, lab, 10)
        if not pairs:
            return
        serial_pipe = DistributedMCCPipeline(Mesh(shape), mask).build()
        serial = []
        for s, d in pairs:
            before = serial_pipe.net.stats.total_messages
            record = serial_pipe.route(s, d)
            # The payload-tag attribution equals the historical
            # before/after delta for a blocking query.
            assert record["msgs"] == (
                serial_pipe.net.stats.total_messages - before
            )
            serial.append(record)
        batch_pipe = DistributedMCCPipeline(Mesh(shape), mask).build()
        handles = [batch_pipe.submit(s, d) for s, d in pairs]
        batch = batch_pipe.drain()
        assert [h.result for h in handles] == batch
        for one, many in zip(serial, batch, strict=True):
            assert one["status"] == many["status"]
            assert one["path"] == many["path"]
            assert one["msgs"] == many["msgs"]

    def test_drain_orders_results_by_submission(self):
        pipe = DistributedMCCPipeline(Mesh2D(6), np.zeros((6, 6), dtype=bool))
        h2 = pipe.submit((0, 0), (5, 5))
        h1 = pipe.submit((1, 1), (2, 2))
        results = pipe.drain()
        assert [r["query_id"] for r in results] == [h2.query_id, h1.query_id]
        assert results[0]["status"] == results[1]["status"] == "delivered"

    def test_drain_empty_is_noop(self):
        pipe = DistributedMCCPipeline(Mesh2D(4), np.zeros((4, 4), dtype=bool))
        assert pipe.drain() == []

    def test_route_still_rejects_bad_sources(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[0, 0] = True
        pipe = DistributedMCCPipeline(Mesh2D(5), mask)
        with pytest.raises(ValueError):
            pipe.route((0, 0), (4, 4))
        with pytest.raises(ValueError):
            pipe.route((3, 3), (1, 1))

    def test_lenient_submit_resolves_bad_endpoints(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[0, 0] = True
        mask[4, 4] = True
        pipe = DistributedMCCPipeline(Mesh2D(5), mask).build()
        dead_src = pipe.submit((0, 0), (3, 3), strict=False)
        dead_dst = pipe.submit((1, 1), (4, 4), strict=False)
        results = pipe.drain()
        assert [r["status"] for r in results] == ["infeasible", "infeasible"]
        assert dead_src.result["reason"] == "source unsafe"
        assert dead_dst.result["reason"] == "dest unsafe"
        assert dead_src.result["msgs"] == 0


class TestChurnAwareDES:
    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=6, deadline=None)
    def test_labels_and_routing_exact_after_churn(self, seed, three_d):
        rng = np.random.default_rng(seed)
        shape = (5, 5, 5) if three_d else (7, 7)
        mask = random_mask(rng, shape, int(rng.integers(2, 8)))
        pipe = DistributedMCCPipeline(Mesh(shape), mask.copy()).build()
        for epoch in range(4):
            current = pipe.fault_mask
            pool = np.argwhere(~current if epoch % 2 == 0 else current)
            if len(pool) == 0:
                continue
            k = min(2, len(pool))
            picks = rng.choice(len(pool), size=k, replace=False)
            cells = [tuple(int(v) for v in pool[i]) for i in picks]
            info = pipe.apply_event(
                "inject" if epoch % 2 == 0 else "repair", cells
            )
            assert info["epoch"] == pipe.epoch == epoch + 1
            # Incremental labels == from-scratch labelling of the mask.
            want = label_grid(pipe.fault_mask).status
            assert np.array_equal(pipe.labels_grid(), want)
            # Delivery stays exact against the oracle.
            for s, d in sample_canonical_pairs(rng, want, 4):
                record = pipe.route(s, d)
                assert (record["status"] == "delivered") == (
                    minimal_path_exists(~pipe.fault_mask, s, d)
                ), (s, d, record["status"])
                assert record["epoch"] == pipe.epoch

    def test_event_flushes_inflight_at_submission_epoch(self):
        mask = np.zeros((6, 6), dtype=bool)
        pipe = DistributedMCCPipeline(Mesh2D(6), mask).build()
        pipe.submit((0, 0), (4, 4))
        pipe.submit((1, 0), (3, 3))
        info = pipe.apply_event("inject", [(5, 5)])
        flushed = info["flushed"]
        assert [r["status"] for r in flushed] == ["delivered", "delivered"]
        # Queries completed under the pre-event epoch.
        assert all(r["epoch"] == 0 for r in flushed)
        assert pipe.epoch == 1
        assert pipe.drain() == []

    def test_repaired_node_is_fresh(self):
        mask = np.zeros((6, 6), dtype=bool)
        mask[2, 2] = True
        pipe = DistributedMCCPipeline(Mesh2D(6), mask).build()
        pipe.apply_event("repair", [(2, 2)])
        assert not pipe.net.is_faulty((2, 2))
        assert pipe.labels_grid()[2, 2] == SAFE
        # The healed node routes like any safe node.
        record = pipe.route((2, 2), (5, 5))
        assert record["status"] == "delivered"
        assert len(record["path"]) - 1 == 6

    def test_event_rejects_wrong_state_and_duplicates(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[1, 1] = True
        pipe = DistributedMCCPipeline(Mesh2D(5), mask).build()
        with pytest.raises(ValueError, match="faulty"):
            pipe.apply_event("inject", [(1, 1)])
        with pytest.raises(ValueError, match="healthy"):
            pipe.apply_event("repair", [(0, 0)])
        with pytest.raises(ValueError, match="twice"):
            pipe.apply_event("inject", [(2, 2), (2, 2)])
        with pytest.raises(ValueError, match="unknown event"):
            pipe.apply_event("explode", [(2, 2)])

    def test_repair_restores_records_of_distant_sections(self):
        # Review-found regression: a healed node had its store cleared
        # but wall records deposited by a *distant, unaffected* section
        # (whose labels never changed) were never re-deposited.  The
        # lost owners must force that section to re-identify.
        mask = np.zeros((12, 12), dtype=bool)
        for cell in [(2, 9), (3, 9), (2, 10)]:
            mask[cell] = True
        victim = (1, 0)
        pipe = DistributedMCCPipeline(Mesh2D(12), mask.copy()).build()
        want = {
            (r["plane"], r["owner"], r["shadow_axis"], r["guard_axis"])
            for r in pipe.records_at(victim)
        }
        assert want, "scenario must deposit a record at the victim node"
        pipe.apply_event("inject", [victim])
        pipe.apply_event("repair", [victim])
        got = {
            (r["plane"], r["owner"], r["shadow_axis"], r["guard_axis"])
            for r in pipe.records_at(victim)
        }
        assert got == want

    def test_drain_releases_session_state(self):
        pipe = DistributedMCCPipeline(Mesh2D(6), np.zeros((6, 6), dtype=bool))
        handle = pipe.submit((0, 0), (5, 5))
        pipe.drain()
        assert handle.result["status"] == "delivered"
        assert handle.query_id not in pipe.net.nodes[(0, 0)].store["queries"]
        assert handle.query_id not in pipe.net.stats.query_messages

    def test_node_stores_stay_flat_across_batches(self):
        # Per-query state (session records, flood dedup markers) must
        # not outlive drain(): batch after batch through one pipeline,
        # the total node-store size stays where the build left it.
        mask = np.zeros((6, 6, 6), dtype=bool)
        for cell in [(2, 2, 2), (3, 2, 2), (2, 3, 3), (4, 4, 1)]:
            mask[cell] = True
        pipe = DistributedMCCPipeline(Mesh((6, 6, 6)), mask).build()
        pairs = [((0, 0, 0), (5, 5, 5)), ((0, 1, 0), (4, 5, 5)), ((1, 0, 0), (5, 4, 3))]

        def store_size():
            return sum(
                len(value) if hasattr(value, "__len__") else 1
                for node in pipe.net.nodes.values()
                for value in node.store.values()
            )

        sizes = [store_size()]
        for _ in range(3):
            handles = [pipe.submit(s, d) for s, d in pairs]
            pipe.drain()
            assert all(h.result["status"] == "delivered" for h in handles)
            sizes.append(store_size())
        assert sizes == [sizes[0]] * 4

    def test_restabilization_is_scoped(self):
        # A far-corner event must not re-run identification for an
        # untouched region at the opposite corner.
        mask = np.zeros((12, 12), dtype=bool)
        for cell in [(2, 2), (2, 3), (3, 2)]:
            mask[cell] = True
        pipe = DistributedMCCPipeline(Mesh2D(12), mask).build()
        sections_before = pipe.identified_sections()
        info = pipe.apply_event("inject", [(10, 10)])
        assert info["region_cells"] < 144 / 2
        # The old region's sections survived untouched; the new fault's
        # section was identified by the scoped restart.
        sections_after = pipe.identified_sections()
        assert set(sections_before) <= set(sections_after)
        want = label_grid(pipe.fault_mask).status
        assert np.array_equal(pipe.labels_grid(), want)
