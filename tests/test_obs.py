"""Tests for :mod:`repro.obs`: tracer, metrics, exporters, integration.

The integration tests run the real T4-small sweep with ``trace=`` and
pin the acceptance properties: the Perfetto JSON validates against the
trace-event schema, spans cover at least four layers of the stack, the
**virtual** span stream is byte-identical across worker counts and
replays, result tables are unchanged by tracing, and a run with
tracing off records exactly zero spans.

Byte-identity across runs *in one process* requires equal cache state:
the content-addressed model caches are process-global, and a warm
cache legitimately skips work (fewer kernel spans).  Tests therefore
clear the caches before every compared run — fresh-process replays are
naturally cold.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import obs
from repro.core.model_cache import clear_labelling_cache
from repro.parallel.sharding import SweepSpec, run_sweep
from repro.serve.service import MetricsSnapshot
from repro.simkit.stats import StatsCollector
from repro.simkit.trace import TraceLog
from repro.util.records import check_header, read_jsonl


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    """Every test starts and ends with tracing uninstalled."""
    obs.uninstall()
    yield
    obs.uninstall()


# -- tracer ------------------------------------------------------------------


class TestTracer:
    def test_nested_spans_record_entry_order_and_depth(self):
        tracer = obs.Tracer()
        with tracer.span("outer", cat="a"):
            with tracer.span("inner", cat="b", k=1) as sp:
                sp.set(done=True)
        names = [s.name for s in tracer.spans]
        assert names == ["outer", "inner"]
        outer, inner = tracer.spans
        assert (outer.depth, inner.depth) == (0, 1)
        assert outer.seq < inner.seq
        assert inner.attrs == {"k": 1, "done": True}
        assert outer.t1 >= outer.t0 >= 0.0

    def test_instant_has_zero_duration_kind(self):
        tracer = obs.Tracer()
        tracer.instant("tick", cat="x", n=3)
        (mark,) = tracer.spans
        assert mark.kind == obs.INSTANT
        assert mark.attrs == {"n": 3}

    def test_module_level_span_noop_when_uninstalled(self):
        assert not obs.enabled()
        with obs.span("anything", cat="x") as sp:
            sp.set(ignored=1)  # NULL_HANDLE swallows everything
            sp.set_vt(start=0.0, end=1.0)
        assert obs.instant("tick") is None
        assert sp is obs.NULL_HANDLE

    def test_install_routes_module_level_calls(self):
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            assert obs.enabled()
            with obs.span("work", cat="x"):
                pass
            mark = obs.instant("tick")
            assert mark is not None
        assert not obs.enabled()
        assert [s.name for s in tracer.spans] == ["work", "tick"]

    def test_traced_decorator(self):
        tracer = obs.Tracer()

        @obs.traced("f", cat="x")
        def f(a, b):
            return a + b

        assert f(1, 2) == 3  # works with tracing off
        with obs.tracing(tracer):
            assert f(3, 4) == 7
        assert [s.name for s in tracer.spans] == ["f"]

    def test_absorb_reassigns_seq_in_arrival_order(self):
        worker = obs.Tracer(track="w0")
        with worker.span("a", cat="x"):
            pass
        with worker.span("b", cat="x"):
            pass
        merged = obs.Tracer()
        with merged.span("local", cat="x"):
            pass
        merged.absorb([s.to_dict() for s in worker.spans])
        assert [s.name for s in merged.spans] == ["local", "a", "b"]
        seqs = [s.seq for s in merged.spans]
        assert seqs == sorted(seqs) and len(set(seqs)) == 3
        assert merged.spans[1].track == "w0"


# -- metrics -----------------------------------------------------------------


class TestMetrics:
    def test_histogram_percentile_matches_numpy_exactly(self):
        rng = np.random.default_rng(11)
        values = rng.exponential(1.0, size=97).tolist()
        hist = obs.Histogram("lat")
        for v in values:
            hist.observe(v)
        for q in (50, 90, 99):
            assert hist.percentile(q) == float(
                np.percentile(np.asarray(values, dtype=float), q)
            )
        assert hist.max() == max(values)
        assert obs.Histogram("empty").percentile(50) == 0.0

    def test_registry_get_or_create_and_labels(self):
        reg = obs.MetricsRegistry()
        c1 = reg.counter("msgs", kind="probe")
        c1.inc(2)
        reg.counter("msgs", kind="probe").inc()
        assert c1.value == 3
        with pytest.raises(ValueError):
            c1.inc(-1)
        g = reg.gauge("depth")
        g.update_max(4.0)
        g.update_max(2.0)
        assert g.value == 4.0
        rows = reg.rows()
        assert {r["name"] for r in rows} == {"msgs", "depth"}
        assert {"kind": "probe"} in [r["labels"] for r in rows]

    def test_metrics_jsonl_round_trip(self, tmp_path):
        reg = obs.MetricsRegistry()
        reg.counter("msgs", kind="probe").inc(5)
        reg.histogram("lat").observe(0.25)
        out = tmp_path / "metrics.jsonl"
        obs.write_metrics_jsonl(out, reg, title="smoke")
        header, rows, _clean = read_jsonl(out)
        check_header(header, out, "repro.metrics", 1)
        assert header["title"] == "smoke"
        assert {r["name"] for r in rows} == {"msgs", "lat"}
        hist_row = next(r for r in rows if r["name"] == "lat")
        assert hist_row["count"] == 1 and hist_row["p50"] == 0.25


# -- exporters ---------------------------------------------------------------


def _collect_small_trace():
    tracer = obs.Tracer(track="main")
    with tracer.span("outer", cat="a", n=1):
        with tracer.span("inner", cat="b") as sp:
            sp.set_vt(start=0.0, end=2.5)
    tracer.instant("mark", cat="a")
    return tracer


class TestPerfettoExport:
    def test_event_schema(self):
        tracer = _collect_small_trace()
        events = obs.perfetto_events(tracer.spans)
        meta = [e for e in events if e["ph"] == "M"]
        assert len(meta) == 1 and meta[0]["name"] == "thread_name"
        complete = [e for e in events if e["ph"] == "X"]
        for e in complete:
            assert set(e) >= {"name", "cat", "ph", "pid", "tid", "ts", "dur", "args"}
            assert e["ts"] >= 0 and e["dur"] >= 0
        inner = next(e for e in complete if e["name"] == "inner")
        assert inner["args"]["vt0"] == 0.0 and inner["args"]["vt1"] == 2.5
        (instant,) = [e for e in events if e["ph"] == "i"]
        assert instant["s"] == "t" and "dur" not in instant

    def test_write_perfetto_file_shape(self, tmp_path):
        tracer = _collect_small_trace()
        out = tmp_path / "trace.json"
        count = obs.write_perfetto(out, tracer.spans)
        doc = json.loads(out.read_text())
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        assert len(doc["traceEvents"]) == count

    def test_virtual_stream_strips_wall_fields_only(self):
        tracer = _collect_small_trace()
        stream = obs.virtual_stream(tracer.spans)
        assert len(stream) == len(tracer.spans)
        for d in stream:
            assert "t0" not in d and "t1" not in d
            assert {"name", "cat", "track", "seq", "depth", "kind"} <= set(d)


# -- integration: traced T4-small run ----------------------------------------


def t4_spec(fault_counts=(2, 4)):
    return SweepSpec(
        "t4", (5, 5, 5), fault_counts, trials=1, seed=7, params={"queries": 4}
    )


def _traced_t4(tmp_path, tag, workers):
    clear_labelling_cache()
    out = tmp_path / f"{tag}.json"
    table = run_sweep(t4_spec(), workers=workers, trace=str(out))
    doc = json.loads(out.read_text())
    return table, doc["traceEvents"]


class TestTracedSweep:
    def test_perfetto_covers_four_layers_and_validates(self, tmp_path):
        _table, events = _traced_t4(tmp_path, "w1", workers=1)
        cats = {e.get("cat") for e in events if e["ph"] == "X"}
        assert len(cats & {"routing", "kernel", "des", "distributed", "harness"}) >= 4
        for e in events:
            assert isinstance(e["pid"], int) and isinstance(e["tid"], int)
            if e["ph"] == "X":
                assert e["dur"] >= 0

    def test_virtual_stream_identical_across_workers_and_replay(self, tmp_path):
        streams = {}
        for tag, workers in (("w1", 1), ("w2", 2), ("replay", 1)):
            _table, events = _traced_t4(tmp_path, tag, workers=workers)
            # Wall-clock fields (ts/dur, from per-process perf_counter
            # epochs) are the only run-dependent part of the export.
            virtual = [
                {k: v for k, v in e.items() if k not in ("ts", "dur")}
                for e in events
            ]
            streams[tag] = json.dumps(virtual, sort_keys=True)
        assert streams["w1"] == streams["w2"] == streams["replay"]

    def test_tables_unchanged_by_tracing(self, tmp_path):
        clear_labelling_cache()
        untraced = run_sweep(t4_spec(), workers=1)
        traced, _events = _traced_t4(tmp_path, "traced", workers=1)
        assert traced.render() == untraced.render()

    def test_zero_spans_when_disabled(self):
        tracer = obs.Tracer()
        clear_labelling_cache()
        run_sweep(t4_spec([2]), workers=1)
        assert len(tracer) == 0 and not obs.enabled()


# -- satellite fixes ---------------------------------------------------------


class TestTraceLogRing:
    def test_ring_keeps_newest_events(self):
        log = TraceLog(limit=3)
        for i in range(7):
            log.record(float(i), "K", (0, 0), (0, 1))
        assert len(log) == 3 and log.dropped == 4
        assert [e.time for e in log.events] == [4.0, 5.0, 6.0]
        assert "evicted" in log.render()

    def test_record_emits_obs_instant_with_virtual_time(self):
        tracer = obs.Tracer()
        log = TraceLog()
        with obs.tracing(tracer):
            log.record(3.5, "probe", (0, 0), (0, 1), note="hi")
        (mark,) = tracer.spans
        assert mark.kind == obs.INSTANT and mark.name == "probe"
        assert mark.vt0 == 3.5 and mark.attrs["note"] == "hi"

    def test_render_and_filter_still_work(self):
        log = TraceLog()
        log.record(1.0, "K", (0, 0), (0, 1), note="hello")
        assert "hello" in log.render()
        assert len([e for e in log.events if e.kind == "K"]) == 1


class TestStatsByQuery:
    def test_on_frame_attributes_latency_to_query(self):
        stats = StatsCollector()
        stats.on_frame(1.0, query=7)
        stats.on_frame(2.0, query=7)
        stats.on_frame(5.0, query=9)
        stats.on_frame(0.5)  # untagged: overall only
        assert stats.frame_latencies == [1.0, 2.0, 5.0, 0.5]
        assert dict(stats.frame_latencies_by_query) == {7: [1.0, 2.0], 9: [5.0]}

    def test_publish_bridges_to_registry(self):
        stats = StatsCollector()
        stats.on_send("probe", query=3)
        stats.on_send("probe")
        stats.on_frame(2.0, query=3)
        reg = obs.MetricsRegistry()
        stats.publish(reg)
        assert reg.counter("sim_messages", kind="probe").value == 2
        assert reg.counter("sim_query_messages", query=3).value == 1
        assert reg.histogram("sim_frame_latency").percentile(50) == 2.0
        assert reg.histogram("sim_frame_latency", query=3).count == 1


def test_metrics_snapshot_publish():
    snap = MetricsSnapshot(
        requests=4,
        completed=3,
        shed=1,
        events=0,
        batches=2,
        max_batch=2,
        mean_batch=1.5,
        p50_latency=0.1,
        p99_latency=0.2,
        max_latency=0.2,
        throughput=30.0,
        epoch_lag_mean=0.0,
        epoch_lag_max=0,
        cache_hit_rate=1.0,
        epoch=0,
        queue_depth=0,
    )
    reg = obs.MetricsRegistry()
    snap.publish(reg)
    assert reg.counter("serve_requests").value == 4
    assert reg.gauge("serve_p99_latency").value == 0.2
