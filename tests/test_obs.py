"""Tests for :mod:`repro.obs`: tracer, percentiles, exporter, integration.

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

#: Wall-clock span fields — excluded from every determinism comparison.
WALL_FIELDS = ("t0", "t1")


def virtual_stream(spans):
    """The deterministic view of a span stream: everything but wall time.

    Byte-identical (after ``json_line``) across replays and
    shard/worker layouts for the same workload.
    """
    return [
        {k: v for k, v in sp.to_dict().items() if k not in WALL_FIELDS}
        for sp in spans
    ]


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    """Every test runs with no tracer installed around it."""
    assert not obs.enabled()
    yield
    assert not obs.enabled()


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


# -- percentiles -------------------------------------------------------------


class TestMetrics:
    def test_histogram_percentile_matches_numpy_exactly(self):
        rng = np.random.default_rng(11)
        values = rng.exponential(1.0, size=97).tolist()
        for q in (50, 90, 99):
            assert obs.percentile(values, q) == float(
                np.percentile(np.asarray(values, dtype=float), q)
            )
        assert obs.percentile([], 50) == 0.0


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
        stream = virtual_stream(tracer.spans)
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
