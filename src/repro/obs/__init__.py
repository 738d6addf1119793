"""`repro.obs` — unified telemetry: spans, metrics, trace export.

The observability subsystem for the whole stack.  Three pieces:

* **Span tracer** (:mod:`repro.obs.tracer`): ``obs.span(...)`` context
  managers at the instrumented seams (routing batches, flood kernels,
  fault events, DES quiescence, distributed sessions, serve ticks,
  sweep workers).  Off by default; installing a :class:`Tracer` (or
  passing ``--trace out.json`` to any experiment CLI) turns it on.
* **Metrics registry** (:mod:`repro.obs.metrics`): labelled counters,
  gauges, and the latency :class:`Histogram` backing the serve layer's
  p50/p99 math.
* **Exporters** (:mod:`repro.obs.export`): Perfetto trace-event JSON
  (open in https://ui.perfetto.dev) and metrics JSONL.

Discipline (see DESIGN.md "Observability"): wall-clock reads happen
only through :mod:`repro.obs.clockio` (the one sanctioned D101 site);
wall stamps never enter ResultTables or determinism comparisons; the
virtual-time span stream is byte-identical across replays and worker
layouts.
"""

from repro.obs import clockio, export, metrics
from repro.obs.export import (
    perfetto_events,
    virtual_stream,
    write_metrics_jsonl,
    write_perfetto,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.tracer import (
    INSTANT,
    NULL_HANDLE,
    SPAN,
    Span,
    SpanHandle,
    Tracer,
    enabled,
    install,
    instant,
    span,
    traced,
    tracing,
    uninstall,
)

__all__ = [
    "INSTANT",
    "NULL_HANDLE",
    "SPAN",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanHandle",
    "Tracer",
    "clockio",
    "enabled",
    "export",
    "install",
    "instant",
    "metrics",
    "perfetto_events",
    "span",
    "traced",
    "tracing",
    "uninstall",
    "virtual_stream",
    "write_metrics_jsonl",
    "write_perfetto",
]
