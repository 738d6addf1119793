"""`repro.obs` — telemetry: spans, latency percentiles, trace export.

The observability subsystem for the whole stack.  Three pieces:

* **Span tracer** (:mod:`repro.obs.tracer`): ``obs.span(...)`` context
  managers at the instrumented seams (routing batches, flood kernels,
  fault events, DES quiescence, distributed sessions, serve ticks,
  sweep workers).  Off by default; ``obs.tracing(tracer)`` (or passing
  ``--trace out.json`` to any experiment CLI) turns it on.
* **Percentiles** (:mod:`repro.obs.metrics`): :func:`percentile`, the
  one arithmetic behind the serve layer's, the load harness's and
  T7's p50/p99 columns.
* **Exporter** (:mod:`repro.obs.export`): Perfetto trace-event JSON
  (open in https://ui.perfetto.dev).

Counters live where the tables read them: the DES's per-kind message
counts, per-session tags and drop gauges in
:class:`repro.simkit.stats.StatsCollector`, and the serve layer's SLO
fields in :class:`repro.serve.service.MetricsSnapshot`.

Discipline (see DESIGN.md "Observability"): wall-clock reads happen
only through :mod:`repro.obs.clockio` (the one sanctioned D101 site);
wall stamps never enter ResultTables or determinism comparisons; the
virtual-time span stream is byte-identical across replays and worker
layouts.
"""

from repro.obs import clockio, export, metrics
from repro.obs.export import perfetto_events, write_perfetto
from repro.obs.metrics import percentile
from repro.obs.tracer import (
    INSTANT,
    NULL_HANDLE,
    SPAN,
    Span,
    SpanHandle,
    Tracer,
    enabled,
    instant,
    span,
    tracing,
)

__all__ = [
    "INSTANT",
    "NULL_HANDLE",
    "SPAN",
    "Span",
    "SpanHandle",
    "Tracer",
    "clockio",
    "enabled",
    "export",
    "instant",
    "metrics",
    "percentile",
    "perfetto_events",
    "span",
    "tracing",
    "write_perfetto",
]
