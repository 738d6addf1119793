"""Exporter: Perfetto trace-event JSON.

:func:`write_perfetto` produces Chrome trace-event JSON — open the file
at https://ui.perfetto.dev (or ``chrome://tracing``) and the span stream
renders as a flame chart, one thread track per
:attr:`~repro.obs.tracer.Tracer.track`, with virtual-time bounds and
span attributes in the ``args`` pane.  The ``ts``/``dur`` fields are
wall time; everything else in an event is the deterministic virtual
stream that the byte-identity tests compare across replays and worker
layouts.
"""

from __future__ import annotations

import json
import os
from typing import Any, Iterable, Mapping

from repro.obs.tracer import INSTANT, Span

#: Microseconds per wall-clock second (trace-event ``ts``/``dur`` unit).
_US = 1e6


def _as_dicts(spans: Iterable[Span | Mapping[str, Any]]) -> list[dict[str, Any]]:
    return [sp.to_dict() if isinstance(sp, Span) else dict(sp) for sp in spans]


def perfetto_events(
    spans: Iterable[Span | Mapping[str, Any]], pid: int = 1
) -> list[dict[str, Any]]:
    """Chrome trace-event objects for a span stream.

    Durations become ``"X"`` complete events, instants ``"i"`` events.
    Wall stamps are rebased to the earliest span in the stream (worker
    processes have unrelated ``perf_counter`` epochs; rebasing to a
    shared zero keeps merged tracks on one axis even if their relative
    offsets are approximate).  Tracks map to ``tid`` in first-appearance
    order — deterministic because the merged stream itself is — and each
    gets a ``thread_name`` metadata event so Perfetto labels it.
    """
    dicts = _as_dicts(spans)
    events: list[dict[str, Any]] = []
    t_base = min((d["t0"] for d in dicts), default=0.0)
    tids: dict[str, int] = {}
    for d in dicts:
        tid = tids.get(d["track"])
        if tid is None:
            tid = tids[d["track"]] = len(tids) + 1
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": d["track"]},
                }
            )
        args = dict(d["attrs"])
        if d["vt0"] is not None:
            args["vt0"] = d["vt0"]
        if d["vt1"] is not None:
            args["vt1"] = d["vt1"]
        args["seq"] = d["seq"]
        args["depth"] = d["depth"]
        ts = (d["t0"] - t_base) * _US
        if d["kind"] == INSTANT:
            events.append(
                {
                    "name": d["name"],
                    "cat": d["cat"] or "default",
                    "ph": "i",
                    "s": "t",
                    "pid": pid,
                    "tid": tid,
                    "ts": ts,
                    "args": args,
                }
            )
        else:
            t1 = d["t1"] if d["t1"] is not None else d["t0"]
            events.append(
                {
                    "name": d["name"],
                    "cat": d["cat"] or "default",
                    "ph": "X",
                    "pid": pid,
                    "tid": tid,
                    "ts": ts,
                    "dur": (t1 - d["t0"]) * _US,
                    "args": args,
                }
            )
    return events


def write_perfetto(
    path: str | os.PathLike, spans: Iterable[Span | Mapping[str, Any]]
) -> int:
    """Write a Perfetto-loadable trace file; returns the event count."""
    events = perfetto_events(spans)
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, separators=(",", ":"))
        fh.write("\n")
    return len(events)
