#!/usr/bin/env python
"""Observability demo: trace a sweep, export Perfetto, dump metrics.

Runs the T4 DES-routing sweep on a small mesh with ``trace=`` set,
writes the Chrome/Perfetto trace-event JSON (load it at
``https://ui.perfetto.dev``), and prints the deterministic half of the
telemetry: which spans fired, per layer, in virtual order.  Wall-clock
durations are real timings and change run to run; everything printed
here replays exactly.
"""

import json
import tempfile
from collections import Counter
from pathlib import Path

from repro import SweepSpec, obs, run_sweep
from repro.simkit.stats import StatsCollector

SHAPE = (5, 5, 5)
FAULT_COUNTS = [2, 4]


def main() -> None:
    # 1. run_sweep takes trace= (the CLIs expose it as --trace): the
    #    sweep runs normally and also writes its spans.
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "t4_small.perfetto.json"
        spec = SweepSpec(
            "t4", SHAPE, FAULT_COUNTS, trials=1, seed=7, params={"queries": 4}
        )
        table = run_sweep(spec, trace=str(trace_path))
        events = json.loads(trace_path.read_text())["traceEvents"]
    print(table.render())

    spans = [e for e in events if e["ph"] in ("X", "i")]
    print(f"\nTrace: {len(spans)} spans across the stack")
    by_layer = Counter(e["cat"] for e in spans)
    for layer in sorted(by_layer):
        names = sorted({e["name"] for e in spans if e["cat"] == layer})
        print(f"  {layer:<12} x{by_layer[layer]:<3} {', '.join(names)}")

    # 2. The same tracer API works standalone: spans nest, carry
    #    attributes, and stamp virtual time explicitly.
    tracer = obs.Tracer(track="demo")
    with obs.tracing(tracer):
        with obs.span("outer", cat="demo", n=2) as sp:
            sp.set_vt(start=0.0, end=3.0)
            with obs.span("inner", cat="demo"):
                pass
    print("\nStandalone spans:", [s.name for s in tracer.spans])

    # 3. Metrics: the DES stats collector publishes into the registry;
    #    histograms back the same percentile math the tables use.
    stats = StatsCollector()
    for latency, query in ((2.0, "q0"), (3.0, "q0"), (5.0, "q1")):
        stats.on_frame(latency, query=query)
        stats.on_send("frame", query=query)
    registry = obs.MetricsRegistry()
    stats.publish(registry)
    print("Metrics rows:")
    for row in registry.rows():
        print("  ", json.dumps(row, sort_keys=True))


if __name__ == "__main__":
    main()
