#!/usr/bin/env python
"""Observability demo: trace a sweep and export Perfetto.

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


if __name__ == "__main__":
    main()
