"""Smoke tests: the example scripts run and produce their key output."""

import subprocess
import sys
from pathlib import Path


EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, timeout: int = 300) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "minimal=True" in out
        assert "MCCs: 2 (paper: 2)" in out

    def test_paper_figures(self):
        out = run_example("paper_figures.py")
        assert "FIGURE 5" in out
        assert "MCC count (paper grouping): 2" in out
        assert "feasible=False" in out  # the NO detection case

    def test_fault_resilience_study(self):
        out = run_example("fault_resilience_study.py")
        assert "T2 minimal-routing success rate" in out
        assert "clustered faults, 10 trials" in out
        # Seeded sweeps: the closing summary replays exactly.
        assert "At 7.5% faults: the MCC model still routes 99% of pairs" in out

    def test_supercomputer_job_traffic(self):
        out = run_example("supercomputer_job_traffic.py")
        assert "Partition (16, 16, 16): 100 failed nodes" in out
        assert "minimal-path feasible (Theorem 2): 398" in out
        assert "delivered minimally by MCC router:  398" in out
        assert "delivered by blind adaptive:        365" in out

    def test_distributed_protocol_demo(self):
        out = run_example("distributed_protocol_demo.py")
        assert "matches centralized labelling: True" in out
        assert "delivered" in out

    def test_serve_demo(self):
        out = run_example("serve_demo.py")
        # The whole serving pipeline is seeded: these numbers replay.
        assert "Served 247/247" in out
        assert "epoch=4" in out
        assert "T7s serve load sweep" in out

    def test_trace_demo(self):
        out = run_example("trace_demo.py")
        # Span counts and layer coverage are virtual-order facts and
        # replay exactly; wall durations are deliberately not printed.
        assert "Trace: 24 spans across the stack" in out
        for layer in ("des", "distributed", "harness", "kernel", "routing"):
            assert layer in out
        assert "Standalone spans: ['outer', 'inner']" in out
