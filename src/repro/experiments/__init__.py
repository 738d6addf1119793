"""The paper's evaluation: workloads, harness, experiments T1–T7, figures.

Each experiment module holds an evaluator (one fault pattern) and a
reducer (the merged table), registered in
:data:`repro.parallel.sharding.EXPERIMENTS` with the experiment's
workload knobs and their defaults; ``run_sweep(SweepSpec(...))`` runs
any of them, and :func:`run_all` regenerates every table.  The
benchmark harness under ``benchmarks/`` regenerates every table/figure
from DESIGN.md's index and prints the rows the paper's evaluation
reports.
"""

from repro.experiments.workloads import (
    random_fault_mask,
    clustered_fault_mask,
    sample_safe_pair,
)
from repro.experiments.harness import run_all

__all__ = [
    "run_all",
    "random_fault_mask",
    "clustered_fault_mask",
    "sample_safe_pair",
]
