"""Baseline fault models and routers the paper compares against.

* :mod:`repro.baselines.rfb` — the rectangular faulty block model
  (orthogonal convex fault regions; Wu [8], Boppana–Chalasani style),
  the "best existing known result" in the paper's evaluation.
* :mod:`repro.baselines.ecube` — deterministic dimension-order minimal
  routing (no fault tolerance).
* :mod:`repro.baselines.greedy` — adaptive minimal routing with only
  local faulty-neighbor knowledge (no fault-information model).
"""

from repro.baselines.rfb import rfb_labelled, rfb_unsafe
from repro.baselines.ecube import ecube_path, ecube_succeeds
from repro.baselines.greedy import greedy_route

__all__ = [
    "rfb_labelled",
    "rfb_unsafe",
    "ecube_path",
    "ecube_succeeds",
    "greedy_route",
]
