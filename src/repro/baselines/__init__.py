"""Baseline fault models and routers the paper compares against.

* :mod:`repro.baselines.rfb` — the rectangular faulty block model
  (orthogonal convex fault regions; Wu [8], Boppana–Chalasani style),
  the "best existing known result" in the paper's evaluation.
* :mod:`repro.baselines.ecube` — deterministic dimension-order minimal
  routing (no fault tolerance).

Adaptive minimal routing with only local faulty-neighbor knowledge (no
fault-information model) is ``RoutingService(mask, mode="blind")``.
"""

from repro.baselines.rfb import rfb_labelled, rfb_unsafe
from repro.baselines.ecube import ecube_path, ecube_succeeds

__all__ = [
    "rfb_labelled",
    "rfb_unsafe",
    "ecube_path",
    "ecube_succeeds",
]
