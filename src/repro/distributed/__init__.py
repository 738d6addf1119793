"""Distributed (message-passing) realization of the MCC pipeline.

Every algorithm in :mod:`repro.core` exists here as a protocol over the
:mod:`repro.simkit` network, exchanging messages only between mesh
neighbors and reading only node-local state:

* :mod:`repro.distributed.labelling_proto` — Algorithm 1/4 by label
  gossip (any dimension);
* :mod:`repro.distributed.identification` — Algorithm 2 steps 1–2 /
  Algorithm 5 step 1: two-head-on identification walks around each MCC
  (per 2-D section in 3-D), TTL discard, shape assembly and deposit;
* :mod:`repro.distributed.boundary_proto` — Algorithm 2 step 3 /
  Algorithm 5 step 4: wall walks depositing boundary records, joining
  and merging forbidden regions at obstructions;
* :mod:`repro.distributed.routing_proto` — Algorithm 3 / Algorithm 6:
  detection walks and record-guided adaptive forwarding.

The package is validated against the centralized reference pipeline in
``tests/test_dist_*`` (property P4).
"""

from repro.distributed.labelling_proto import LabellingNode
from repro.distributed.pipeline import DistributedMCCPipeline

__all__ = [
    "LabellingNode",
    "DistributedMCCPipeline",
]
