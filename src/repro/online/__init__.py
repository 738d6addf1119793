"""Online dynamic-fault subsystem: serve routing while faults churn.

The paper computes its fault information model once per static fault
pattern; a production mesh sees faults *arrive and heal* while traffic
flows (the dynamic-fault regime of the 3D-NoC fault-management
literature).  This package keeps the model warm across such events:

* :class:`DynamicFaultModel` — a mutable fault set whose per-class
  :class:`~repro.core.labelling.LabelledGrid` labels are maintained
  **incrementally**: injection warm-starts the monotone fixed point
  from the existing labels over a dirty bounding region (labels only
  escalate under the closure, so the warm start is sound), repair
  recomputes the affected region's slab, and both fall back to a full
  recompute when the dirty region approaches the whole mesh.  Every
  event advances an epoch counter.
* :class:`OnlineRoutingService` — batched routing over the mutating
  model: reach-mask/flood cache invalidation is scoped to the event's
  dirty region instead of dropping everything, each
  :class:`~repro.routing.engine.RouteResult` is stamped with the
  fault-model epoch it was computed against, and queries arriving
  between fault events batch through the existing ``route_batch``.

Incremental labels are property-tested byte-identical to from-scratch
``label_grid`` across random inject/repair sequences
(``tests/test_online_dynamic.py``); the speedup for small deltas is
gated in CI (``benchmarks/bench_incremental_label.py``).  See
DESIGN.md ("Online dynamic-fault subsystem") for the soundness
argument and the invalidation model.
"""

from repro.online.dynamic_model import DynamicFaultModel, FaultEvent
from repro.online.events import FaultEventStream, StreamEvent
from repro.online.service import OnlineRoutingService

__all__ = [
    "DynamicFaultModel",
    "FaultEvent",
    "FaultEventStream",
    "OnlineRoutingService",
    "StreamEvent",
]
