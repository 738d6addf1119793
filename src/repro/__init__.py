"""repro — the MCC fault information model for minimal routing in meshes.

Reproduction of Jiang, Wu & Wang, "A New Fault Information Model for
Fault-Tolerant Adaptive and Minimal Routing in 3-D Meshes" (ICPP 2005).

Quickstart::

    import numpy as np
    from repro import RoutingService

    faults = np.zeros((10, 10, 10), dtype=bool)
    faults[5, 5, 5] = True
    service = RoutingService(faults, mode="mcc")
    result = service.route((0, 0, 0), (9, 9, 9))
    assert result.delivered and result.is_minimal()

Layers:

* ``repro.mesh`` — topology, direction classes, regions;
* ``repro.core`` — labelling, MCC extraction, walls,
  existence conditions, detection (the paper's model, centralized);
* ``repro.routing`` — the oracle and the adaptive routing service;
* ``repro.baselines`` — rectangular faulty blocks, e-cube (blind
  adaptive routing is ``RoutingService`` in ``mode="blind"``);
* ``repro.simkit`` / ``repro.distributed`` — the message-passing
  realization of the whole pipeline on a discrete-event network;
* ``repro.online`` — dynamic-fault serving: incremental labelling and
  epoch-versioned routing while faults arrive and heal;
* ``repro.service`` — the one construction facade over every routing
  service flavour (:func:`make_service`);
* ``repro.serve`` — the always-on asyncio front-end: batched concurrent
  ``await route()`` over the online model, fault-event preemption, SLO
  metrics, and the replayable load-generator harness;
* ``repro.parallel`` — multi-pattern sharding of experiment sweeps
  across processes (``SweepSpec`` / ``run_sweep``);
* ``repro.experiments`` — the evaluation (tables T1–T7s, figures).
"""

from repro.mesh import Box, Mesh, Mesh2D, Mesh3D, Orientation
from repro.core.labelling import (
    CANT_REACH,
    FAULTY,
    SAFE,
    USELESS,
    LabelledGrid,
    label_grid,
    unsafe_mask,
)
from repro.core.components import MCC, MCCSet, extract_mccs
from repro.core.walls import Wall, build_walls
from repro.core.conditions import (
    ConditionEvaluator,
    minimal_path_exists_lemma1,
)
from repro.core.detection import detect_canonical, detection_feasible
from repro.routing.oracle import (
    forward_reachable,
    minimal_path_exists,
    reverse_reachable,
)
from repro.routing.engine import RouteResult
from repro.routing.batch import RoutingService
from repro.routing.policies import (
    DiagonalPolicy,
    FixedOrderPolicy,
    RandomPolicy,
    make_policy,
)
from repro.baselines import ecube_path, ecube_succeeds, rfb_unsafe
from repro.simkit import MeshNetwork, Simulator
from repro.distributed import DistributedMCCPipeline
from repro.online import DynamicFaultModel, FaultEvent, OnlineRoutingService
from repro.service import make_service
from repro.serve import AsyncRoutingService, VirtualClock, WallClock
from repro.parallel import SweepSpec, run_sweep

__version__ = "1.1.0"

__all__ = [
    "Box",
    "Mesh",
    "Mesh2D",
    "Mesh3D",
    "Orientation",
    "SAFE",
    "FAULTY",
    "USELESS",
    "CANT_REACH",
    "LabelledGrid",
    "label_grid",
    "unsafe_mask",
    "MCC",
    "MCCSet",
    "extract_mccs",
    "Wall",
    "build_walls",
    "ConditionEvaluator",
    "minimal_path_exists_lemma1",
    "detect_canonical",
    "detection_feasible",
    "forward_reachable",
    "reverse_reachable",
    "minimal_path_exists",
    "RouteResult",
    "RoutingService",
    "FixedOrderPolicy",
    "RandomPolicy",
    "DiagonalPolicy",
    "make_policy",
    "ecube_path",
    "ecube_succeeds",
    "rfb_unsafe",
    "MeshNetwork",
    "Simulator",
    "DistributedMCCPipeline",
    "DynamicFaultModel",
    "FaultEvent",
    "OnlineRoutingService",
    "make_service",
    "AsyncRoutingService",
    "VirtualClock",
    "WallClock",
    "SweepSpec",
    "run_sweep",
    "__version__",
]
