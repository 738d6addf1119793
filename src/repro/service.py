"""One facade over both routing-service flavours: :func:`make_service`.

There are two ways to obtain a routing service, each with its own
construction idiom:

* :class:`repro.routing.batch.RoutingService` — batched routing over
  one *static* fault pattern;
* :class:`repro.online.OnlineRoutingService` — epoch-versioned routing
  over a *mutating* fault set.

:func:`make_service` is the single entry point: one signature, with
``online=`` selecting the flavour.  Both flavours take the mask and
``mode`` alone; the reach-cache bound
(:data:`repro.routing.engine.REACH_CACHE_SIZE`) and the repair fallback
(:data:`repro.online.dynamic_model.FULL_RECOMPUTE_FRACTION`) are module
constants.  Every service is private to its caller: a sweep builds one
per fault pattern.  The experiments, the examples, and the async serving
layer (:mod:`repro.serve`) all construct their services here, so "which
service do I build and what may I pass it" has exactly one answer.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.online.service import OnlineRoutingService
from repro.routing.batch import RoutingService

AnyRoutingService = Union[RoutingService, OnlineRoutingService]


def make_service(
    fault_mask: np.ndarray,
    *,
    mode: str = "mcc",
    online: bool = False,
) -> AnyRoutingService:
    """Build the routing service for a fault pattern.

    Flavour selection:

    * default — a :class:`RoutingService` over a static mask;
    * ``online=True`` — an :class:`OnlineRoutingService` whose fault set
      mutates through ``inject``/``repair`` (epoch-stamped results).
    """
    if online:
        return OnlineRoutingService(fault_mask, mode=mode)
    return RoutingService(fault_mask, mode=mode)
