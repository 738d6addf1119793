"""One facade over every routing-service flavour: :func:`make_service`.

There are three ways to obtain a routing service, each with its own
construction idiom:

* :class:`repro.routing.batch.RoutingService` — batched routing over
  one *static* fault pattern;
* :class:`repro.online.OnlineRoutingService` — epoch-versioned routing
  over a *mutating* fault set;
* :func:`repro.core.model_cache.cached_routing_service` — a
  process-wide *shared* service keyed by mask content.

:func:`make_service` is the single entry point: one signature, with
``online=`` and ``shared=`` selecting the flavour.  Every flavour takes
the mask and ``mode`` alone; the reach-cache bound
(:data:`repro.routing.engine.REACH_CACHE_SIZE`) and the repair fallback
(:data:`repro.online.dynamic_model.FULL_RECOMPUTE_FRACTION`) are module
constants.  The experiments, the examples, and the async serving layer
(:mod:`repro.serve`) all construct their services here, so "which
service do I build and what may I pass it" has exactly one answer.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.core.model_cache import cached_routing_service
from repro.online.service import OnlineRoutingService
from repro.routing.batch import RoutingService

AnyRoutingService = Union[RoutingService, OnlineRoutingService]


def make_service(
    fault_mask: np.ndarray,
    *,
    mode: str = "mcc",
    online: bool = False,
    shared: bool = False,
) -> AnyRoutingService:
    """Build (or fetch) the routing service for a fault pattern.

    Flavour selection:

    * default — a private :class:`RoutingService` over a static mask;
    * ``online=True`` — an :class:`OnlineRoutingService` whose fault set
      mutates through ``inject``/``repair`` (epoch-stamped results);
    * ``shared=True`` — the process-wide content-addressed service from
      :func:`cached_routing_service`.

    ``online`` and ``shared`` together raise ``ValueError``: a mutating
    fault set cannot be content-addressed.
    """
    if online and shared:
        raise ValueError(
            "online=True and shared=True are mutually exclusive: a "
            "mutating fault set cannot be content-addressed"
        )
    if online:
        return OnlineRoutingService(fault_mask, mode=mode)
    if shared:
        return cached_routing_service(fault_mask, mode=mode)
    return RoutingService(fault_mask, mode=mode)
