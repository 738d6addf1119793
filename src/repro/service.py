"""One facade over every routing-service flavour: :func:`make_service`.

PRs 1–6 grew three divergent ways to obtain a routing service, each
with its own signature and construction idiom:

* :class:`repro.routing.batch.RoutingService` — batched routing over
  one *static* fault pattern (positional mask, ``mode``/``policy``/
  ``reach_cache_size``);
* :class:`repro.online.OnlineRoutingService` — epoch-versioned routing
  over a *mutating* fault set (same knobs, plus
  ``full_recompute_fraction`` for the incremental relabeller);
* :func:`repro.core.model_cache.cached_routing_service` — a
  process-wide *shared* service keyed by mask content (mask + mode
  only; anything stateful would poison the cache).

:func:`make_service` is the single entry point: one signature, with
``online=`` and ``shared=`` selecting the flavour and every knob
validated against it — asking for a combination a flavour cannot
honour raises ``ValueError`` up front instead of being silently
ignored.  The experiments, the examples, and the async serving layer
(:mod:`repro.serve`) all construct their services here, so "which
service do I build and what may I pass it" has exactly one answer.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.core.model_cache import cached_routing_service
from repro.online.dynamic_model import DEFAULT_FULL_RECOMPUTE_FRACTION
from repro.online.service import OnlineRoutingService
from repro.routing.batch import RoutingService
from repro.routing.engine import DEFAULT_REACH_CACHE_SIZE
from repro.routing.policies import Policy

AnyRoutingService = Union[RoutingService, OnlineRoutingService]


def make_service(
    fault_mask: np.ndarray | None = None,
    *,
    mode: str = "mcc",
    online: bool = False,
    shared: bool = False,
    policy: Policy | None = None,
    reach_cache_size: int | None = DEFAULT_REACH_CACHE_SIZE,
    full_recompute_fraction: float | None = None,
) -> AnyRoutingService:
    """Build (or fetch) the routing service for a fault pattern.

    Flavour selection:

    * default — a private :class:`RoutingService` over a static mask;
    * ``online=True`` — an :class:`OnlineRoutingService` whose fault set
      mutates through ``inject``/``repair`` (epoch-stamped results);
    * ``shared=True`` — the process-wide content-addressed service from
      :func:`cached_routing_service` (stateless-policy modes only).

    ``mode``, ``policy`` and ``reach_cache_size`` mean the same thing in
    every flavour that accepts them; a knob the selected flavour cannot
    honour raises ``ValueError`` instead of being dropped.
    ``full_recompute_fraction`` (online flavour only) bounds the
    incremental relabeller.
    """
    if online and shared:
        raise ValueError(
            "online=True and shared=True are mutually exclusive: a "
            "mutating fault set cannot be content-addressed"
        )
    if online:
        if fault_mask is None:
            raise ValueError("make_service(online=True) needs a fault_mask")
        return OnlineRoutingService(
            fault_mask,
            mode=mode,
            policy=policy,
            reach_cache_size=reach_cache_size,
            full_recompute_fraction=(
                DEFAULT_FULL_RECOMPUTE_FRACTION
                if full_recompute_fraction is None
                else full_recompute_fraction
            ),
        )
    if shared:
        # A cached service is keyed by (mask content, mode) alone, so
        # every other knob must stay at its default.
        given = {"policy": policy, "full_recompute_fraction": full_recompute_fraction}
        bad = sorted(name for name, value in given.items() if value is not None)
        if bad:
            raise ValueError(
                f"make_service(shared=True) cannot honour: {', '.join(bad)}"
            )
        if reach_cache_size != DEFAULT_REACH_CACHE_SIZE:
            raise ValueError(
                "make_service(shared=True) cannot honour reach_cache_size: "
                "the cached service is keyed by (mask, mode) only"
            )
        if fault_mask is None:
            raise ValueError("make_service(shared=True) needs a fault_mask")
        return cached_routing_service(fault_mask, mode=mode)
    if full_recompute_fraction is not None:
        raise ValueError(
            "full_recompute_fraction only applies to make_service(online=True)"
        )
    return RoutingService(
        fault_mask,
        mode=mode,
        policy=policy,
        reach_cache_size=reach_cache_size,
    )
