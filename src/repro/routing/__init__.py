"""Routing engines and the ground-truth minimal-path oracle."""

from repro.routing.oracle import (
    forward_reachable,
    minimal_path_exists,
    monotone_flood,
    monotone_flood_many,
    reverse_reachable,
    reverse_reachable_many,
)
from repro.routing.engine import RouteResult
from repro.routing.batch import RoutingService
from repro.routing.policies import (
    DiagonalPolicy,
    FixedOrderPolicy,
    RandomPolicy,
    make_policy,
)

__all__ = [
    "monotone_flood",
    "monotone_flood_many",
    "forward_reachable",
    "reverse_reachable",
    "reverse_reachable_many",
    "minimal_path_exists",
    "RouteResult",
    "RoutingService",
    "DiagonalPolicy",
    "FixedOrderPolicy",
    "RandomPolicy",
    "make_policy",
]
