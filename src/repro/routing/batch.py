"""Batched routing service: many pairs over one fault pattern.

The experiment sweeps (T2/T4), the DES workloads, and the fault-block
literature's evaluation methodology all route *batches* — tens of
thousands of (source, destination) pairs against a single fault pattern.
Routing them one call at a time pays per pair for work a batch can
share: a class-model lookup, a reach-mask probe, and a one-destination
flood on every cache miss.

:class:`RoutingService` shares all of it:

* pairs are grouped by **direction class**, so each ``LabelledGrid`` is
  built once per class (at most 2^n builds per batch);
* within a class, pairs are grouped by **destination**, so one reverse
  flood serves every pair headed there — and the grouped order makes
  the engine's LRU-bounded reach caches hit even at tiny capacities;
* the batch **feasibility check is vectorized**: the class model's
  ``unsafe`` array and the cached reach mask are indexed at all sources
  of a group in one fancy-index operation each instead of one probe per
  pair;
* per-destination reach masks are LRU-bounded
  (:data:`~repro.routing.engine.REACH_CACHE_SIZE`), so million-pair
  workloads do not grow memory without limit.

Results are element-wise identical to per-pair
:meth:`AdaptiveRouter.route` for stateless policies (fixed/diagonal —
property-tested).  A stateful policy such as ``RandomPolicy`` draws in
grouped order rather than input order, so individual paths may differ
while delivery verdicts still agree with the model.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro import obs
from repro.mesh.coords import Coord
from repro.mesh.orientation import Orientation
from repro.routing.engine import AdaptiveRouter, RouteResult, _ClassModel
from repro.util.validation import check_shape_member

Pair = tuple[Coord, Coord]

#: Destinations per batched reverse-flood kernel call.  Bounds the
#: transient stacked-mask memory (chunk x mesh bools) while amortizing
#: the DP's Python loops across the chunk.
PRIME_CHUNK = 64


def _as_pair(pair: Sequence[Sequence[int]]) -> Pair:
    source, dest = pair
    return (
        tuple(int(c) for c in source),
        tuple(int(c) for c in dest),
    )


class RoutingService:
    """Routes batches of pairs over one fault pattern with shared state.

    A thin orchestration layer over :class:`AdaptiveRouter`: the router
    owns the per-class models and LRU reach caches; the service owns the
    batch decomposition (class -> destination -> vectorized feasibility)
    and result ordering.  ``service.route`` is exactly one-pair routing
    through the same shared caches.  ``router`` adopts a caller-owned
    router in place of ``fault_mask``: the online service supplies one
    whose models track a mutating fault set, and a router built with a
    non-default policy is served this way too.
    """

    def __init__(
        self,
        fault_mask: np.ndarray | None,
        mode: str = "mcc",
        router: AdaptiveRouter | None = None,
    ):
        if router is None:
            if fault_mask is None:
                raise ValueError("RoutingService needs a fault_mask or a router")
            router = AdaptiveRouter(fault_mask, mode=mode)
        self.router = router

    @property
    def fault_mask(self) -> np.ndarray:
        return self.router.fault_mask

    @property
    def mode(self) -> str:
        return self.router.mode

    # -- single pair -------------------------------------------------------

    def route(self, source: Sequence[int], dest: Sequence[int]) -> RouteResult:
        """Route one pair through the shared model caches."""
        return self.router.route(source, dest)

    # -- batched routing ---------------------------------------------------

    def route_batch(
        self, pairs: Iterable[Sequence[Sequence[int]]]
    ) -> list[RouteResult]:
        """Route every (source, dest) pair; results in input order."""
        pairs = [_as_pair(p) for p in pairs]
        with obs.span("route_batch", cat="routing", n=len(pairs)) as sp:
            results: list[RouteResult | None] = [None] * len(pairs)
            for orientation, model, members in self._grouped(pairs, results):
                self._route_group(orientation, model, members, results)
            sp.set(delivered=sum(1 for r in results if r is not None and r.delivered))
        return results  # type: ignore[return-value]

    def feasible_batch(
        self, pairs: Iterable[Sequence[Sequence[int]]]
    ) -> np.ndarray:
        """Vectorized model feasibility verdict per pair (input order).

        True exactly when :meth:`route` would proceed past its checks:
        non-faulty endpoints, model-safe endpoints, and a model-permitted
        minimal path.  Blind mode has no feasibility notion and raises.
        """
        if self.mode == "blind":
            raise ValueError("blind mode has no feasibility model")
        pairs = [_as_pair(p) for p in pairs]
        with obs.span("feasible_batch", cat="routing", n=len(pairs)) as sp:
            out = np.zeros(len(pairs), dtype=bool)
            results: list[RouteResult | None] = [None] * len(pairs)
            for _orientation, model, members in self._grouped(pairs, results):
                for chunk in self._primed_chunks(model, members):
                    for indices, sources, dest in chunk:
                        out[indices] = self._group_feasible(model, sources, dest)
            sp.set(feasible=int(out.sum()))
        return out

    # -- batch decomposition -----------------------------------------------

    def _grouped(self, pairs: list[Pair], results: list[RouteResult | None]):
        """Split pairs into per-direction-class groups.

        Off-mesh endpoints raise as in :meth:`AdaptiveRouter.route`.
        Faulty-endpoint pairs are resolved immediately into ``results``
        (vectorized mesh-frame check) and excluded from the groups.
        Yields ``(orientation, model, members)`` per class where
        ``members`` is a list of (input_index, canonical_src,
        canonical_dst, mesh_src).
        """
        fault_mask = self.router.fault_mask
        shape = fault_mask.shape
        if not pairs:
            return
        arr = np.asarray(pairs, dtype=np.intp)  # (n, 2, ndim)
        if arr.shape[2] != len(shape) or ((arr < 0) | (arr >= shape)).any():
            # Negative indices would wrap to the far side of the mesh;
            # name the first bad endpoint the way single-pair routing does.
            for source, dest in pairs:
                check_shape_member("source", source, shape)
                check_shape_member("dest", dest, shape)
        src_idx = tuple(arr[:, 0, a] for a in range(arr.shape[2]))
        dst_idx = tuple(arr[:, 1, a] for a in range(arr.shape[2]))
        endpoint_faulty = fault_mask[src_idx] | fault_mask[dst_idx]

        by_class: dict[tuple[int, ...], list] = {}
        for i, (source, dest) in enumerate(pairs):
            if endpoint_faulty[i]:
                results[i] = RouteResult(
                    delivered=False,
                    path=[source],
                    feasible=False,
                    reason="endpoint faulty",
                )
                continue
            signs = Orientation.for_pair(source, dest, shape).signs
            by_class.setdefault(signs, []).append((i, source, dest))
        for signs, items in by_class.items():
            orientation = Orientation(signs, tuple(shape))
            model = self.router._model_for(orientation)
            members = [
                (i, orientation.map_coord(src), orientation.map_coord(dst), src)
                for i, src, dst in items
            ]
            yield orientation, model, members

    @staticmethod
    def _dest_groups(members: list):
        """Regroup one class's members by canonical destination.

        Yields ``(indices, sources, dest)`` with ``indices`` an int array
        of input positions and ``sources`` the canonical source coords.
        """
        by_dest: dict[Coord, list] = {}
        for i, s, d, src in members:
            by_dest.setdefault(d, []).append((i, s, src))
        for dest, group in by_dest.items():
            indices = np.asarray([g[0] for g in group], dtype=np.intp)
            sources = [g[1] for g in group]
            yield indices, sources, dest

    def _group_feasible(
        self, model: _ClassModel, sources: list[Coord], dest: Coord
    ) -> np.ndarray:
        """Model verdicts for many sources sharing one destination.

        Safe endpoints, then model reachability: one cached flood and
        one fancy-index per group instead of a mask probe per pair.
        """
        if model.unsafe[dest]:
            return np.zeros(len(sources), dtype=bool)
        coords = tuple(np.asarray(sources, dtype=np.intp).T)
        ok = ~model.unsafe[coords]
        if ok.any():
            ok &= model.reach_mask(dest)[coords]
        return ok

    def _route_group(
        self,
        orientation: Orientation,
        model: _ClassModel,
        members: list,
        results: list[RouteResult | None],
    ) -> None:
        """Route one direction-class group, destination-major."""
        router = self.router
        by_index = {m[0]: m for m in members}
        for chunk in self._primed_chunks(model, members):
            for indices, sources, dest in chunk:
                if self.mode == "blind":
                    feasible = None
                else:
                    feasible = self._group_feasible(model, sources, dest)
                for k, idx in enumerate(indices):
                    _, s, d, src = by_index[int(idx)]
                    if feasible is not None and not feasible[k]:
                        # Match route()'s refusal reason exactly.
                        reason = router._infeasible_reason(model, s, d)
                        results[int(idx)] = RouteResult(
                            delivered=False,
                            path=[src],
                            feasible=False,
                            reason=reason or "infeasible",
                        )
                        continue
                    results[int(idx)] = router._forward(model, orientation, s, d)

    def _primed_chunks(self, model: _ClassModel, members: list):
        """Destination groups in chunks, reach caches pre-warmed per chunk.

        Each chunk's reverse floods run as ONE batched DP
        (:func:`repro.routing.oracle.reverse_reachable_many`) instead of
        one Python-loop flood per destination; the chunk size never
        exceeds the LRU bound, so a primed mask cannot be evicted before
        its group is processed.
        """
        groups = list(self._dest_groups(members))
        chunk = PRIME_CHUNK
        cache_bound = self.router.reach_cache_size
        if cache_bound is not None:
            chunk = min(chunk, cache_bound)
        for start in range(0, len(groups), chunk):
            block = groups[start : start + chunk]
            dests = [dest for _indices, _sources, dest in block]
            if self.mode != "blind":
                model.prime_reach(dests)
            yield block

