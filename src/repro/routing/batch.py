"""Batched routing service: many pairs over one fault pattern.

The experiment sweeps (T2/T4), the DES workloads, and the fault-block
literature's evaluation methodology all route *batches* — tens of
thousands of (source, destination) pairs against a single fault pattern.
Routing them one call at a time pays per pair for work a batch can
share: a class-model lookup, a reach-mask probe, and a one-destination
flood on every cache miss.

:class:`RoutingService` shares all of it:

* the **decomposition builds no per-pair object**: each pair's
  direction class, canonical coordinates and flat cell indices come
  from a few array operations over the whole batch, and one pass over
  the resulting rows buckets the pairs;
* pairs are grouped by **direction class**, so each ``LabelledGrid`` is
  built once per class (at most 2^n builds per batch);
* within a class, pairs are grouped by **destination**, so one reverse
  flood serves every pair headed there — and the grouped order makes
  the engine's LRU-bounded reach caches hit even at tiny capacities;
* the (class, destination) groups whose reach masks are not cached
  flood together in **cross-class chunks** of up to
  :data:`~repro.routing.oracle.WORD_BITS`: the kernel packs one bit per
  flood, each through its own class's open mask, so a batch spanning
  several direction classes pays one kernel call per chunk, not one
  per class;
* the batch **feasibility check is vectorized**: the class model's
  ``unsafe`` array, flattened once per batch, and the cached reach mask
  are gathered at the flat indices of all sources of a group in one
  operation each instead of one probe per pair;
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

from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from repro import obs
from repro.mesh.coords import Coord
from repro.mesh.orientation import Orientation
from repro.routing.engine import AdaptiveRouter, RouteResult, _ClassModel, prime_reach
from repro.routing.oracle import WORD_BITS
from repro.util.validation import check_shape_member


class _Group(NamedTuple):
    """The pairs of one direction class headed to one destination.

    Coordinates are in the class's canonical frame.  Flat indices count
    cells in C order over the mesh shape, which is the layout of
    ``unsafe``: the class model's unsafe mask, flattened once per batch
    (a copy for an online class's flipped view) and shared by all of the
    class's groups.
    """

    orientation: Orientation
    model: _ClassModel
    unsafe: np.ndarray  # flat unsafe mask of the class model
    indices: np.ndarray  # input positions
    sources: np.ndarray  # flat source indices
    dest: Coord
    dest_flat: int


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
        # Frame arithmetic for whole-batch decomposition: the far mesh
        # corner, the C-order cell strides of the mesh shape, and one
        # class-key bit per axis.
        shape = router.fault_mask.shape
        self._far = np.subtract(shape, 1, dtype=np.intp)
        self._strides = np.cumprod((1,) + shape[:0:-1], dtype=np.intp)[::-1]
        self._bits = 1 << np.arange(len(shape), dtype=np.intp)

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
        pairs = list(pairs)
        with obs.span("route_batch", cat="routing", n=len(pairs)) as sp:
            results: list[RouteResult | None] = [None] * len(pairs)
            for group in self._primed(self._grouped(pairs, results)):
                self._route_group(group, results)
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
        pairs = list(pairs)
        with obs.span("feasible_batch", cat="routing", n=len(pairs)) as sp:
            out = np.zeros(len(pairs), dtype=bool)
            results: list[RouteResult | None] = [None] * len(pairs)
            for group in self._primed(self._grouped(pairs, results)):
                out[group.indices] = self._group_feasible(group)
            sp.set(feasible=int(out.sum()))
        return out

    # -- batch decomposition -----------------------------------------------

    def _grouped(
        self, pairs: list, results: list[RouteResult | None]
    ) -> list[_Group]:
        """Split pairs into (direction class, destination) groups.

        Off-mesh endpoints raise as in :meth:`AdaptiveRouter.route`.
        Faulty-endpoint pairs are resolved immediately into ``results``
        and excluded from the groups.  Groups come class-major, classes
        and then destinations in order of first appearance.  The class
        of every pair, its canonical coordinates and their flat indices
        come from whole-batch array operations; the one pass over the
        pairs only buckets them.
        """
        fault_mask = self.router.fault_mask
        shape = fault_mask.shape
        if not pairs:
            return []
        arr = np.asarray(pairs, dtype=np.intp)  # (n, 2, ndim)
        if (
            arr.ndim != 3
            or arr.shape[1:] != (2, len(shape))
            or ((arr < 0) | (arr > self._far)).any()
        ):
            # Negative indices would wrap to the far side of the mesh;
            # name the first bad endpoint the way single-pair routing does.
            for source, dest in pairs:
                check_shape_member("source", [int(c) for c in source], shape)
                check_shape_member("dest", [int(c) for c in dest], shape)
        faulty = fault_mask.reshape(-1)[arr @ self._strides].any(axis=1)
        # A pair's class flips the axes where dest < source, as in
        # Orientation.for_pair; bit a of its class key is axis a's flip.
        flip = arr[:, 1] < arr[:, 0]
        canonical = np.where(flip[:, None], self._far - arr, arr)
        flat = canonical @ self._strides  # (n, 2)
        keys = flip @ self._bits
        by_class: dict[int, dict[int, list[int]]] = {}
        rows = zip(faulty.tolist(), keys.tolist(), flat[:, 1].tolist(), strict=True)
        for i, (bad, key, dest) in enumerate(rows):
            if bad:
                results[i] = RouteResult(
                    delivered=False,
                    path=[tuple(arr[i, 0].tolist())],
                    feasible=False,
                    reason="endpoint faulty",
                )
            else:
                by_class.setdefault(key, {}).setdefault(dest, []).append(i)

        dests = canonical[:, 1].tolist()
        sources = flat[:, 0]
        groups = []
        for key, by_dest in by_class.items():
            signs = tuple(-1 if key >> a & 1 else 1 for a in range(len(shape)))
            orientation = Orientation(signs, shape)
            model = self.router._model_for(orientation)
            unsafe = model.unsafe.reshape(-1)
            for dest, ids in by_dest.items():
                indices = np.array(ids, dtype=np.intp)
                groups.append(
                    _Group(
                        orientation, model, unsafe, indices, sources[indices],
                        tuple(dests[ids[0]]), dest,
                    )
                )
        return groups

    def _primed(self, groups: list[_Group]) -> Iterator[_Group]:
        """The groups in order, each chunk's reach misses flooded first.

        A chunk is a run of groups holding at most
        :data:`~repro.routing.oracle.WORD_BITS` reach-cache misses, which
        may span direction classes, and never more groups than one class
        cache holds.  Its misses flood in one
        :func:`~repro.routing.engine.prime_reach` call.  Probing a hit
        refreshes it, so the chunk's primed misses evict none of the
        chunk's masks before its groups run.  Blind mode floods nothing.
        """
        if self.mode == "blind":
            yield from groups
            return
        bound = self.router.reach_cache_size
        chunk: list[_Group] = []
        misses: list[tuple[_ClassModel, Coord]] = []
        for group in groups:
            if group.model._reach.get(group.dest) is None:
                misses.append((group.model, group.dest))
            chunk.append(group)
            if len(misses) == WORD_BITS or len(chunk) == bound:
                prime_reach(misses)
                yield from chunk
                chunk, misses = [], []
        prime_reach(misses)
        yield from chunk

    @staticmethod
    def _group_feasible(group: _Group) -> np.ndarray:
        """Model verdicts for the sources of one group.

        Safe endpoints, then model reachability: one cached flood and
        one gather by flat index per group instead of a probe per pair.
        """
        unsafe = group.unsafe
        if unsafe[group.dest_flat]:
            return np.zeros(len(group.sources), dtype=bool)
        ok = ~unsafe[group.sources]
        if np.count_nonzero(ok):
            ok &= group.model.reach_mask(group.dest).reshape(-1)[group.sources]
        return ok

    def _route_group(self, group: _Group, results: list[RouteResult | None]) -> None:
        """Route the pairs of one (class, destination) group."""
        router = self.router
        orientation, model, d = group.orientation, group.model, group.dest
        feasible = None if self.mode == "blind" else self._group_feasible(group)
        axes = np.unravel_index(group.sources, orientation.shape)
        sources = zip(*(axis.tolist() for axis in axes), strict=True)
        for k, (idx, s) in enumerate(zip(group.indices.tolist(), sources, strict=True)):
            if feasible is not None and not feasible[k]:
                # Match route()'s refusal reason exactly.
                reason = router._infeasible_reason(model, s, d)
                results[idx] = RouteResult(
                    delivered=False,
                    path=[orientation.unmap_coord(s)],
                    feasible=False,
                    reason=reason or "infeasible",
                )
                continue
            results[idx] = router._forward(model, orientation, s, d)
