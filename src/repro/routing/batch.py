"""The routing service: one pair or many over one fault pattern.

:class:`RoutingService` is the paper's routing rule (Algorithm 3 /
Algorithm 6 step 2) for one fault pattern under one fault-information
model.  It owns the per-class models of :mod:`repro.routing.engine`,
and routes a pair in four steps:

1. map the pair into its direction class (canonical frame);
2. feasibility check (model condition; Theorem 1/2);
3. hop-by-hop forwarding: a candidate direction survives when its
   neighbor can still reach the destination through permitted nodes —
   the exact informational content of Algorithm 3 step 2(b)'s boundary
   records (see ``_ClassModel`` for why this is the distilled form);
4. a pluggable policy picks among the survivors (step 2c).

The experiment sweeps (T2/T4), the DES workloads, and the fault-block
literature's evaluation methodology all route *batches* — tens of
thousands of (source, destination) pairs against a single fault pattern.
Routing them one call at a time pays per pair for work a batch can
share: a class-model lookup, a reach-mask probe, and a one-destination
flood on every cache miss.  The batch methods share all of it:

* the **decomposition builds no per-pair object**: each pair's
  direction class, canonical coordinates and flat cell indices come
  from a few array operations over the whole batch, and one pass over
  the resulting rows buckets the pairs;
* pairs are grouped by **direction class**, so each ``LabelledGrid`` is
  built once per class (at most 2^n builds per batch);
* within a class, pairs are grouped by **destination**, so one reverse
  flood serves every pair headed there — and the grouped order makes
  the LRU-bounded reach caches hit even at tiny capacities;
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

Batch results are element-wise identical to per-pair :meth:`route` for
stateless policies (fixed/diagonal — property-tested).  A stateful
policy such as ``RandomPolicy`` draws in grouped order rather than
input order, so individual paths may differ while delivery verdicts
still agree with the model.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from repro import obs
from repro.mesh.coords import Coord
from repro.mesh.orientation import Orientation
from repro.routing import engine
from repro.routing.engine import RouteResult, _ClassModel, class_model, prime_reach
from repro.routing.oracle import WORD_BITS
from repro.routing.policies import FixedOrderPolicy, Policy
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
    """Routes pairs over one fault pattern with shared per-class state.

    ``mode`` selects the fault-information model:

    * ``"mcc"``    — the paper's model (labelling + walls);
    * ``"rfb"``    — same machinery over rectangular faulty blocks;
    * ``"oracle"`` — a labelling that marks faults only, so its
      exclusions are exact reverse reachability (reference);
    * ``"blind"``  — no model; only faulty neighbors are avoided.

    ``policy`` picks among the surviving directions (fixed axis order
    by default).  The service keeps one class model per direction class
    (:func:`~repro.routing.engine.class_model`), each caching at most
    :data:`~repro.routing.engine.REACH_CACHE_SIZE` reach masks;
    :meth:`route` and the batch methods share them.
    """

    MODES = ("mcc", "rfb", "oracle", "blind")

    def __init__(
        self,
        fault_mask: np.ndarray,
        mode: str = "mcc",
        policy: Policy | None = None,
    ):
        if mode not in self.MODES:
            raise ValueError(f"unknown router mode {mode!r}; pick from {self.MODES}")
        self.fault_mask = np.asarray(fault_mask, dtype=bool)
        self.mode = mode
        self.policy = policy or FixedOrderPolicy()
        self.reach_cache_size = engine.REACH_CACHE_SIZE
        self._models: dict[tuple[int, ...], _ClassModel] = {}
        # Frame arithmetic for whole-batch decomposition: the far mesh
        # corner, the C-order cell strides of the mesh shape, and one
        # class-key bit per axis.
        shape = self.fault_mask.shape
        self._far = np.subtract(shape, 1, dtype=np.intp)
        self._strides = np.cumprod((1,) + shape[:0:-1], dtype=np.intp)[::-1]
        self._bits = 1 << np.arange(len(shape), dtype=np.intp)

    def _model_for(self, orientation: Orientation) -> _ClassModel:
        """The direction class's model, built on first use."""
        key = orientation.signs
        if key not in self._models:
            self._models[key] = class_model(
                self.fault_mask, orientation, self.mode, self.reach_cache_size
            )
        return self._models[key]

    # -- single pair -------------------------------------------------------

    def route(self, source: Sequence[int], dest: Sequence[int]) -> RouteResult:
        """Route one packet; returns the mesh-frame path and verdicts."""
        source = tuple(int(c) for c in source)
        dest = tuple(int(c) for c in dest)
        shape = self.fault_mask.shape
        check_shape_member("source", source, shape)
        check_shape_member("dest", dest, shape)
        if self.fault_mask[source] or self.fault_mask[dest]:
            # A failed result, not an exception: dynamic-fault workloads
            # (MeshNetwork.inject_fault) route to endpoints that died
            # mid-run, which must score as failures, not crash the sweep.
            return RouteResult(
                delivered=False,
                path=[source],
                feasible=False,
                reason="endpoint faulty",
            )
        orientation = Orientation.for_pair(source, dest, shape)
        s = orientation.map_coord(source)
        d = orientation.map_coord(dest)
        model = self._model_for(orientation)

        reason = self._infeasible_reason(model, s, d)
        if reason is not None:
            return RouteResult(
                delivered=False, path=[source], feasible=False, reason=reason
            )
        return self._forward(model, orientation, s, d)

    def _infeasible_reason(
        self, model: _ClassModel, s: Coord, d: Coord
    ) -> str | None:
        """The model's refusal reason for a canonical pair, or None (go).

        Blind mode has no feasibility check: it just tries.
        """
        if self.mode == "blind":
            return None
        if not model.endpoints_safe(s, d):
            return "endpoint inside fault region"
        if not model.feasible(s, d):
            return "infeasible"
        return None

    def _forward(
        self, model: _ClassModel, orientation: Orientation, s: Coord, d: Coord
    ) -> RouteResult:
        """Hop-by-hop forwarding loop after a passed (or absent) check.

        Every hop moves one step toward ``d``, so the walk either arrives
        in exactly ``manhattan(s, d)`` hops or stops with no candidate.
        After a passed model check every hop stays inside ``d``'s reach
        mask, so only blind mode can stop — and blind mode ran no check,
        so a stopped walk's verdict is unknown (``feasible=None``).
        """
        pos = s
        canonical_path = [pos]
        while pos != d:
            candidates = self._candidates(model, pos, d)
            if not candidates:
                path = [orientation.unmap_coord(c) for c in canonical_path]
                return RouteResult(
                    delivered=False,
                    path=path,
                    feasible=None,
                    stuck_at=path[-1],
                    reason="stuck",
                )
            axis = self.policy.choose(candidates, pos, d)
            if axis not in candidates:
                raise RuntimeError(f"policy chose non-candidate axis {axis}")
            nxt = list(pos)
            nxt[axis] += 1
            pos = tuple(nxt)
            canonical_path.append(pos)
        path = [orientation.unmap_coord(c) for c in canonical_path]
        return RouteResult(delivered=True, path=path, feasible=True)

    def _candidates(self, model: _ClassModel, pos: Coord, dest: Coord) -> list[int]:
        """Surviving preferred axes at ``pos`` for ``dest`` (canonical).

        Algorithm 3 step 2's one exclusion rule: step onto a neighbor
        only if it can still reach ``dest`` through permitted cells.
        ``dest`` itself passes whenever it is permitted, which a routed
        pair's model-safe destination always is.  Blind mode has no
        rule: any non-faulty neighbor will do.
        """
        allowed = model._open if self.mode == "blind" else model.reach_mask(dest)
        out = []
        for axis in range(len(pos)):
            if pos[axis] < dest[axis]:
                nxt = list(pos)
                nxt[axis] += 1
                if allowed[tuple(nxt)]:
                    out.append(axis)
        return out

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

        Off-mesh endpoints raise as in :meth:`route`.
        Faulty-endpoint pairs are resolved immediately into ``results``
        and excluded from the groups.  Groups come class-major, classes
        and then destinations in order of first appearance.  The class
        of every pair, its canonical coordinates and their flat indices
        come from whole-batch array operations; the one pass over the
        pairs only buckets them.
        """
        fault_mask = self.fault_mask
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
            model = self._model_for(orientation)
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
        bound = self.reach_cache_size
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
        orientation, model, d = group.orientation, group.model, group.dest
        feasible = None if self.mode == "blind" else self._group_feasible(group)
        axes = np.unravel_index(group.sources, orientation.shape)
        sources = zip(*(axis.tolist() for axis in axes), strict=True)
        for k, (idx, s) in enumerate(zip(group.indices.tolist(), sources, strict=True)):
            if feasible is not None and not feasible[k]:
                # Match route()'s refusal reason exactly.
                reason = self._infeasible_reason(model, s, d)
                results[idx] = RouteResult(
                    delivered=False,
                    path=[orientation.unmap_coord(s)],
                    feasible=False,
                    reason=reason or "infeasible",
                )
                continue
            results[idx] = self._forward(model, orientation, s, d)
