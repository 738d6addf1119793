"""The routing service: one pair or many over one fault pattern.

:class:`RoutingService` is the paper's routing rule (Algorithm 3 /
Algorithm 6 step 2) for one fault pattern under one fault-information
model.  It owns the per-class models of :mod:`repro.routing.engine`,
and routes a pair in four steps:

1. map the pair into its direction class (canonical frame) and give
   its cells C-order flat indices — in the batch decomposition's
   arrays, or at :meth:`~RoutingService.route`'s entry;
2. feasibility check (model condition; Theorem 1/2): model-safe
   endpoints, and the source inside the destination's reach mask;
3. hop-by-hop forwarding by flat index over one flat view of that
   reach mask (the open mask in blind mode): a candidate direction
   survives when its neighbor can still reach the destination through
   permitted nodes — the exact informational content of Algorithm 3
   step 2(b)'s boundary records (see ``_ClassModel`` for why this is
   the distilled form); each hop appends its mesh-frame cell directly;
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
* pairs are grouped by **direction class**, so each class model is
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
* each group probes its reach cache **once**, when its chunk is
  primed, and is handed the mask it read or the one the chunk's flood
  cached: every verdict and every hop of the group's walks reads it;
* the ``feasible_batch`` verdicts are **vectorized**: the class model's
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
    class's groups.  ``cells`` and ``starts`` hold every pair of the
    batch by input position, also shared: the source in the mesh frame
    and in the canonical frame, as lists.
    """

    orientation: Orientation
    model: _ClassModel
    unsafe: np.ndarray  # flat unsafe mask of the class model
    indices: np.ndarray  # input positions
    sources: np.ndarray  # flat source indices
    dest: Coord
    dest_flat: int
    cells: list  # mesh-frame source per input position
    starts: list  # canonical source per input position


class RoutingService:
    """Routes pairs over one fault pattern with shared per-class state.

    ``mode`` selects the fault-information model:

    * ``"mcc"``    — the paper's model (the MCC labelling);
    * ``"rfb"``    — same machinery over rectangular faulty blocks;
    * ``"oracle"`` — the faults alone, so its exclusions are exact
      reverse reachability (reference);
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
        # corner, the C-order cell strides of the mesh shape (also as
        # ints: the walk's step along each axis), and one class-key bit
        # per axis.
        shape = self.fault_mask.shape
        self._far = np.subtract(shape, 1, dtype=np.intp)
        self._strides = np.cumprod((1,) + shape[:0:-1], dtype=np.intp)[::-1]
        self._steps: list[int] = self._strides.tolist()
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
        steps = self._steps
        at, to = (sum(c * k for c, k in zip(p, steps, strict=True)) for p in (s, d))
        # A one-pair group: the verdicts and the walk of a batch.
        group = _Group(
            orientation, model, model.unsafe.reshape(-1), np.array([0]),
            np.array([at]), d, to, [source], [s],
        )
        if self.mode == "blind":
            allowed = model._open
        elif group.unsafe[at] or group.unsafe[to]:
            allowed = None  # refused before any flood
        else:
            allowed = model.reach_mask(d)
        results: list[RouteResult | None] = [None]
        self._route_group(group, allowed, results)
        return results[0]  # type: ignore[return-value]

    # -- batched routing ---------------------------------------------------

    def route_batch(
        self, pairs: Iterable[Sequence[Sequence[int]]]
    ) -> list[RouteResult]:
        """Route every (source, dest) pair; results in input order."""
        pairs = list(pairs)
        with obs.span("route_batch", cat="routing", n=len(pairs)) as sp:
            results: list[RouteResult | None] = [None] * len(pairs)
            for group, allowed in self._primed(self._grouped(pairs, results)):
                self._route_group(group, allowed, results)
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
            for group, reach in self._primed(self._grouped(pairs, results)):
                out[group.indices] = self._group_feasible(group, reach)
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
        cells = arr[:, 0].tolist()
        by_class: dict[int, dict[int, list[int]]] = {}
        rows = zip(faulty.tolist(), keys.tolist(), flat[:, 1].tolist(), strict=True)
        for i, (bad, key, dest) in enumerate(rows):
            if bad:
                results[i] = RouteResult(
                    delivered=False,
                    path=[tuple(cells[i])],
                    feasible=False,
                    reason="endpoint faulty",
                )
            else:
                by_class.setdefault(key, {}).setdefault(dest, []).append(i)

        starts = canonical[:, 0].tolist()
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
                        tuple(dests[ids[0]]), dest, cells, starts,
                    )
                )
        return groups

    def _primed(
        self, groups: list[_Group]
    ) -> Iterator[tuple[_Group, np.ndarray]]:
        """The groups in order, each with its allowed mask.

        The allowed mask is the group's reach mask: the one its cache
        probe read on a hit, or the one its chunk's flood cached on a
        miss.  A chunk is a run of groups holding at most
        :data:`~repro.routing.oracle.WORD_BITS` reach-cache misses, which
        may span direction classes, and never more groups than one class
        cache holds.  Its misses flood in one
        :func:`~repro.routing.engine.prime_reach` call.  Probing a hit
        refreshes it, so the chunk's primed misses evict none of the
        chunk's masks before its groups run.  Blind mode floods nothing
        and hands each group its class's open mask.
        """
        if self.mode == "blind":
            for group in groups:
                yield group, group.model._open
            return
        bound = self.reach_cache_size
        chunk: list[tuple[_Group, np.ndarray | None]] = []
        misses: list[tuple[_ClassModel, Coord]] = []
        for group in groups:
            reach = group.model._reach.get(group.dest)
            if reach is None:
                misses.append((group.model, group.dest))
            chunk.append((group, reach))
            if len(misses) == WORD_BITS or len(chunk) == bound:
                yield from self._with_floods(chunk, prime_reach(misses))
                chunk, misses = [], []
        yield from self._with_floods(chunk, prime_reach(misses))

    @staticmethod
    def _with_floods(
        chunk: list[tuple[_Group, np.ndarray | None]], flooded: list[np.ndarray]
    ) -> Iterator[tuple[_Group, np.ndarray]]:
        """A chunk's groups with its misses' masks filled in, in order."""
        fresh = iter(flooded)
        for group, reach in chunk:
            yield group, next(fresh) if reach is None else reach

    @staticmethod
    def _group_feasible(group: _Group, reach: np.ndarray) -> np.ndarray:
        """Model verdicts for the sources of one group.

        Safe endpoints, then model reachability: one cached flood and
        one gather by flat index per group instead of a probe per pair.
        """
        unsafe = group.unsafe
        if unsafe[group.dest_flat]:
            return np.zeros(len(group.sources), dtype=bool)
        ok = ~unsafe[group.sources]
        if np.count_nonzero(ok):
            ok &= reach.reshape(-1)[group.sources]
        return ok

    def _route_group(
        self,
        group: _Group,
        allowed: np.ndarray | None,
        results: list[RouteResult | None],
    ) -> None:
        """Route the pairs of one (class, destination) group.

        A pair is refused when an endpoint is model-unsafe or its source
        cannot reach the destination; blind mode refuses nothing.  Every
        verdict and walk of the group reads one flat view of
        ``allowed``: the destination's reach mask, or the open mask in
        blind mode.  It may be None only when no pair of the group has
        safe endpoints.
        """
        d, to, unsafe = group.dest, group.dest_flat, group.unsafe
        blind = self.mode == "blind"
        view = None if allowed is None else memoryview(allowed.reshape(-1))
        signs = group.orientation.signs
        rows = zip(group.indices.tolist(), group.sources.tolist(), strict=True)
        for idx, at in rows:
            cell = tuple(group.cells[idx])
            reason = None
            if not blind:
                if unsafe[at] or unsafe[to]:
                    reason = "endpoint inside fault region"
                elif not view[at]:
                    reason = "infeasible"
            if reason is None:
                pos = tuple(group.starts[idx])
                results[idx] = self._walk(view, signs, at, cell, pos, d)
            else:
                results[idx] = RouteResult(
                    delivered=False, path=[cell], feasible=False, reason=reason
                )

    def _walk(
        self,
        allowed: memoryview,
        signs: tuple[int, ...],
        at: int,
        cell: Coord,
        pos: Coord,
        dest: Coord,
    ) -> RouteResult:
        """Forward one pair hop by hop over a flat view of the allowed mask.

        ``pos``/``dest`` are canonical, ``at`` is ``pos``'s flat index
        and ``cell`` is ``pos`` in the mesh frame.  A step along ``axis``
        adds the axis's cell stride to ``at`` and ``signs[axis]`` to
        ``cell``.  Every hop moves one step toward ``dest``, so the walk
        either arrives in exactly ``manhattan(pos, dest)`` hops or stops
        with no candidate.  After a passed model check every hop stays
        inside ``dest``'s reach mask, so only blind mode can stop — and
        blind mode ran no check, so a stopped walk's verdict is unknown
        (``feasible=None``).
        """
        steps = self._steps
        choose = self.policy.choose
        axes = range(len(pos))
        here, there = list(pos), list(cell)
        path = [cell]
        while pos != dest:
            candidates = []
            for a in axes:
                if here[a] < dest[a] and allowed[at + steps[a]]:
                    candidates.append(a)
            if not candidates:
                return RouteResult(
                    delivered=False,
                    path=path,
                    feasible=None,
                    stuck_at=cell,
                    reason="stuck",
                )
            axis = choose(candidates, pos, dest)
            if axis not in candidates:
                raise RuntimeError(f"policy chose non-candidate axis {axis}")
            at += steps[axis]
            here[axis] += 1
            there[axis] += signs[axis]
            pos, cell = tuple(here), tuple(there)
            path.append(cell)
        return RouteResult(delivered=True, path=path, feasible=True)
