"""End-to-end orchestration of the distributed MCC pipeline.

``DistributedMCCPipeline`` wires the protocol mixins into one node
class, runs the phases in order (labelling → identification +
boundaries → routing queries), and exposes observer-side accessors used
by the experiments and the validation tests.

Routing queries are **sessions**: :meth:`submit` launches a query
without blocking and returns a :class:`QueryHandle`; :meth:`drain` runs
the simulator to quiescence once and resolves every in-flight session.
The protocol layer namespaces all walker state, messages, and timers by
query id (``routing_proto``), so any number of walks interleave in one
``run_to_quiescence`` with results element-wise identical to blocking
one-at-a-time calls — :meth:`route` is exactly that one-query wrapper.
Per-session message cost comes from the network's payload-tag
accounting (``stats.query_messages``), which for a serial run equals
the historical before/after ``total_messages`` delta.

The pipeline operates in the **canonical direction class**: callers
route pairs with source <= dest component-wise (the experiments orient
their fault masks per pair, exactly like the centralized API does).
Phase changes model the paper's stabilization windows: a deployment
would run the phases continuously with timers, but the fixed-point
content of each phase is identical.

Fault churn
-----------

:meth:`apply_event` drives :meth:`MeshNetwork.inject_fault` /
:meth:`MeshNetwork.repair` mid-run and re-stabilizes incrementally,
mirroring the centralized :mod:`repro.online` subsystem (the two share
epoch semantics; see DESIGN.md "Churn-aware DES"):

* in-flight query sessions are drained first, so every query is
  answered at the epoch it was submitted under;
* **labelling** re-converges scoped to the event's dirty cone: an
  injection only updates the dead cells' neighbors and lets the
  escalation gossip run (labels grow monotonically — warm start); a
  repair resets exactly the labelled cells inside the event's dirty
  slabs (labels shrink only there) and re-announces, with knowledge
  about provably unchanged neighbors kept;
* **identification + boundaries** re-run only for the nodes around
  regions the label diff actually touched: stale section shapes,
  corner marks, and boundary records owned by affected sections are
  pruned and the edge/corner/wall protocol restarts inside the dirty
  region, while untouched regions keep their state.

Each event advances :attr:`epoch`; drained results are stamped with the
epoch they completed under.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import numpy as np
from scipy import ndimage

from repro import obs
from repro.analysis.sanitize import maybe_sanitize_network
from repro.core.labelling import SAFE
from repro.distributed.boundary_proto import BoundaryMixin
from repro.distributed.identification import IdentificationMixin
from repro.distributed.labelling_proto import LabellingNode, labels_as_grid
from repro.distributed.routing_proto import RoutingMixin
from repro.mesh.coords import Coord
from repro.mesh.topology import Mesh
from repro.simkit.message import Message
from repro.simkit.network import MeshNetwork
from repro.util.validation import check_event_cells

#: Chebyshev margin for *affectedness*: a region must re-identify when
#: within distance 2 of a changed label — its ring nodes' contact sets
#: (8-adjacent unsafe cells, possibly of a neighboring region across
#: one safe node) may have changed.
_AFFECT_MARGIN = 2
#: Chebyshev margin for the *restart* node set: ring nodes are
#: 8-adjacent to their region (distance 1) and initialization corners
#: sit on the (umin-1, vmin-1) diagonal — also distance 1.
_IDENT_MARGIN = 1


@dataclass
class QueryHandle:
    """One in-flight (or resolved) routing session.

    ``result`` is populated by :meth:`DistributedMCCPipeline.drain` (or
    immediately at submit time for queries resolved without touching
    the network): the query record with ``status`` in {"delivered",
    "infeasible", "stuck"}, the ``path`` taken, the ``epoch`` the query
    completed under, and ``msgs`` — the messages attributed to this
    session.
    """

    query_id: int
    source: Coord
    dest: Coord
    submitted_epoch: int
    result: dict[str, Any] | None = field(default=None, repr=False)


class MCCProtocolNode(
    RoutingMixin, BoundaryMixin, IdentificationMixin, LabellingNode
):
    """A full protocol node: labelling, identification, walls, routing."""

    def on_message(self, msg: Message) -> None:
        if msg.kind == "LABEL":
            LabellingNode.on_message(self, msg)
        elif self.handle_identification(msg):
            pass
        elif self.handle_boundary(msg):
            pass
        elif self.handle_routing(msg):
            pass

    def on_timer(self, tag: str) -> None:
        if tag == "corner-check":
            IdentificationMixin.on_timer(self, tag)
        else:
            RoutingMixin.on_timer(self, tag)


class DistributedMCCPipeline:
    """Run the whole distributed stack over one fault pattern."""

    def __init__(self, mesh: Mesh, fault_mask: np.ndarray):
        self.mesh = mesh
        self.net = MeshNetwork(mesh, fault_mask, node_factory=MCCProtocolNode)
        # The network and its nodes reference each other.  Clearing the
        # node table when the pipeline is dropped breaks that cycle, so
        # a finished pipeline is freed by reference counting rather
        # than left to the cyclic collector.
        weakref.finalize(self, self.net.nodes.clear)
        self._query_ids = itertools.count(1)
        self._phase_messages: dict[str, int] = {}
        self._built = False
        #: Fault-event epoch, aligned with ``OnlineRoutingService``: 0 at
        #: build, +1 per applied event.
        self.epoch = 0
        self._inflight: list[QueryHandle] = []
        maybe_sanitize_network(self.net)

    @property
    def fault_mask(self) -> np.ndarray:
        """The live fault mask (mutate only via :meth:`apply_event`)."""
        return self.net.fault_mask

    # -- phases ------------------------------------------------------------------

    def build(self) -> "DistributedMCCPipeline":
        """Phase 1+2: labelling, then identification and boundaries."""
        if self._built:
            return self
        with obs.span("pipeline_build", cat="distributed") as sp:
            sp.set_vt(start=self.net.sim.now)
            self.net.start()
            self.net.run_to_quiescence()
            self._phase_messages["labelling"] = self.net.stats.total_messages
            for coord, node in self.net.nodes.items():
                if not self.net.is_faulty(coord):
                    self.net.sim.schedule(0.0, node.start_identification)
            self.net.run_to_quiescence()
            self._phase_messages["identification+boundaries"] = (
                self.net.stats.total_messages - self._phase_messages["labelling"]
            )
            sp.set_vt(end=self.net.sim.now)
            sp.set(messages=self.net.stats.total_messages)
        self._built = True
        return self

    # -- query sessions ----------------------------------------------------------

    def submit(
        self,
        source: Sequence[int],
        dest: Sequence[int],
        strict: bool = True,
        at: float = 0.0,
    ) -> QueryHandle:
        """Launch one routing session without blocking (canonical frame).

        With ``strict=True`` (the :meth:`route` contract) a faulty or
        unsafe source raises.  ``strict=False`` resolves such queries —
        and faulty/unsafe destinations — immediately as failed records
        instead, which is what churn workloads need: endpoints die and
        heal between submissions, and a dead endpoint is a routing
        failure, not a caller bug.

        ``at`` delays the session's start by that many time units from
        now — the open-loop load generator uses it to place Poisson
        arrivals on the simulator clock; with contended links the
        sessions then genuinely overlap and queue against each other.
        """
        if not self._built:
            self.build()
        source = tuple(int(c) for c in source)
        dest = tuple(int(c) for c in dest)
        if any(s > d for s, d in zip(source, dest, strict=True)):
            raise ValueError(f"canonical frame required: {source} !<= {dest}")
        query_id = next(self._query_ids)
        mark = obs.instant(
            "submit", cat="distributed", query_id=query_id, at=float(at)
        )
        if mark is not None:
            mark.vt0 = mark.vt1 = self.net.sim.now
        handle = QueryHandle(
            query_id=query_id,
            source=source,
            dest=dest,
            submitted_epoch=self.epoch,
        )
        reason = self._endpoint_problem(source, dest, strict=strict)
        if reason is not None:
            handle.result = {
                "dest": dest,
                "status": "infeasible",
                "reason": reason,
                "path": [source],
                "query_id": query_id,
                "source": source,
                "epoch": self.epoch,
                "msgs": 0,
                "latency": 0.0,
            }
        else:
            src_node = self.net.nodes[source]
            self.net.sim.schedule(at, src_node.start_query, query_id, dest)
        self._inflight.append(handle)
        return handle

    def _endpoint_problem(
        self, source: Coord, dest: Coord, strict: bool
    ) -> str | None:
        """Validate endpoints; raises (strict) or names the failure."""
        src_unsafe = self.net.is_faulty(source) or (
            self.net.nodes[source].store.get("label", SAFE) != SAFE
        )
        if src_unsafe:
            if strict:
                raise ValueError(f"source {source} is not a safe node")
            return "source unsafe"
        if not strict:
            if self.net.is_faulty(dest) or (
                self.net.nodes[dest].store.get("label", SAFE) != SAFE
            ):
                return "dest unsafe"
        return None

    def drain(self) -> list[dict[str, Any]]:
        """Run to quiescence; resolve every in-flight session, in order.

        Returns the query records in submission order and fills each
        outstanding handle's ``result``.  Every record is stamped with
        the :attr:`epoch` it completed under and its per-session
        message count.
        """
        if not self._inflight:
            return []
        with obs.span(
            "pipeline_drain", cat="distributed", sessions=len(self._inflight)
        ) as sp:
            sp.set_vt(start=self.net.sim.now)
            self.net.run_to_quiescence()
            sp.set_vt(end=self.net.sim.now)
        out: list[dict[str, Any]] = []
        for handle in self._inflight:
            if handle.result is None:
                node = self.net.nodes[handle.source]
                record = dict(node.store["queries"][handle.query_id])
                record.setdefault("path", [handle.source])
                record["query_id"] = handle.query_id
                record["source"] = handle.source
                record["epoch"] = self.epoch
                record["msgs"] = int(
                    self.net.stats.query_messages.get(handle.query_id, 0)
                )
                # Session latency from the protocol's own clock stamps
                # (arrival of start_query -> terminal status); under
                # contended links this includes all queueing delay.
                if "started_at" in record and "completed_at" in record:
                    record["latency"] = record["completed_at"] - record["started_at"]
                handle.result = record
                # Resolved sessions release their protocol-side state so
                # a long-lived pipeline does not grow per query served
                # (straggler replies tolerate the missing entry).
                node.store["queries"].pop(handle.query_id, None)
                self.net.stats.query_messages.pop(handle.query_id, None)
            out.append(handle.result)
        # The queue is quiescent and query ids are never reused, so every
        # detection flood's per-node dedup marker is spent: drop them too.
        for node in self.net.nodes.values():
            node.store.pop("_flood_seen", None)
        self._inflight = []
        return out

    def route(self, source: Sequence[int], dest: Sequence[int]) -> dict:
        """Phase 3: one blocking routing query (thin session wrapper).

        Returns the query record: status in {"delivered", "infeasible",
        "stuck"} plus the path taken.  Exactly ``submit`` + ``drain``
        for a single session — the concurrency parity tests pin that a
        batch of sessions resolves element-wise identically to this.
        """
        handle = self.submit(source, dest)
        self.drain()
        assert handle.result is not None
        return handle.result

    # -- fault churn --------------------------------------------------------------

    def apply_event(
        self, kind: str, cells: Iterable[Sequence[int]]
    ) -> dict[str, Any]:
        """Inject or repair ``cells`` mid-run and re-stabilize incrementally.

        In-flight query sessions are drained first (their records appear
        under ``"flushed"`` in the returned event info, answered at the
        pre-event epoch), then the fault mask mutates, labelling
        re-converges scoped to the event's dirty cone, and
        identification/boundaries re-run only around the regions whose
        labels actually changed.  Advances :attr:`epoch`.  The event
        info also holds the ``kind``, the checked ``cells``, the new
        ``epoch``, the ``messages`` the re-stabilization sent and the
        ``region_cells`` whose identification restarted.
        """
        if kind not in ("inject", "repair"):
            raise ValueError(f"unknown event kind {kind!r}")
        if not self._built:
            self.build()
        mesh_cells = check_event_cells(
            cells, self.fault_mask, want_faulty=kind == "repair"
        )
        with obs.span(
            "pipeline_event", cat="distributed", kind=kind, cells=len(mesh_cells)
        ) as sp:
            sp.set_vt(start=self.net.sim.now)
            flushed = self.drain()
            msgs_before = self.net.stats.total_messages
            pre_status = self.labels_grid()
            if kind == "inject":
                self._stabilize_inject(mesh_cells)
                lost_owners = None
            else:
                lost_owners = self._stabilize_repair(mesh_cells, pre_status)
            self.net.run_to_quiescence()
            post_status = self.labels_grid()
            diff = np.argwhere(pre_status != post_status)
            changed = {tuple(int(v) for v in c) for c in diff}
            changed.update(mesh_cells)
            restart_mask, affected_cells = self._ident_region(
                pre_status, post_status, changed, lost_owners
            )
            self._prune_sections(restart_mask, affected_cells)
            self._restart_identification(restart_mask)
            self.net.run_to_quiescence()
            self.epoch += 1
            stabilize_msgs = self.net.stats.total_messages - msgs_before
            self._phase_messages["restabilization"] = (
                self._phase_messages.get("restabilization", 0) + stabilize_msgs
            )
            region_cells = int(restart_mask.sum())
            sp.set_vt(end=self.net.sim.now)
            sp.set(epoch=self.epoch, messages=stabilize_msgs)
        return {
            "kind": kind,
            "cells": tuple(mesh_cells),
            "epoch": self.epoch,
            "flushed": flushed,
            "region_cells": region_cells,
            "messages": stabilize_msgs,
        }

    def _stabilize_inject(self, cells: list[Coord]) -> None:
        """Kill ``cells``; neighbors detect it and the gossip escalates.

        Labels only grow under injection, so the old fixed point is a
        sound warm start — no resets, no announcements beyond the
        protocol's own change gossip.
        """
        for c in cells:
            self.net.inject_fault(c)
        for c in cells:
            for n in self.mesh.neighbors(c):
                if not self.net.is_faulty(n):
                    node = self.net.nodes[n]
                    self.net.sim.schedule(0.0, node.notice_neighbor_died, c)

    def _stabilize_repair(
        self, cells: list[Coord], pre_status: np.ndarray
    ) -> set[tuple]:
        """Heal ``cells``; reset exactly the labels that may shrink.

        After a repair the labelled set can only shrink, and only inside
        the event's dirty slabs (``[0, max(P)]`` for the ``+`` closure,
        ``[min(P), top]`` for the ``−`` — the same cones the centralized
        incremental model sweeps).  Currently-SAFE nodes cannot change
        at all, so the reset set is the *labelled* cells of those slabs
        plus the repaired cells themselves.

        Returns the ``(plane, corner)`` keys of the sections whose shapes
        or wall records the repaired nodes held.
        """
        for c in cells:
            self.net.repair(c)
        shape = self.mesh.shape
        ndim = len(shape)
        hi_plus = tuple(max(c[a] for c in cells) for a in range(ndim))
        lo_minus = tuple(min(c[a] for c in cells) for a in range(ndim))
        labelled = (pre_status != SAFE) & ~self.net.fault_mask
        for c in cells:  # repaired cells were FAULTY in the snapshot
            labelled[c] = True
        in_plus = np.ones(shape, dtype=bool)
        in_minus = np.ones(shape, dtype=bool)
        for axis in range(ndim):
            idx = np.arange(shape[axis]).reshape(
                tuple(-1 if a == axis else 1 for a in range(ndim))
            )
            in_plus &= idx <= hi_plus[axis]
            in_minus &= idx >= lo_minus[axis]
        reset_mask = labelled & (in_plus | in_minus)
        reset_set = {tuple(int(v) for v in c) for c in np.argwhere(reset_mask)}
        reset_set.update(cells)
        # A rebuild would re-deposit the section shapes and descending
        # wall records the dead node held; remember their owners so the
        # scoped restart re-identifies those sections (possibly far from
        # any label change) and restores the healed node's state.
        lost_owners: set[tuple] = set()
        for c in cells:
            store = self.net.nodes[c].store
            lost_owners.update(store.get("shapes", {}))
            lost_owners.update(
                (key[0], key[1]) for key in store.get("records", {})
            )
            # A repaired node is a fresh node: no stale labels, shapes,
            # records, or query state survive the outage.
            store.clear()
        for c in sorted(reset_set):
            self.net.nodes[c].reset_labelling(reset_set)
        for c in sorted(reset_set):
            node = self.net.nodes[c]
            self.net.sim.schedule(0.0, node.announce_labelling)
        return lost_owners

    def _ident_region(
        self,
        pre_status: np.ndarray,
        post_status: np.ndarray,
        changed: set[Coord],
        lost_owners: set[tuple] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The re-identification scope of one event (mesh-frame masks).

        An unsafe region (in the old *or* new labelling) must
        re-identify exactly when it sits within :data:`_AFFECT_MARGIN`
        of a changed label: its cells, its boundary ring, or its ring
        nodes' contact knowledge changed.  Regions further away keep
        their sections, marks, and records untouched — that locality is
        what makes an event cheaper than a rebuild.

        Returns ``(restart_mask, affected_cells)``: the nodes whose
        edge/corner/wall protocol restarts (the Chebyshev
        :data:`_IDENT_MARGIN`-neighborhood of the changed labels and the
        affected regions — exactly the ring and corner geometry), and
        the affected regions' actual cells (the pruning criterion for
        section state).
        """
        shape = self.mesh.shape
        ndim = len(shape)
        changed_mask = np.zeros(shape, dtype=bool)
        for c in changed:
            changed_mask[c] = True
        structure = ndimage.generate_binary_structure(ndim, ndim)
        near_changed = ndimage.binary_dilation(
            changed_mask, structure=structure, iterations=_AFFECT_MARGIN
        )
        unsafe = (pre_status != SAFE) | (post_status != SAFE)
        labels, count = ndimage.label(unsafe, structure=structure)
        # Sections whose deposited state a repaired node lost must
        # re-identify even when their own labels never changed: mark
        # the regions around each lost owner's corner as touched.
        if lost_owners:
            near_changed = near_changed.copy()
            for _plane, corner in lost_owners:
                window = tuple(
                    slice(max(0, v - 1), min(k, v + 2))
                    for v, k in zip(corner, shape, strict=True)
                )
                near_changed[window] = True
        touched = np.unique(labels[near_changed & unsafe])
        affected_ids = [int(i) for i in touched if i != 0]
        if affected_ids:
            affected_cells = np.isin(labels, affected_ids)
        else:
            affected_cells = np.zeros(shape, dtype=bool)
        restart_mask = ndimage.binary_dilation(
            changed_mask | affected_cells,
            structure=structure,
            iterations=_IDENT_MARGIN,
        )
        return restart_mask, affected_cells

    def _prune_sections(
        self, restart_mask: np.ndarray, affected_cells: np.ndarray
    ) -> None:
        """Drop section state owned by the affected regions.

        Shapes, corner marks, walk markers, and boundary records of
        sections whose cells lie in an affected region are removed
        everywhere (records may have been deposited far below their
        owner by the wall descent); the same is done for stale state
        anchored inside the restart area, which the restarted protocol
        re-deposits idempotently.  State owned by untouched sections is
        kept — that is the point of scoping.
        """

        def in_mask(cell: Coord) -> bool:
            return bool(restart_mask[cell])

        affected: set[tuple] = set()
        for node in self.net.nodes.values():
            for key, shape in node.store.get("shapes", {}).items():
                if key in affected:
                    continue
                _plane, corner = key
                if in_mask(corner) or any(affected_cells[c] for c in shape):
                    affected.add(key)
        for node in self.net.nodes.values():
            store = node.store
            edge_info = store.get("edge_info")
            if edge_info:
                # A neighbor that turned unsafe inside the region will
                # not re-announce; its edge knowledge must not linger.
                for src in [
                    s
                    for s in edge_info
                    if in_mask(s)
                    and (
                        self.net.is_faulty(s)
                        or self.net.nodes[s].store.get("label", SAFE) != SAFE
                    )
                ]:
                    del edge_info[src]
            shapes = store.get("shapes")
            if shapes:
                for key in [k for k in shapes if k in affected]:
                    del shapes[key]
            marks = store.get("_ident_marks")
            if marks:
                for key in [
                    k
                    for k in marks
                    if (k[0], k[1]) in affected or in_mask(k[1])
                ]:
                    del marks[key]
            arrivals = store.get("_ident_back")
            if arrivals:
                for key in [
                    k for k in arrivals if k in affected or in_mask(k[1])
                ]:
                    del arrivals[key]
            corner_of = store.get("corner_of")
            if corner_of:
                store["corner_of"] = [
                    (key, shape)
                    for key, shape in corner_of
                    if key not in affected
                ]
            records = store.get("records")
            if records:
                for key in [
                    k
                    for k in records
                    if (k[0], k[1]) in affected or in_mask(k[1])
                ]:
                    del records[key]

    def _restart_identification(self, restart_mask: np.ndarray) -> None:
        """Re-run edge/corner/wall protocol for live nodes in the scope."""
        for cell in np.argwhere(restart_mask):
            coord = tuple(int(v) for v in cell)
            if self.net.is_faulty(coord):
                continue
            node = self.net.nodes[coord]
            self.net.sim.schedule(0.0, node.start_identification, True)

    # -- observers -----------------------------------------------------------------

    def labels_grid(self) -> np.ndarray:
        return labels_as_grid(self.net)

    def identified_sections(self) -> dict[tuple, frozenset]:
        """(plane, corner) -> shape, from every completed corner."""
        out: dict[tuple, frozenset] = {}
        for _coord, marks in self.net.gather("corner_of", default=[]).items():
            for key, shape in marks or []:
                out[key] = shape
        return out

    def records_at(self, coord: Coord) -> list[dict]:
        """The boundary records held at ``coord``, in delivery order.

        The order follows the simulator's tie order and is not part of
        the contract; compare records as a collection.
        """
        node = self.net.nodes[tuple(coord)]
        return list(node.store.get("records", {}).values())

    def message_counts(self) -> dict[str, int]:
        counts = dict(self.net.stats.by_kind())
        counts.update(
            {f"phase[{k}]": v for k, v in self._phase_messages.items()}
        )
        return counts
