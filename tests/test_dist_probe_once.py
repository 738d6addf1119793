"""The identification and boundary handlers match their reference.

Two savings, each checked against the form it replaced:

* **One probe per neighbor per action.**  The handlers probe each
  neighbor's safety once per action and reuse the result: an edge
  announcement derives every plane's EDGE directions from one probe of
  the 2n neighbors, a corner check reads the EDGE reports before
  probing anything, and an ``IDENT`` or detouring ``WALL`` hop hands its
  in-plane probe to the ring step.
* **A wall carries the shapes it met.**  A detouring ``WALL`` computes a
  section's corner only for a shape its payload's ``met`` does not
  hold, and the descent records the obstructor it merges.

:class:`PerPlaneProbeNode` keeps the forms both replaced: it probes per
plane and probes again inside the ring step, its ``merged`` holds
corners only, every detour hop computes the corner of each shape it
touches, and the first detour hop merges the descent's obstructor
again.  It must leave every node's store, every per-kind message count
and the event count identical to the handlers' across a build, a batch
of queries, an inject and a repair.  :class:`TestDetourHop` runs one
hop by hand: it must merge every section it touches that the walk has
not met.
"""

from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.labelling import SAFE, USELESS
from repro.distributed import pipeline as pipeline_module
from repro.distributed.boundary_proto import BoundaryMixin, _column_map
from repro.distributed.identification import plane_families
from repro.distributed.pipeline import DistributedMCCPipeline, MCCProtocolNode
from repro.distributed.ringwalk import (
    _CCW_ORDER,
    _CW_ORDER,
    initial_heading,
    plane_step,
)
from repro.mesh.topology import Mesh, Mesh2D
from repro.simkit.message import Message
from repro.simkit.network import MeshNetwork
from tests.conftest import random_mask


def _ring_step(coord, heading, clockwise, axis_u, axis_v, passable):
    """The wall-following step driven by a cell predicate."""
    for du, dv in (_CW_ORDER if clockwise else _CCW_ORDER)[heading]:
        nxt = plane_step(coord, axis_u, axis_v, du, dv)
        if passable(nxt):
            return nxt, (du, dv)
    return None


class PerPlaneProbeNode(MCCProtocolNode):
    """The handlers before one-probe-per-action and before walls carried
    the shapes they met: each plane probes anew, each hop computes
    corners anew."""

    def _passable_local(self, coord):
        return self.network.mesh.contains(coord) and not self._is_unsafe(coord)

    def _unsafe_plane_neighbors(self, axis_u, axis_v):
        out = []
        for du, dv in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            n = self.step(axis_u, du) if du else self.step(axis_v, dv)
            if n is not None and self._is_unsafe(n):
                out.append(((du, dv), n))
        return out

    def _neighbor_reports(self, neighbor, plane, direction):
        for p, dirs in self.store.get("edge_info", {}).get(neighbor, ()):
            if p == plane:
                return direction in dirs
        return False

    def _ring_contacts(self, plane):
        axis_u, axis_v = plane
        contacts = {n for _d, n in self._unsafe_plane_neighbors(axis_u, axis_v)}
        for du in (-1, 1):
            for dv in (-1, 1):
                nu = plane_step(self.coord, axis_u, axis_v, du, 0)
                nv = plane_step(self.coord, axis_u, axis_v, 0, dv)
                if self._neighbor_reports(nu, plane, (0, dv)) or (
                    self._neighbor_reports(nv, plane, (du, 0))
                ):
                    contacts.add(plane_step(self.coord, axis_u, axis_v, du, dv))
        return contacts

    def start_identification(self, announce_empty=False):
        if self.store.get("label", SAFE) != SAFE:
            return
        self.store.setdefault("shapes", {})
        self.store.setdefault("edge_info", {})
        self.store.setdefault("corner_of", [])
        self.store.setdefault("_ident_marks", {})
        announce = []
        for plane in plane_families(self.network.mesh.ndim):
            dirs = frozenset(d for d, _n in self._unsafe_plane_neighbors(*plane))
            if dirs:
                announce.append((plane, dirs))
        if announce or announce_empty:
            planes = tuple(announce)
            for n in self.neighbors():
                if not self.network.is_faulty(n):
                    self.send(n, "EDGE", {"planes": planes})
        self.set_timer(2.5, "corner-check")

    def _is_init_corner(self, plane):
        axis_u, axis_v = plane
        nu = plane_step(self.coord, axis_u, axis_v, 1, 0)
        nv = plane_step(self.coord, axis_u, axis_v, 0, 1)
        return (
            self._passable_local(nu)
            and self._passable_local(nv)
            and self._neighbor_reports(nu, plane, (0, 1))
            and self._neighbor_reports(nv, plane, (1, 0))
        )

    def _corner_check(self):
        for plane in plane_families(self.network.mesh.ndim):
            if self._is_init_corner(plane):
                self._launch_identification(plane)

    def _launch_identification(self, plane):
        axis_u, axis_v = plane
        for clockwise in (True, False):
            du, dv = initial_heading(clockwise)
            first = plane_step(self.coord, axis_u, axis_v, du, dv)
            if not self._passable_local(first):
                return
            payload = {
                "plane": plane,
                "corner": self.coord,
                "clockwise": clockwise,
                "heading": (du, dv),
                "trail": (self.coord,),
            }
            self.send(first, "IDENT", payload, ttl=self._ttl())

    def _on_ident(self, msg):
        if self.store.get("label", SAFE) != SAFE:
            return
        plane = msg.payload["plane"]
        axis_u, axis_v = plane
        corner = msg.payload["corner"]
        clockwise = msg.payload["clockwise"]
        trail = msg.payload["trail"] + (self.coord,)
        if self.coord == corner:
            return
        contacts = self._ring_contacts(plane)
        if not contacts:
            self._reverse_ident(plane, corner, clockwise, trail)
            return
        prev_contacts = msg.payload.get("contact", ())
        if prev_contacts and not any(
            all(abs(a - b) <= 1 for a, b in zip(mine_c, prev_c, strict=True))
            for mine_c in contacts
            for prev_c in prev_contacts
        ):
            self._reverse_ident(plane, corner, clockwise, trail)
            return
        marks = self.store.setdefault("_ident_marks", {})
        other_key = (plane, corner, not clockwise)
        if other_key in marks:
            self._assemble(plane, corner, trail, marks[other_key])
            return
        marks[(plane, corner, clockwise)] = trail
        nxt = _ring_step(
            self.coord, msg.payload["heading"], clockwise, axis_u, axis_v,
            self._passable_local,
        )
        if nxt is None:
            self._reverse_ident(plane, corner, clockwise, trail, include_self=True)
            return
        cell, new_heading = nxt
        if len(trail) >= 2 and cell == trail[-2]:
            self._reverse_ident(plane, corner, clockwise, trail, include_self=True)
            return
        payload = dict(msg.payload)
        payload["trail"] = trail
        payload["heading"] = new_heading
        payload["contact"] = frozenset(contacts)
        self.network.transmit(
            Message("IDENT", self.coord, cell, payload, hops=msg.hops + 1, ttl=msg.ttl)
        )

    def _wall_detour(self, payload):
        plane = payload["plane"]
        axis_u, axis_v = plane
        payload = dict(payload)
        merged = payload.get("merged", ())
        for _d, n in self._unsafe_plane_neighbors(axis_u, axis_v):
            shape = self._find_local_shape(plane, n)
            if shape is None:
                continue
            corner = self._section_corner(plane, shape)
            if corner in merged:
                continue
            merged += (corner,)
            self._merge_shape(payload, shape)
            self._retarget(payload, corner)
        payload["merged"] = merged
        if self.coord == payload["target"]:
            payload["mode"] = "descend"
            self._wall_descend(payload)
            return
        clockwise = payload["desc_axis"] == axis_u
        nxt = _ring_step(
            self.coord, payload["heading"], clockwise, axis_u, axis_v,
            self._passable_local,
        )
        if nxt is None:
            return
        cell, heading = nxt
        payload["heading"] = heading
        self._wall_forward(payload, cell)

    def _wall_descend(self, payload):
        desc_axis = payload["desc_axis"]
        nxt = self.step(desc_axis, -1)
        if nxt is None:
            return
        if not self._is_unsafe(nxt):
            self._wall_forward(payload, nxt)
            return
        plane = payload["plane"]
        shape = self._find_local_shape(plane, nxt)
        if shape is None:
            self._wall_retry(payload)
            return
        payload = dict(payload)
        self._merge_shape(payload, shape)
        target = self._section_corner(plane, shape)
        if not self.network.mesh.contains(target):
            return
        payload["mode"] = "detour"
        payload["target"] = target
        payload["heading"] = self._detour_heading(plane, desc_axis)
        self._wall_detour(payload)

    def _retarget(self, payload, corner):
        """Aim the detour at ``corner`` if it lies deeper than the target."""
        target = payload["target"]
        desc = payload["desc_axis"]
        if self.network.mesh.contains(corner) and (
            corner[desc] < target[desc]
            or (corner[desc] == target[desc]
                and corner[payload["guard_axis"]] < target[payload["guard_axis"]])
        ):
            payload["target"] = corner


def _inputs(shape, faults, seed, queries):
    """A fault mask, canonical query pairs and one healthy cell to cycle."""
    rng = np.random.default_rng(seed)
    mask = random_mask(rng, shape, faults)
    healthy = np.argwhere(~mask)
    pairs = []
    for _ in range(queries):
        i, j = rng.integers(0, len(healthy), size=2)
        s = tuple(int(v) for v in np.minimum(healthy[i], healthy[j]))
        d = tuple(int(v) for v in np.maximum(healthy[i], healthy[j]))
        pairs.append((s, d))
    cell = tuple(int(v) for v in healthy[rng.integers(0, len(healthy))])
    return mask, pairs, cell


def _run(node_class, mask, pairs, cell):
    """Build, drain one batch, inject ``cell``, repair it; the pipeline."""
    with mock.patch.object(pipeline_module, "MCCProtocolNode", node_class):
        pipe = DistributedMCCPipeline(Mesh(mask.shape), mask.copy())
    assert all(type(node) is node_class for node in pipe.net.nodes.values())
    pipe.build()
    for s, d in pairs:
        pipe.submit(s, d, strict=False)
    pipe.drain()
    pipe.apply_event("inject", [cell])
    pipe.apply_event("repair", [cell])
    return pipe


def _assert_same_run(mask, pairs, cell):
    ref = _run(PerPlaneProbeNode, mask, pairs, cell)
    pipe = _run(MCCProtocolNode, mask, pairs, cell)
    assert pipe.net.sim.events_processed == ref.net.sim.events_processed
    assert pipe.net.stats.by_kind() == ref.net.stats.by_kind()
    assert pipe.net.stats.gauges == ref.net.stats.gauges
    for coord, node in ref.net.nodes.items():
        assert dict(pipe.net.nodes[coord].store) == dict(node.store), coord
    return pipe


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    shape=st.tuples(*(st.integers(3, 7) for _ in range(3))),
    density=st.floats(0.03, 0.25),
    seed=st.integers(0, 2**16),
)
def test_handlers_match_per_plane_reference(shape, density, seed):
    faults = max(1, int(density * np.prod(shape)))
    _assert_same_run(*_inputs(shape, faults, seed, queries=12))


@pytest.mark.parametrize(
    "shape, faults, seed", [((8, 8, 8), 40, 802), ((10, 10, 10), 80, 2005)]
)
def test_handlers_match_per_plane_reference_with_walls(shape, faults, seed):
    """Lifecycles dense enough that walls detour around obstructors.

    The reference computes a section's corner at every detour hop that
    touches the section; the walk computes one per shape it meets, under
    half as many here (18 against 45 on 8x8x8, 65 against 3,953 on
    10x10x10).
    """
    corners = Counter()
    section_corner = BoundaryMixin._section_corner

    def counted(self, plane, shape):
        corners[type(self)] += 1
        return section_corner(self, plane, shape)

    spy = mock.patch.object(
        MCCProtocolNode, "_wall_detour", autospec=True,
        side_effect=BoundaryMixin._wall_detour,
    )
    with spy as detours, mock.patch.object(BoundaryMixin, "_section_corner", counted):
        pipe = _assert_same_run(*_inputs(shape, faults, seed, queries=20))
    assert detours.call_count > 0
    assert pipe.net.stats.by_kind()["IDENT"] > 0
    assert 0 < corners[MCCProtocolNode] * 2 < corners[PerPlaneProbeNode]


def _sections_touched(node, payload):
    """``(touched, unmet)``: the sections next to ``node`` (in-plane), and
    how many of them are missing from the walk's ``met`` shapes: what one
    ``_wall_detour`` hop looks at, and what it may merge."""
    plane = payload["plane"]
    unsafe, _passable = node._probe_plane(plane)
    met = payload.get("met", ())
    shapes = []
    for n in unsafe.values():
        shape = node._find_local_shape(plane, n)
        if shape is not None and shape not in shapes:
            shapes.append(shape)
    return len(shapes), sum(shape not in met for shape in shapes)


def test_detour_hop_merges_every_section_it_touches():
    """A lifecycle whose walls detour past a met section and an unmet one.

    Such hops are rare (the 8x8x8 wall lifecycle above has none).  This
    8x8x8 pattern has four: each node touches two sections, one of them
    missing from the walk's ``met`` shapes, so the hop must look past
    the section it has met to merge the other.  Every node's records
    must match the reference, which merges each section a hop touches.
    A hop that touches two sections the walk has not met is rarer
    still; :class:`TestDetourHop` builds one.
    """
    touched = []

    def counted(self, payload):
        touched.append(_sections_touched(self, payload))
        return BoundaryMixin._wall_detour(self, payload)

    with mock.patch.object(MCCProtocolNode, "_wall_detour", counted):
        _assert_same_run(*_inputs((8, 8, 8), 60, 198, queries=0))
    assert sum(sections >= 2 and unmet >= 1 for sections, unmet in touched) >= 1


class TestDetourHop:
    """One detour hop merges each section it touches that the walk has
    not met, and no other.

    (2, 2)'s +u neighbor lies in section ``EAST``, cornered at (2, 0), and
    its -u neighbor in ``WEST``, cornered at (0, 1).  The wall descends
    axis 1 and guards axis 0, so a section's tops are its per-column
    (axis 0) highest axis-1 coordinates.  The hop runs alone, with the
    node's knowledge set by hand, and the payload it forwards is kept.
    """

    PLANE = (0, 1)
    EAST = frozenset({(3, 1), (3, 2)})
    WEST = frozenset({(1, 2), (1, 3)})

    def _forwarded(self, met, merged):
        net = MeshNetwork(Mesh2D(6), np.zeros((6, 6), dtype=bool),
                          node_factory=MCCProtocolNode)
        node = net.nodes[(2, 2)]
        node.store["label"] = SAFE
        node.store["known_labels"] = {(3, 2): USELESS, (1, 2): USELESS}
        node.store["shapes"] = {
            (self.PLANE, (2, 0)): self.EAST,
            (self.PLANE, (0, 1)): self.WEST,
        }
        payload = {
            "plane": self.PLANE,
            "desc_axis": 1,
            "guard_axis": 0,
            "tops": _column_map({5: 1}),
            "target": (4, 4),
            "heading": (-1, 0),
            "met": met,
            "merged": merged,
        }
        sent = []
        with mock.patch.object(node, "_wall_forward", lambda p, _dst: sent.append(p)):
            node._wall_detour(payload)
        (forwarded,) = sent
        return forwarded

    def test_merges_both_sections_the_walk_has_not_met(self):
        out = self._forwarded(met=(), merged=())
        assert set(out["merged"]) == {(2, 0), (0, 1)}
        assert set(out["met"]) == {self.EAST, self.WEST}
        assert dict(out["tops"]) == {1: 3, 3: 2, 5: 1}
        assert out["target"] == (2, 0)

    @pytest.mark.parametrize(
        "met, merged", [((EAST,), ((2, 0),)), ((), ((2, 0),))],
        ids=["east-met", "east-corner-merged"],
    )
    def test_skips_a_met_shape_and_a_merged_corner(self, met, merged):
        out = self._forwarded(met=met, merged=merged)
        assert set(out["merged"]) == {(2, 0), (0, 1)}
        assert set(out["met"]) == {self.EAST, self.WEST}
        assert dict(out["tops"]) == {1: 3, 5: 1}
        assert out["target"] == (0, 1)
