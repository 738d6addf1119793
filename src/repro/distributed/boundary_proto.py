"""Distributed boundary construction (Algorithm 2 step 3, Algorithm 5 step 4).

When a section's identification completes at its initialization corner,
the corner launches two wall-walk messages per plane:

* one descending −v that guards +u crossings into the section's
  v-shadow (the 2-D Y boundary; the (+Y−X)/(+Z−Y)/(+Z−X) boundaries of
  the 3-D section families), and
* one descending −u that guards +v crossings into the u-shadow (the 2-D
  X boundary; (+X−Y)/(+Y−Z)/(+X−Z)).

Each ``WALL`` message deposits a *boundary record* at every node it
visits: the owning section, the shadow (forbidden) region encoded as
per-column tops, and the critical region as per-column bottoms.  When
the descent runs into another MCC section, the walk *joins* that
section's boundary: it merges the obstructor's shadow into its record
(per-column max — the paper's ``Q(c) := Q(c) ∪ Q(v)``), wall-follows
around the obstructor to its initialization corner, and resumes the
descent — recursively chaining through any further obstructions.

The obstructor's shape is read from the *local* store of the node that
bumped into it: that node is 4-adjacent to the obstructing section, so
it is one of the ring nodes where the identification phase deposited
the shape.  If identification has not finished there yet, the walk
retries after a short local delay (bounded), mirroring the paper's
implicit stabilization ordering.

A wall carries what it has merged: ``merged``, the corners of the
sections it merged, and ``met``, every shape it has looked at, each
one merged or holding a corner already in ``merged``.  A detour hop
computes a shape's corner only for a shape not in ``met``; a shape not
yet met whose corner is in ``merged`` is skipped, as before.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any

from repro.core.labelling import SAFE
from repro.mesh.coords import Coord
from repro.simkit.message import Message
from repro.simkit.node import NodeProcess
from repro.distributed.ringwalk import column_bottoms, column_tops, ring_step

_MAX_RETRIES = 40
_RETRY_DELAY = 5.0


def _column_map(heights: dict[int, int]) -> MappingProxyType:
    """Read-only column -> height map, in column order.

    Every record deposited along a wall shares it by reference.
    """
    return MappingProxyType(dict(sorted(heights.items())))


class BoundaryMixin(NodeProcess):
    """Boundary-construction behaviour; layers on IdentificationMixin."""

    # -- launching ---------------------------------------------------------------

    def on_section_identified(self, plane, corner, shape) -> None:
        """Identification hook: start this section's two boundary walls."""
        for desc_idx in (1, 0):  # descend v (guard +u), then descend u (guard +v)
            desc_axis = plane[desc_idx]
            guard_axis = plane[1 - desc_idx]
            columns = {(c[guard_axis], c[desc_axis]) for c in shape}
            payload = {
                "plane": plane,
                "owner": corner,
                "desc_axis": desc_axis,
                "guard_axis": guard_axis,
                "tops": _column_map(column_tops(columns)),
                "bottoms": _column_map(column_bottoms(columns)),
                "mode": "descend",
                "retries": 0,
            }
            self._wall_arrive(payload)

    # -- record bookkeeping ---------------------------------------------------------

    def _deposit_record(self, payload: dict[str, Any]) -> None:
        records = self.store.setdefault("records", {})
        key = (
            payload["plane"],
            payload["owner"],
            payload["desc_axis"],
            payload["guard_axis"],
        )
        records[key] = {
            "plane": payload["plane"],
            "owner": payload["owner"],
            "shadow_axis": payload["desc_axis"],
            "guard_axis": payload["guard_axis"],
            "tops": payload["tops"],
            "bottoms": payload["bottoms"],
        }

    # -- the walk ------------------------------------------------------------------

    def _wall_arrive(self, payload: dict[str, Any]) -> None:
        """Handle the wall message at this node (deposit, then move on)."""
        if self.store.get("label", SAFE) != SAFE:
            return
        budget = 8 * (2 * sum(self.network.mesh.shape) + 8)
        if payload.get("hops", 0) > budget:
            self.network.stats.bump("dropped[wall-hops]")
            return
        self._deposit_record(payload)
        if payload["mode"] == "descend":
            self._wall_descend(payload)
        else:
            self._wall_detour(payload)

    def _wall_descend(self, payload: dict[str, Any]) -> None:
        desc_axis = payload["desc_axis"]
        nxt = self.step(desc_axis, -1)
        if nxt is None:
            return  # reached the mesh floor: wall complete
        if not self._is_unsafe(nxt):
            self._wall_forward(payload, nxt)
            return
        # Obstructed: join the obstructor's boundary (chain merge).
        plane = payload["plane"]
        shape = self._find_local_shape(plane, nxt)
        if shape is None:
            self._wall_retry(payload)
            return
        payload = dict(payload)
        self._merge_shape(payload, shape)
        target = self._section_corner(plane, shape)
        if not self.network.mesh.contains(target):
            return  # obstructor hugs the mesh edge: wall ends (barrier)
        # Record the obstructor, so the detour does not merge it again.
        met = payload.get("met", ())
        if shape not in met:
            payload["met"] = met + (shape,)
            merged = payload.get("merged", ())
            if target not in merged:
                payload["merged"] = merged + (target,)
        payload["mode"] = "detour"
        payload["target"] = target
        # Initial detour heading: turn from -desc toward -guard.
        payload["heading"] = self._detour_heading(plane, desc_axis)
        self._wall_detour(payload)

    def _wall_detour(self, payload: dict[str, Any]) -> None:
        plane = payload["plane"]
        payload = dict(payload)
        # One probe of the in-plane neighbors serves the merge and the
        # ring step.
        unsafe, passable = self._probe_plane(plane)
        # A pinched detour can run along *other* sections than the one
        # that obstructed the descent: merge every section this node
        # touches and retarget to the deepest corner seen so far, so the
        # walk resumes below the whole chained obstruction.
        merged = payload.get("merged", ())
        met = payload.get("met", ())
        for n in unsafe.values():
            shape = self._find_local_shape(plane, n)
            if shape is None or shape in met:
                continue
            met += (shape,)
            corner = self._section_corner(plane, shape)
            if corner in merged:
                continue
            merged += (corner,)
            self._merge_shape(payload, shape)
            target = payload["target"]
            desc = payload["desc_axis"]
            if self.network.mesh.contains(corner) and (
                corner[desc] < target[desc]
                or (corner[desc] == target[desc]
                    and corner[payload["guard_axis"]] < target[payload["guard_axis"]])
            ):
                payload["target"] = corner
        payload["merged"] = merged
        payload["met"] = met
        if self.coord == payload["target"]:
            payload["mode"] = "descend"
            self._wall_descend(payload)
            return
        clockwise = payload["desc_axis"] == plane[0]  # see module docstring
        nxt = ring_step(payload["heading"], clockwise, passable)
        if nxt is None:
            return  # boxed in; drop the wall here
        cell, heading = nxt
        payload["heading"] = heading
        self._wall_forward(payload, cell)

    def _wall_forward(self, payload: dict[str, Any], dst: Coord) -> None:
        payload = dict(payload)
        payload["hops"] = payload.get("hops", 0) + 1
        self.send(dst, "WALL", payload)

    def _wall_retry(self, payload: dict[str, Any]) -> None:
        payload = dict(payload)
        payload["retries"] = payload.get("retries", 0) + 1
        if payload["retries"] > _MAX_RETRIES:
            return  # obstructor never identified (e.g. broken ring): drop
        self.network.sim.schedule(_RETRY_DELAY, self._wall_arrive, payload)

    # -- helpers -----------------------------------------------------------------------

    def _detour_heading(self, plane, desc_axis) -> tuple[int, int]:
        """First detour move: toward -guard, i.e. -u when descending v."""
        if desc_axis == plane[1]:  # descending v, guard u: head -u
            return (-1, 0)
        return (0, -1)  # descending u, guard v: head -v

    def _find_local_shape(self, plane, cell: Coord):
        """Shape of the section (same plane family) containing ``cell``."""
        for (p, _corner), shape in self.store.get("shapes", {}).items():
            if p == plane and cell in shape:
                return shape
        return None

    def _section_corner(self, plane, shape) -> Coord:
        """In-plane SW outer corner (umin-1, vmin-1) of a section shape."""
        axis_u, axis_v = plane
        umin = min(c[axis_u] for c in shape)
        vmin = min(c[axis_v] for c in shape)
        out = list(next(iter(shape)))
        out[axis_u] = umin - 1
        out[axis_v] = vmin - 1
        return tuple(out)

    def _merge_shape(self, payload: dict[str, Any], shape) -> None:
        """Q := Q ∪ Q(obstructor): per-column max of shadow tops.

        Replaces ``payload["tops"]``: the old map is shared with every
        record already deposited along the wall.
        """
        desc_axis = payload["desc_axis"]
        col_axis = payload["guard_axis"]
        columns = [(c[col_axis], c[desc_axis]) for c in shape]
        payload["tops"] = _column_map(
            column_tops([*payload["tops"].items(), *columns])
        )

    # -- dispatch ---------------------------------------------------------------------

    def handle_boundary(self, msg: Message) -> bool:
        if msg.kind == "WALL":
            self._wall_arrive(msg.payload)
            return True
        return False
