"""Distributed MCC identification (Algorithm 2 steps 1–2, Algorithm 5 step 1).

Runs after the labelling protocol has quiesced.  Phases, all strictly
node-local:

1. **Edge announcement** — every safe node that sees an unsafe neighbor
   (in-plane) broadcasts ``EDGE`` with the offending directions; nodes
   store their neighbors' announcements.
2. **Corner detection** — a node whose +u neighbor reports unsafe at +v
   and whose +v neighbor reports unsafe at +u is an *initialization
   corner* (the outer node diagonally below-left of the region's
   (umin, vmin) cell).
3. **Two-head-on identification** — each initialization corner launches
   one clockwise and one counter-clockwise ``IDENT`` message.  Each
   message wall-follows the edge ring, accumulating the unsafe boundary
   cells its hosts observe, and leaves a visit marker at every node.
   When a message arrives at a node already marked by its counterpart,
   the two have met (the paper: "may meet at any edge node … not
   necessary a corner node"): the union of both partial boundaries
   covers the whole ring, the section shape is assembled by boundary
   fill, and ``SHAPE`` messages retrace both trails, depositing the
   shape at every ring node and finally at the initialization corner.
4. **TTL/stability** — ``IDENT`` messages carry a TTL proportional to
   the mesh perimeter; a walker that wanders (unstable regions,
   border-broken rings) is discarded in flight, and the corner simply
   never completes — the paper's discard semantics.  A message that
   walks the full ring back to its corner without meeting its
   counterpart is discarded too ("if only one message is received …
   this message should also be discarded").  ``IDENT_BACK`` and
   ``SHAPE`` only retrace a recorded ``IDENT`` trail, so they carry no
   TTL.

In 3-D the same protocol runs per plane family (XY, XZ, YZ sections):
each message moves only within its plane, matching "the identification
process … starts from the identification of each 2-D section".

Every action probes each neighbor's safety at most once: an edge
announcement probes the 2n neighbors once and derives every plane's
EDGE directions from that result, a corner check reads the EDGE reports
before it probes anything, and an ``IDENT`` hop probes its four in-plane
neighbors once for both its ring contacts and its next step.
"""

from __future__ import annotations

from repro.core.labelling import SAFE
from repro.mesh.coords import Coord
from repro.simkit.message import Message
from repro.simkit.node import NodeProcess
from repro.distributed.ringwalk import (
    fill_interior,
    initial_heading,
    plane_step,
    ring_step,
)


def plane_families(ndim: int) -> list[tuple[int, int]]:
    """The (axis_u, axis_v) section families: one in 2-D, three in 3-D."""
    if ndim == 2:
        return [(0, 1)]
    if ndim == 3:
        return [(0, 1), (0, 2), (1, 2)]
    raise NotImplementedError(f"identification supports 2-D/3-D, got {ndim}-D")


#: Per plane family, each in-plane direction (du, dv) and the slot of its
#: neighbor in a mesh adjacency row, in the order +u, -u, +v, -v.
_PLANE_PROBES = {
    (u, v): (
        ((1, 0), 2 * u), ((-1, 0), 2 * u + 1), ((0, 1), 2 * v), ((0, -1), 2 * v + 1)
    )
    for u, v in plane_families(3)
}


def _reports(planes, plane: tuple[int, int], direction: tuple[int, int]) -> bool:
    """True when an EDGE report's ``planes`` name ``direction`` in ``plane``.

    ``planes`` is the stored report of one neighbor, or None when that
    neighbor sent none.
    """
    for p, dirs in planes or ():
        if p == plane:
            return direction in dirs
    return False


class IdentificationMixin(NodeProcess):
    """Identification behaviour layered onto a labelled node.

    Requires ``store["label"]`` and ``store["known_labels"]`` from the
    labelling protocol.  Results:

    * ``store["shapes"]`` — {(plane, corner): frozenset(mesh cells)} for
      every identified section this node is a ring node of;
    * ``store["corner_of"]`` — [(plane, corner), shape] pairs this node
      initiated and completed.
    """

    # -- local knowledge helpers ------------------------------------------------

    def _is_unsafe(self, coord: Coord) -> bool:
        """Node-local safety knowledge about a *neighbor* cell.

        An off-mesh cell reads as safe: the network's fault set holds
        only mesh nodes, and every ``known_labels`` key is a neighbor.
        """
        if self.network.is_faulty(coord):
            return True
        return self.store["known_labels"].get(coord, SAFE) != SAFE

    def _probe_plane(
        self, plane: tuple[int, int]
    ) -> tuple[dict[tuple[int, int], Coord], dict[tuple[int, int], Coord]]:
        """Probe the four in-plane neighbors once: ``(unsafe, passable)``.

        Both map an in-plane direction (du, dv) to its neighbor, in the
        order +u, -u, +v, -v; a direction off the mesh is in neither.
        """
        row = self.network.mesh.adjacency[self.coord]
        unsafe: dict[tuple[int, int], Coord] = {}
        passable: dict[tuple[int, int], Coord] = {}
        for direction, slot in _PLANE_PROBES[plane]:
            n = row[slot]
            if n is None:
                continue
            if self._is_unsafe(n):
                unsafe[direction] = n
            else:
                passable[direction] = n
        return unsafe, passable

    def _ring_contacts(
        self, plane: tuple[int, int], unsafe: dict[tuple[int, int], Coord]
    ) -> set[Coord]:
        """Unsafe cells 8-adjacent (in-plane) to this node.

        Strictly local knowledge: orthogonal neighbors from this action's
        probe (``unsafe``, see :meth:`_probe_plane`), diagonals via the
        EDGE announcements of the two shared orthogonal neighbors.  A
        node that holds no announcements, as most do, adds no diagonal.
        """
        contacts = set(unsafe.values())
        edge_info = self.store.get("edge_info")
        if not edge_info:
            return contacts
        axis_u, axis_v = plane
        row = self.network.mesh.adjacency[self.coord]
        for du in (-1, 1):
            from_u = edge_info.get(row[2 * axis_u + (du < 0)])
            for dv in (-1, 1):
                from_v = edge_info.get(row[2 * axis_v + (dv < 0)])
                if _reports(from_u, plane, (0, dv)) or _reports(from_v, plane, (du, 0)):
                    contacts.add(plane_step(self.coord, axis_u, axis_v, du, dv))
        return contacts

    # -- phase 1: edge announcements -------------------------------------------

    def start_identification(self, announce_empty: bool = False) -> None:
        """Phase-1 edge announcements plus the corner-check timer.

        ``announce_empty`` sends an EDGE message even when this node has
        no unsafe neighbors: re-stabilization after a fault event uses
        it so neighbors replace stale edge knowledge about this node (an
        initial build has nothing stale to clear and skips the empty
        broadcast).

        Each neighbor is probed once, the way :meth:`_is_unsafe` probes
        it: the EDGE directions of every plane and the live neighbors
        the announcement goes to both come from that one result.
        """
        if self.store.get("label", SAFE) != SAFE:
            return  # unsafe nodes take no part
        self.store.setdefault("shapes", {})
        self.store.setdefault("edge_info", {})
        self.store.setdefault("corner_of", [])
        self.store.setdefault("_ident_marks", {})
        is_faulty = self.network.is_faulty
        known = self.store["known_labels"]
        live: list[Coord] = []
        unsafe: list[bool] = []  # per adjacency-row slot
        for n in self.network.mesh.adjacency[self.coord]:
            if n is None:
                unsafe.append(False)
            elif is_faulty(n):
                unsafe.append(True)
            else:
                live.append(n)
                unsafe.append(known.get(n, SAFE) != SAFE)
        announce = []
        for plane in plane_families(self.network.mesh.ndim):
            dirs = frozenset(d for d, slot in _PLANE_PROBES[plane] if unsafe[slot])
            if dirs:
                announce.append((plane, dirs))
        if announce or announce_empty:
            planes = tuple(announce)
            for n in live:
                self.send(n, "EDGE", {"planes": planes})
        # Corner detection needs one announcement round; check after the
        # announcements have propagated (2 link delays).
        self.set_timer(2.5, "corner-check")

    def _on_edge(self, msg: Message) -> None:
        self.store.setdefault("edge_info", {})[msg.src] = msg.payload["planes"]

    # -- phase 2: corner detection ----------------------------------------------

    def _corner_check(self) -> None:
        """Launch identification in every plane this node is a corner of.

        An initialization corner's +u neighbor reports an unsafe cell at
        +v, its +v neighbor reports one at +u, and both are passable.
        The reports are read first, so a node that holds none (most
        nodes) probes nothing, and each +axis neighbor is probed at most
        once.
        """
        edge_info = self.store.get("edge_info")
        if not edge_info:
            return
        ahead = self.network.mesh.adjacency[self.coord][::2]  # +axis neighbors
        passable: dict[int, bool] = {}
        for plane in plane_families(self.network.mesh.ndim):
            axis_u, axis_v = plane
            if not (
                _reports(edge_info.get(ahead[axis_u]), plane, (0, 1))
                and _reports(edge_info.get(ahead[axis_v]), plane, (1, 0))
            ):
                continue
            # A neighbor that reports is a mesh node.
            for axis in plane:
                if axis not in passable:
                    passable[axis] = not self._is_unsafe(ahead[axis])
            if passable[axis_u] and passable[axis_v]:
                self._launch_identification(plane)

    # -- phase 3: the two-head-on walk -----------------------------------------

    def _ttl(self) -> int:
        """IDENT's TTL: each forward adds a hop (see :meth:`_on_ident`)."""
        return 6 * (2 * sum(self.network.mesh.shape) + 8)

    def _launch_identification(self, plane: tuple[int, int]) -> None:
        """Send the clockwise and the counter-clockwise ``IDENT``.

        Their first cells are this node's +v and +u neighbors, which
        :meth:`_corner_check` found passable.
        """
        axis_u, axis_v = plane
        for clockwise in (True, False):
            du, dv = initial_heading(clockwise)
            first = plane_step(self.coord, axis_u, axis_v, du, dv)
            payload = {
                "plane": plane,
                "corner": self.coord,
                "clockwise": clockwise,
                "heading": (du, dv),
                "trail": (self.coord,),
            }
            self.send(first, "IDENT", payload, ttl=self._ttl())

    def _on_ident(self, msg: Message) -> None:
        if self.store.get("label", SAFE) != SAFE:
            return  # walked onto a node that turned unsafe: drop (instability)
        plane = msg.payload["plane"]
        corner = msg.payload["corner"]
        clockwise = msg.payload["clockwise"]
        trail = msg.payload["trail"] + (self.coord,)

        if self.coord == corner:
            return  # full loop without meeting the counterpart: discard

        unsafe, passable = self._probe_plane(plane)
        contacts = self._ring_contacts(plane, unsafe)
        if not contacts:
            # Left the region's ring (border-broken ring): reverse and
            # bring the partial trail back to the initialization corner.
            self._reverse_ident(plane, corner, clockwise, trail)
            return
        prev_contacts = msg.payload.get("contact", ())
        if prev_contacts and not any(
            all(abs(a - b) <= 1 for a, b in zip(mine_c, prev_c, strict=True))
            for mine_c in contacts
            for prev_c in prev_contacts
        ):
            # Contour discontinuity: this cell hugs a *different* MCC
            # (rings of nearby components touch near mesh borders).
            # Walking on would assemble a bogus union region — reverse.
            self._reverse_ident(plane, corner, clockwise, trail)
            return

        marks = self.store.setdefault("_ident_marks", {})
        other_key = (plane, corner, not clockwise)
        if other_key in marks:
            self._assemble(plane, corner, trail, marks[other_key])
            return  # first contact: stop this walker
        marks[(plane, corner, clockwise)] = trail

        nxt = ring_step(msg.payload["heading"], clockwise, passable)
        if nxt is None:
            self._reverse_ident(plane, corner, clockwise, trail, include_self=True)
            return
        cell, new_heading = nxt
        if len(trail) >= 2 and cell == trail[-2]:
            # Dead-end arc (pinched against the border): the only move is
            # a retreat.  Reverse with this on-ring cell kept in the chain.
            self._reverse_ident(plane, corner, clockwise, trail, include_self=True)
            return
        payload = dict(msg.payload)
        payload["trail"] = trail
        payload["heading"] = new_heading
        payload["contact"] = frozenset(contacts)
        fwd = Message(
            "IDENT", self.coord, cell, payload,
            hops=msg.hops + 1, ttl=msg.ttl,
        )
        self.network.transmit(fwd)

    def _reverse_ident(
        self, plane, corner, clockwise, trail, include_self: bool = False
    ) -> None:
        """Send the partial trail back to the corner (broken ring).

        ``include_self`` keeps the current cell in the chain (dead-end
        reversals happen *on* the ring; off-ring/discontinuity reversals
        happen one step past it).
        """
        chain = trail if include_self else trail[:-1]
        payload = {
            "plane": plane,
            "corner": corner,
            "clockwise": clockwise,
            "trail": chain,
        }
        if len(trail) < 2:
            return
        self.send(trail[-2], "IDENT_BACK", payload)

    def _on_ident_back(self, msg: Message) -> None:
        plane = msg.payload["plane"]
        corner = msg.payload["corner"]
        trail = msg.payload["trail"]
        if self.coord == corner:
            arrivals = self.store.setdefault("_ident_back", {})
            slot = arrivals.setdefault((plane, corner), {})
            slot["cw" if msg.payload["clockwise"] else "ccw"] = trail
            if "cw" in slot and "ccw" in slot:
                # Trails arrive corner-first; _send_shape walks outward
                # from this node, so hand them over reversed.
                self._assemble(
                    plane, corner, slot["cw"][::-1], slot["ccw"][::-1], closed=False
                )
                del arrivals[(plane, corner)]
            return
        # Walk back along the recorded trail toward the corner.
        try:
            here = trail.index(self.coord)
        except ValueError:
            return  # stale trail (should not happen): drop
        if here == 0:
            return
        self.send(trail[here - 1], "IDENT_BACK", dict(msg.payload))

    # -- phase 4: shape assembly and deposit --------------------------------------

    def _assemble(self, plane, corner, mine, theirs, closed: bool = True) -> None:
        """Shape = interior enclosed by the union of the two ring trails.

        The paper assembles the shape from the corner coordinates the
        messages collected; the enclosed-interior fill is the same
        geometry (and also recovers thick interiors).  Holes inside a
        3-D section are filled too — harmless, since the forbidden and
        critical regions depend only on per-column extrema.
        """
        ring = set(mine).union(theirs)
        if not ring:
            return
        axis_u, axis_v = plane
        ring_uv = {(c[axis_u], c[axis_v]) for c in ring}
        corner_uv = (corner[axis_u], corner[axis_v])
        bounds = (self.network.mesh.shape[axis_u], self.network.mesh.shape[axis_v])
        interior = fill_interior(ring_uv, corner_uv, bounds, closed=closed)
        if not interior:
            return  # degenerate ring: discard
        anchor = next(iter(ring))
        shape = frozenset(self._lift(plane, uv, anchor) for uv in interior)
        for trail in (mine, theirs):
            self._send_shape(plane, corner, shape, trail)

    def _lift(self, plane, uv, anchor: Coord) -> Coord:
        out = list(anchor)
        out[plane[0]], out[plane[1]] = uv
        return tuple(out)

    def _send_shape(self, plane, corner, shape, trail) -> None:
        self._store_shape(plane, corner, shape)
        self._maybe_complete(plane, corner, shape)
        if len(trail) < 2:
            return
        payload = {
            "plane": plane,
            "corner": corner,
            "shape": shape,
            "trail": trail[:-1],
        }
        self.send(trail[-2], "SHAPE", payload)

    def _on_shape(self, msg: Message) -> None:
        payload = msg.payload
        self._send_shape(
            payload["plane"], payload["corner"], payload["shape"], payload["trail"]
        )

    def _store_shape(self, plane, corner, shape) -> None:
        self.store.setdefault("shapes", {})[(plane, corner)] = shape

    def _maybe_complete(self, plane, corner, shape) -> None:
        if corner != self.coord:
            return
        marks = self.store.setdefault("corner_of", [])
        key = (plane, corner)
        if key not in [k for k, _ in marks]:
            marks.append((key, shape))
            self.on_section_identified(plane, corner, shape)

    def on_section_identified(self, plane, corner, shape) -> None:
        """Hook for the boundary-construction layer."""

    # -- dispatch -----------------------------------------------------------------

    def handle_identification(self, msg: Message) -> bool:
        """Route identification messages; True when consumed."""
        if msg.kind == "EDGE":
            self._on_edge(msg)
        elif msg.kind == "IDENT":
            self._on_ident(msg)
        elif msg.kind == "IDENT_BACK":
            self._on_ident_back(msg)
        elif msg.kind == "SHAPE":
            self._on_shape(msg)
        else:
            return False
        return True

    def on_timer(self, tag: str) -> None:
        if tag == "corner-check":
            self._corner_check()
