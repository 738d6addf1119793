"""Distributed feasibility detection and routing (Algorithms 3 and 6).

Canonical-frame protocol (the pipeline orients the mesh per pair):

* **Detection** (step 1): the source launches detection messages that
  hug the low faces of the RMP.  2-D: two greedy walks (prefer +Y along
  x = xs detouring +X; prefer +X along y = ys detouring +Y).  3-D:
  three surface floods ((−X): spread +Y/+Z detour +X; (−Y): +X/+Z
  detour +Y; (−Z): +X/+Y detour +Z).  A message reaching its target
  segment/surface sends ``DETECT_OK`` back along its trail; a 2-D walk
  that gets cornered sends ``DETECT_FAIL``.  Flood failures are detected
  by timeout at the source (a drained flood sends nothing).
* **Routing** (step 2): ``ROUTE`` messages are forwarded hop by hop.
  Candidate directions are the preferred (+) axes; a candidate is
  deferred when the neighbor is known-unsafe (local labels) or when a
  local boundary record marks the neighbor as forbidden while the
  destination lies in the record's critical region — Algorithm 3 step
  2(b) from strictly node-local state.  Ties go to the lowest axis
  (deterministic; the engine-level tests cover other policies).  A
  walker that dead-ends *backtracks*: the token carries its visited
  set, returns to the previous hop, and the search resumes with the
  next candidate.  Labels and records cannot express traps that only
  exist in the lower-dimensional problem left once an axis is
  exhausted (``coord[a] == dest[a]`` — e.g. two MCCs whose 2-D
  sections merge diagonally inside the remaining plane), so the walk
  stays guided-greedy when the records suffice and degrades to a
  depth-first search of the RMP when they do not, making delivery
  exact: the walker reaches the destination iff a minimal path through
  non-faulty nodes exists.  Committed moves are always +1 along an
  axis, so a delivered path is minimal by construction.

Outcomes are deposited at the source node's store: ``"queries"`` maps a
query id to ``"delivered"``, ``"infeasible"`` or ``"stuck"`` plus the
path taken.

**Concurrent sessions.**  Every piece of routing state is namespaced by
the pipeline-unique query id: the per-source ``"queries"`` records, the
flood dedup set (keyed ``(query, surface)``), the detection timeout
timer tag (``detect-timeout:<id>``), and each walker's path/visited
state (carried in the message payload, never in node stores).  Every
DETECT/ROUTE message and reply also carries the id in its payload — the
network attributes per-session message cost from that tag.  Queries
read only node-local state that is *static during the query phase*
(labels, boundary records), so any number of walks may interleave in
one ``run_to_quiescence`` and each resolves exactly as it would have
alone; ``tests/test_des_concurrent.py`` pins that batch results are
element-wise identical to blocking per-query calls.

**Payloads.**  Coordinates are tuples, a trail or path is a tuple of
coordinates and the walker's visited set is a frozenset, all passed to
the next hop by reference.  A forward sends ``trail + (dst,)``, a reply
hop sends ``trail[:-1]`` to ``trail[-2]``, and the walker marks a cell
with ``visited | {cell}``: no hop re-encodes a coordinate or writes to a
value that another hop holds.
"""

from __future__ import annotations

from typing import Any

from repro.core.labelling import SAFE
from repro.mesh.coords import Coord
from repro.simkit.message import Message
from repro.simkit.node import NodeProcess

_DETECT_TIMEOUT_FACTOR = 6.0


class RoutingMixin(NodeProcess):
    """Routing behaviour; layers on labelling + boundary mixins."""

    # -- query bookkeeping (source side) ----------------------------------------

    def start_query(self, query_id: int, dest: Coord) -> None:
        """Begin feasibility detection for a routing toward ``dest``.

        Axes with zero offset collapse the RMP into a lower-dimensional
        slice (the surface messages of Algorithm 6 verify one coordinate
        each, which is vacuous along a degenerate axis), so the
        detection is chosen by the number of *live* axes: three surface
        floods for a full 3-D octant, two in-plane walks when one axis
        is degenerate (and for 2-D meshes), and a single straight-line
        walk when only one axis is live.
        """
        dest = tuple(dest)
        queries = self.store.setdefault("queries", {})
        queries[query_id] = {
            "dest": dest,
            "status": "detecting",
            "oks": set(),
            "expected": 0,
            "path": [self.coord],
            # Session clock stamps: arrival now, completion at the
            # terminal status transition.  The pipeline turns the pair
            # into end-to-end session latency (queueing included).
            "started_at": self.network.sim.now,
        }
        if dest == self.coord:
            queries[query_id]["status"] = "delivered"
            queries[query_id]["completed_at"] = self.network.sim.now
            return
        live = tuple(
            a for a in range(self.network.mesh.ndim) if dest[a] != self.coord[a]
        )
        if len(live) == 1:
            queries[query_id]["expected"] = 1
            self._launch_detect_walks(query_id, dest, ((live[0], None),))
        elif len(live) == 2:
            queries[query_id]["expected"] = 2
            # Plane walks on a 3-D mesh consult full-class labels, which
            # can under-block inside the slice: their failure verdict is
            # advisory only (the exact backtracking walker settles it).
            queries[query_id]["advisory"] = self.network.mesh.ndim == 3
            self._launch_detect_walks(
                query_id, dest, ((live[1], live[0]), (live[0], live[1]))
            )
        else:
            queries[query_id]["expected"] = 3
            self._launch_detect_floods(query_id, dest)
        timeout = _DETECT_TIMEOUT_FACTOR * (sum(self.network.mesh.shape) + 10)
        self.set_timer(timeout, f"detect-timeout:{query_id}")

    def on_timer(self, tag: str) -> None:
        if tag.startswith("detect-timeout:"):
            query_id = int(tag.split(":", 1)[1])
            query = self.store.get("queries", {}).get(query_id)
            if query is not None and query["status"] == "detecting":
                query["status"] = "infeasible"
                query["completed_at"] = self.network.sim.now
            return
        super().on_timer(tag)

    # -- detection: 2-D greedy walks ------------------------------------------------

    def _launch_detect_walks(
        self,
        query_id: int,
        dest: Coord,
        axes: tuple[tuple[int, int | None], ...],
    ) -> None:
        """Greedy walks, one per (prefer, detour) axis pair.

        ``detour=None`` is the 1-D straight-line walk: any obstruction
        fails it.  For a 2-D mesh ``axes`` is ((1, 0), (0, 1)) — the
        paper's two walks; for a 3-D pair with one degenerate axis the
        same two walks run inside the remaining plane.
        """
        for prefer_axis, detour_axis in axes:
            payload = {
                "query": query_id,
                "dest": dest,
                "source": self.coord,
                "prefer": prefer_axis,
                "detour": detour_axis,
                "trail": (self.coord,),
            }
            self._detect_walk_step(payload)

    def _detect_walk_step(self, payload: dict[str, Any]) -> None:
        dest = payload["dest"]
        prefer = payload["prefer"]
        detour = payload.get("detour")
        if self.coord[prefer] == dest[prefer]:
            self._detect_reply(payload, ok=True)
            return
        ahead = self.step(prefer, 1)
        if ahead is not None and not self._is_unsafe(ahead):
            self._detect_forward(payload, ahead)
            return
        if detour is None or self.coord[detour] >= dest[detour]:
            self._detect_reply(payload, ok=False)
            return
        side = self.step(detour, 1)
        if side is None or self._is_unsafe(side):
            self._detect_reply(payload, ok=False)
            return
        self._detect_forward(payload, side)

    def _detect_forward(self, payload: dict[str, Any], dst: Coord) -> None:
        payload = dict(payload)
        payload["trail"] = payload["trail"] + (dst,)
        self.send(dst, "DETECT", payload)

    # -- detection: 3-D surface floods ------------------------------------------------

    _SURFACES = {  # name: (spread axes, detour axis, target axis)
        "-X": ((1, 2), 0, 1),
        "-Y": ((0, 2), 1, 2),
        "-Z": ((0, 1), 2, 0),
    }

    def _launch_detect_floods(self, query_id: int, dest: Coord) -> None:
        for name in self._SURFACES:
            payload = {
                "query": query_id,
                "dest": dest,
                "source": self.coord,
                "surface": name,
                "trail": (self.coord,),
            }
            self._detect_flood_step(payload)

    def _detect_flood_step(self, payload: dict[str, Any]) -> None:
        dest = payload["dest"]
        name = payload["surface"]
        spread, detour, target = self._SURFACES[name]
        seen = self.store.setdefault("_flood_seen", set())
        key = (payload["query"], name)
        if key in seen:
            return
        seen.add(key)
        if self.coord[target] == dest[target]:
            self._detect_reply(payload, ok=True)
            return
        moves = []
        obstructed = False
        for axis in spread:
            if self.coord[axis] >= dest[axis]:
                continue
            ahead = self.step(axis, 1)
            if self._is_unsafe(ahead):
                obstructed = True
            else:
                moves.append(ahead)
        if obstructed and self.coord[detour] < dest[detour]:
            side = self.step(detour, 1)
            if not self._is_unsafe(side):
                moves.append(side)
        for nxt in moves:
            self._detect_forward(payload, nxt)

    # -- detection replies -----------------------------------------------------------

    def _detect_reply(self, payload: dict[str, Any], ok: bool) -> None:
        kind = "DETECT_OK" if ok else "DETECT_FAIL"
        reply = {
            "query": payload["query"],
            "which": payload.get("prefer", payload.get("surface")),
            "trail": payload["trail"],
        }
        self._reply_step(kind, reply)

    def _reply_step(self, kind: str, payload: dict[str, Any]) -> None:
        trail = payload["trail"]
        if len(trail) <= 1:
            if kind == "ROUTE_DONE":
                self._absorb_route_done(payload)
            else:
                self._absorb_reply(kind, payload)
            return
        payload = dict(payload)
        payload["trail"] = trail[:-1]
        self.send(trail[-2], kind, payload)

    def _absorb_reply(self, kind: str, payload: dict[str, Any]) -> None:
        query = self.store.get("queries", {}).get(payload["query"])
        if query is None or query["status"] != "detecting":
            return
        if kind == "DETECT_FAIL":
            if query.get("advisory"):
                # Inconclusive reduced-problem detection: route anyway;
                # the backtracking walker is exact either way.
                query["status"] = "routing"
                self._launch_route(payload["query"], query)
            else:
                query["status"] = "infeasible"
                query["completed_at"] = self.network.sim.now
            return
        query["oks"].add(payload["which"])
        if len(query["oks"]) >= query["expected"]:
            query["status"] = "routing"
            self._launch_route(payload["query"], query)

    # -- routing ------------------------------------------------------------------------

    def _launch_route(self, query_id: int, query: dict[str, Any]) -> None:
        payload = {
            "query": query_id,
            "dest": query["dest"],
            "source": self.coord,
            "path": (self.coord,),
            "visited": frozenset((self.coord,)),
        }
        self._route_step(payload)

    def _route_step(self, payload: dict[str, Any]) -> None:
        dest = payload["dest"]
        if self.coord == dest:
            self._route_done(payload, "delivered")
            return
        visited = payload["visited"]
        for nxt in self._route_candidates(dest):
            if nxt in visited:
                continue
            forward = dict(payload)
            forward["path"] = payload["path"] + (nxt,)
            forward["visited"] = visited | {nxt}
            self.send(nxt, "ROUTE", forward)
            return
        # Dead end: every live successor already tried.  Backtrack the
        # token one hop; the previous node resumes with its next
        # candidate (each cell enters the visited set once, so the
        # search is linear in the RMP size and always terminates).
        path = payload["path"]
        if len(path) <= 1:
            self._route_done(payload, "stuck")
            return
        back = dict(payload)
        back["path"] = path[:-1]
        self.send(path[-2], "ROUTE", back)

    def _route_candidates(self, dest: Coord) -> list[Coord]:
        """Preferred neighbors ordered by Algorithm 3 step 2, best first.

        Live (non-faulty) preferred neighbors only; those permitted by
        the local labels and boundary records come first.  Excluded
        neighbors are deferred to the end rather than dropped outright:
        per-MCC-section records cannot express every trap of the
        reduced problem after an axis is exhausted, and the
        backtracking walk corrects such excursions exactly.
        """
        records = self.store.get("records", {}).values()
        preferred: list[Coord] = []
        deferred: list[Coord] = []
        for axis in range(len(self.coord)):
            if self.coord[axis] >= dest[axis]:
                continue
            nxt = self.step(axis, 1)
            if nxt is None or self.network.is_faulty(nxt):
                continue  # never forward off the mesh or to a dead node
            if self._is_unsafe(nxt) or any(
                self._record_forbids(rec, nxt, axis, dest) for rec in records
            ):
                deferred.append(nxt)
            else:
                preferred.append(nxt)
        return preferred + deferred

    def _record_forbids(
        self, rec: dict[str, Any], neighbor: Coord, axis: int, dest: Coord
    ) -> bool:
        if rec["guard_axis"] != axis:
            return False
        shadow_axis = rec["shadow_axis"]
        col_axis = rec["guard_axis"]
        # Critical-region test for the destination.  Records are
        # plane-local: off-plane axes must match the destination for the
        # per-section critical region to contain it.
        plane = rec["plane"]
        for a in range(len(dest)):
            if a not in plane and dest[a] != self.coord[a]:
                return False
        d_col = dest[col_axis]
        bottoms = rec["bottoms"]
        if d_col not in bottoms or dest[shadow_axis] <= bottoms[d_col]:
            return False
        # Forbidden-region test for the neighbor.
        tops = rec["tops"]
        n_col = neighbor[col_axis]
        return n_col in tops and neighbor[shadow_axis] < tops[n_col]

    def _route_done(self, payload: dict[str, Any], status: str) -> None:
        # Notify the source along the reverse path.
        notice = {
            "query": payload["query"],
            "status": status,
            "path": payload["path"],
            "trail": payload["path"],
        }
        self._reply_step("ROUTE_DONE", notice)

    def _absorb_route_done(self, payload: dict[str, Any]) -> None:
        query = self.store.get("queries", {}).get(payload["query"])
        if query is None:
            return
        query["status"] = payload["status"]
        query["path"] = list(payload["path"])
        query["completed_at"] = self.network.sim.now

    # -- dispatch ---------------------------------------------------------------------

    def handle_routing(self, msg: Message) -> bool:
        if msg.kind == "DETECT":
            if self.store.get("label", SAFE) == SAFE:
                if "surface" in msg.payload:
                    self._detect_flood_step(msg.payload)
                else:
                    self._detect_walk_step(msg.payload)
        elif msg.kind in ("DETECT_OK", "DETECT_FAIL"):
            self._reply_step(msg.kind, msg.payload)
        elif msg.kind == "ROUTE":
            self._route_step(msg.payload)
        elif msg.kind == "ROUTE_DONE":
            self._reply_step("ROUTE_DONE", msg.payload)
        else:
            return False
        return True
