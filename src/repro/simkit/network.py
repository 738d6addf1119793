"""The mesh network: delivers neighbor messages between node processes.

Faulty nodes are dead: they neither send nor receive (fail-stop model).
A message from a faulty source is dropped at :meth:`MeshNetwork.transmit`
and one to a faulty destination at delivery, each counted in the
stats.  A send that is not a mesh link — off-mesh, diagonal, or to the
sender itself — raises ``ValueError``: protocols step only to the
neighbors :meth:`NodeProcess.step` returns.

Hot-path layout: links are checked against the mesh's shared per-shape
adjacency table (:func:`repro.mesh.topology.adjacency_table`), so a
network keeps no geometry of its own.  Liveness is a plain-set mirror of
the fault mask (a set membership test instead of a numpy fancy-index per
check).  The numpy ``fault_mask`` stays the source of truth for bulk
array consumers; mutate it only through :meth:`inject_fault` /
:meth:`repair`, which validate the cell and keep the mirror in sync.

A send is one step: :meth:`MeshNetwork.transmit` counts it and pushes
one ``(deliver, (network, msg))`` event onto the simulator's queue at
``now + link_delay``, where ``deliver`` is the class's plain
``_deliver`` function.  So an uncontended send allocates the message,
its argument tuple and its event pair, and no closure or bound method,
and the network holds no bound method of itself.  A contended send
schedules the bound ``_deliver`` with the message and its link.
No delivery is logged: the per-kind counts are taken at the send, and
a test that needs the delivery order wraps the nodes' ``on_message``.

A network and its nodes reference each other (``nodes`` and each
node's ``network``), so a bare network is freed by the cyclic garbage
collector; :class:`~repro.distributed.pipeline.DistributedMCCPipeline`
clears its network's node table when it is dropped, which breaks that
cycle and frees a finished pipeline by reference counting.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.mesh.coords import Coord
from repro.mesh.topology import Mesh
from repro.simkit.message import Message
from repro.simkit.node import NodeProcess
from repro.simkit.simulator import Simulator
from repro.simkit.stats import StatsCollector


#: Message kind for source-routed data frames, handled by the network
#: itself (``_frame_hop``) so plain :class:`NodeProcess` meshes carry
#: traffic without a protocol subclass.
FRAME_KIND = "FRAME"


class _LinkState:
    """Occupancy bookkeeping for one directed link under contention."""

    __slots__ = ("free", "depth")

    def __init__(self, capacity: int):
        #: Next-free time of each of the link's ``capacity`` servers.
        self.free = [0.0] * capacity
        #: Messages currently in flight or queued on this link.
        self.depth = 0


class MeshNetwork:
    """Node processes over a mesh with unit-latency neighbor links.

    With the default ``link_capacity=None`` links have infinite
    bandwidth: every ``transmit`` delivers exactly ``link_delay`` later,
    byte-identical to the pre-contention network.  With
    ``link_capacity=k`` each *directed* neighbor link is a serialized
    resource carrying at most ``k`` messages per ``link_delay``; later
    ``transmit`` calls queue FIFO behind earlier ones (service order is
    transmit order, deterministic — no RNG anywhere).  The peak link
    depth (the ``link_peak_depth`` gauge) and end-to-end frame latency
    land in :class:`StatsCollector`.
    """

    def __init__(
        self,
        mesh: Mesh,
        fault_mask: np.ndarray,
        node_factory: Callable[["MeshNetwork", Coord], NodeProcess] | None = None,
        link_delay: float = 1.0,
        link_capacity: int | None = None,
    ):
        if fault_mask.shape != mesh.shape:
            raise ValueError(
                f"fault mask {fault_mask.shape} does not match mesh {mesh.shape}"
            )
        if link_capacity is not None and link_capacity < 1:
            raise ValueError(f"link_capacity must be >= 1 or None, got {link_capacity}")
        # The rule ``Simulator.schedule`` applies to every delay, checked
        # here so a bad delay fails at construction, not at the first send.
        if not 0.0 <= link_delay < math.inf:
            raise ValueError(
                f"link_delay must be finite and non-negative, got {link_delay}"
            )
        self.mesh = mesh
        self.fault_mask = np.asarray(fault_mask, dtype=bool).copy()
        self.sim = Simulator()
        self.stats = StatsCollector()
        self.link_delay = link_delay
        self.link_capacity = link_capacity
        self._links: dict[tuple[Coord, Coord], _LinkState] = {}
        #: Plain-set mirror of ``fault_mask`` for O(1) liveness checks.
        self._faulty: set[Coord] = {
            tuple(int(c) for c in cell) for cell in np.argwhere(self.fault_mask)
        }
        #: The class's ``_deliver`` function: every uncontended send's
        #: event passes it ``(self, msg)``, since a bound method kept
        #: here would make the network reference itself.
        self._deliver_fn = type(self)._deliver
        factory = node_factory or NodeProcess
        self.nodes: dict[Coord, NodeProcess] = {
            coord: factory(self, coord) for coord in mesh.nodes()
        }

    def set_link_capacity(self, capacity: int | None) -> None:
        """Switch contention mode while the network is idle.

        Used to build protocol state uncontended and then enable finite
        links for a load phase; existing per-link occupancy is reset, so
        the queue must be quiescent.
        """
        if not self.sim.idle:
            raise RuntimeError("cannot change link capacity with events in flight")
        if capacity is not None and capacity < 1:
            raise ValueError(f"link_capacity must be >= 1 or None, got {capacity}")
        self.link_capacity = capacity
        self._links.clear()

    # -- fault handling ------------------------------------------------------

    def is_faulty(self, coord: Coord) -> bool:
        return tuple(coord) in self._faulty

    def inject_fault(self, coord: Coord) -> None:
        """Kill a node mid-simulation (dynamic-fault experiments)."""
        coord = self.mesh.require(coord, "faulty node")
        self.fault_mask[coord] = True
        self._faulty.add(coord)

    def repair(self, coord: Coord) -> None:
        """Bring a dead node back mid-simulation (churn experiments).

        The node process object is reused but its protocol state is the
        caller's responsibility — a repaired node is a *fresh* node, so
        re-stabilization (see ``DistributedMCCPipeline.apply_event``)
        clears its store and reruns its start hooks.
        """
        coord = self.mesh.require(coord, "repaired node")
        self.fault_mask[coord] = False
        self._faulty.discard(coord)

    # -- message plumbing ------------------------------------------------------

    def transmit(self, msg: Message) -> None:
        """Count a message and queue its delivery after one link delay.

        Every send passes here, and reads ``sim.queue`` when it is made.
        """
        if msg.dst is None or msg.dst not in self.mesh.adjacency.get(msg.src, ()):
            raise ValueError(
                f"{msg.kind}: {msg.src} -> {msg.dst} is not a mesh link"
            )
        if msg.src in self._faulty:
            # A node that died mid-action sends nothing (fail-stop).
            self.stats.bump("dropped[src-faulty]")
            return
        self.stats.on_send(msg.kind, msg.payload.get("query"))
        if self.link_capacity is None:
            # ``__init__`` checked ``link_delay`` by ``schedule``'s rule,
            # so the event goes straight onto the queue.
            sim = self.sim
            sim.queue.push(sim.now + self.link_delay, (self._deliver_fn, (self, msg)))
            return
        # Contended path: reserve the earliest-free server of the
        # directed link at transmit time (FIFO — arrival order is
        # service order; ties break to the lowest server index).
        link = (msg.src, msg.dst)
        state = self._links.get(link)
        if state is None:
            state = self._links[link] = _LinkState(self.link_capacity)
        now = self.sim.now
        free = state.free
        if len(free) == 1:
            slot = 0
        else:
            slot = min(range(len(free)), key=free.__getitem__)
        start = free[slot] if free[slot] > now else now
        free[slot] = start + self.link_delay
        wait = start - now
        if wait > 0:
            self.stats.bump("link_wait_total", wait)
        state.depth += 1
        self.stats.note_link_depth(state.depth)
        self.sim.schedule(wait + self.link_delay, self._deliver, msg, link)

    def _deliver(self, msg: Message, link: tuple[Coord, Coord] | None = None) -> None:
        if link is not None:
            self._links[link].depth -= 1
        if msg.dst in self._faulty:
            self.stats.bump("dropped[dst-faulty]")
            if msg.kind == FRAME_KIND:
                self.stats.bump("frames[lost]")
            return
        if msg.expired():
            self.stats.bump("dropped[ttl]")
            return
        if msg.kind == FRAME_KIND:
            self._frame_hop(msg)
            return
        self.nodes[msg.dst].on_message(msg)

    # -- source-routed data frames ------------------------------------------------

    def inject_frame(self, path) -> None:
        """Inject one data frame that follows ``path`` hop by hop.

        ``path`` is a sequence of coordinates starting at the source;
        consecutive entries must be mesh neighbors.  Delivery at the
        final coordinate records ``now - t0`` into
        :attr:`StatsCollector.frame_latencies`; a hop into a faulty node
        drops the frame (counted under ``frames[lost]``).
        """
        path = [tuple(c) for c in path]
        if not path:
            raise ValueError("frame path must be non-empty")
        t0 = self.sim.now
        if self.is_faulty(path[0]):
            self.stats.bump("dropped[src-faulty]")
            self.stats.bump("frames[lost]")
            return
        if len(path) == 1:
            self.stats.on_frame(0.0)
            return
        # The hop index is derived from ``hops`` (0 at injection, +1 per
        # forward), so no hop writes the payload: each forward copies
        # this two-key dict and shares the ``path`` list.
        msg = Message(
            kind=FRAME_KIND,
            src=path[0],
            dst=path[1],
            payload={"path": path, "t0": t0},
        )
        self.transmit(msg)

    def _frame_hop(self, msg: Message) -> None:
        payload = msg.payload
        path = payload["path"]
        # Position in the path: the injected message arrives at path[1]
        # with hops == 0, and forwarded() bumps hops once per hop.
        i = msg.hops + 1
        if i == len(path) - 1:
            self.stats.on_frame(self.sim.now - payload["t0"])
            return
        self.transmit(msg.forwarded(path[i + 1]))

    # -- execution --------------------------------------------------------------

    def start(self) -> None:
        """Invoke every live node's ``on_start`` at t=0."""
        for coord, node in self.nodes.items():
            if coord not in self._faulty:
                self.sim.schedule(0.0, node.on_start)

    def run(self, **kwargs) -> int:
        return self.sim.run(**kwargs)

    def run_to_quiescence(self, max_events: int = 10_000_000) -> int:
        return self.sim.run_to_quiescence(max_events=max_events)

    # -- bulk state access (for validation against centralized results) ----------

    def gather(self, key: str, default=None) -> dict[Coord, object]:
        """Collect one store entry from every live node (test helper).

        This is *observer* access for validation — protocols themselves
        never call it.
        """
        return {
            coord: node.store.get(key, default)
            for coord, node in self.nodes.items()
            if coord not in self._faulty
        }
