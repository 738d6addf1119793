"""Node process base class for the message-passing protocols."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.mesh.coords import Coord
from repro.simkit.message import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simkit.network import MeshNetwork


class NodeProcess:
    """One mesh node's protocol state machine.

    Subclasses override :meth:`on_start` and :meth:`on_message`.  The
    only I/O primitives are neighbor sends and local timers — the
    paper's system model enforced by construction.  ``store`` is the
    node-local key/value memory where protocols deposit labels, shapes,
    and boundary records; routing decisions may read only the local
    store and neighbor statuses.
    """

    def __init__(self, network: "MeshNetwork", coord: Coord):
        self.network = network
        self.coord = coord
        self.store: dict[str, Any] = {}

    # -- framework callbacks ------------------------------------------------

    def on_start(self) -> None:
        """Called once at simulation start (t=0)."""

    def on_message(self, msg: Message) -> None:
        """Called on each delivered message."""

    def on_timer(self, tag: str) -> None:
        """Called when a timer set via :meth:`set_timer` fires."""

    # -- I/O primitives ------------------------------------------------------

    @property
    def alive(self) -> bool:
        return not self.network.is_faulty(self.coord)

    def neighbors(self) -> list[Coord]:
        """All in-mesh neighbor coordinates (alive or not), in row order."""
        return self.network.mesh.neighbors(self.coord)

    def step(self, axis: int, sign: int) -> Coord | None:
        """The neighbor one hop along ``axis`` (``sign`` ±1), None at a face.

        Its liveness is :meth:`MeshNetwork.is_faulty` — node-local
        information, as the paper assumes "each node knows only the
        status of its neighbors".
        """
        return self.network.mesh.step(self.coord, axis, sign)

    def send(self, dst: Coord, kind: str, payload: dict | None = None, ttl: int | None = None) -> None:
        """Send one message to a neighbor (asserts mesh adjacency)."""
        self.network.transmit(Message(kind, self.coord, dst, payload, 0, ttl))

    def set_timer(self, delay: float, tag: str) -> None:
        """Fire :meth:`on_timer` with ``tag`` after ``delay``.

        A timer cannot be cancelled.  One that outlives its purpose
        checks the node's state when it fires (the routing protocol's
        ``detect-timeout:<id>`` does), and a timer of a dead node is
        dropped then.
        """
        self.network.sim.schedule(delay, self._fire_timer, tag)

    def _fire_timer(self, tag: str) -> None:
        if self.alive:
            self.on_timer(tag)
