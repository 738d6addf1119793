"""Distributed labelling: Algorithm 1 (2-D) / Algorithm 4 (n-D) as gossip.

Protocol (canonical direction class; run the mesh through an
:class:`~repro.mesh.orientation.Orientation` for the other classes):

1. At start, every live node detects faulty neighbors locally
   (link-level liveness — the paper's "each node knows only the status
   of its neighbors") and assumes unknown neighbors are safe.
2. A node re-evaluates its own label whenever its knowledge changes:

   * USELESS when every positive-axis neighbor exists and is
     faulty/useless;
   * CANT_REACH when every negative-axis neighbor exists and is
     faulty/can't-reach.

3. On a label change it sends ``LABEL`` to all live neighbors.  The
   fixed point is reached when the network quiesces; each node then
   holds its own label and its neighbors' labels — exactly the local
   knowledge later phases (identification, boundaries, routing) build on.

Message complexity: one ``LABEL`` per label transition per neighbor —
O(unsafe-region size), not mesh size (experiment T3 measures this).
"""

from __future__ import annotations

import numpy as np

from repro.core.labelling import CANT_REACH, FAULTY, SAFE, USELESS
from repro.mesh.coords import Coord
from repro.simkit.message import Message
from repro.simkit.network import MeshNetwork
from repro.simkit.node import NodeProcess


class LabellingNode(NodeProcess):
    """One node of the distributed labelling protocol."""

    def on_start(self) -> None:
        self.store["label"] = SAFE
        # Node-local knowledge: neighbor labels, seeded by local fault
        # detection.  Missing (off-mesh) neighbors stay absent.
        known: dict[Coord, int] = {}
        for n in self.neighbors():
            known[n] = FAULTY if self.network.is_faulty(n) else SAFE
        self.store["known_labels"] = known
        self._reevaluate(announce_if_unchanged=False)

    def on_message(self, msg: Message) -> None:
        if msg.kind != "LABEL":
            return
        known = self.store["known_labels"]
        new_label = int(msg.payload["label"])
        if known.get(msg.src) == new_label:
            return
        known[msg.src] = new_label
        self._reevaluate(announce_if_unchanged=False)

    # -- local rule ------------------------------------------------------------

    def _blocked_toward(self, sign: int, blocking: set[int]) -> bool:
        """All existing neighbors on ``sign`` side carry a blocking label."""
        known = self.store["known_labels"]
        for axis in range(self.network.mesh.ndim):
            n = self.step(axis, sign)
            if n is None:
                # Mesh border: not blocking (DESIGN.md interpretation 1).
                return False
            if known.get(n, SAFE) not in blocking:
                return False
        return True

    # -- incremental re-stabilization hooks (fault churn) -----------------------

    def notice_neighbor_died(self, neighbor: Coord) -> None:
        """Link-level liveness: ``neighbor`` stopped responding.

        Labels only *escalate* under the closure rules, so an injection
        needs no reset at all: updating the local knowledge and
        re-running the rule converges to the new fixed point from the
        old one (warm start; see DESIGN.md).
        """
        known = self.store.setdefault("known_labels", {})
        neighbor = tuple(neighbor)
        if known.get(neighbor) == FAULTY:
            return
        known[neighbor] = FAULTY
        self._reevaluate(announce_if_unchanged=False)

    def reset_labelling(self, reset_set: set[Coord]) -> None:
        """Drop this node's label ahead of a scoped repair re-stabilization.

        ``reset_set`` is the set of nodes being reset together (the
        labelled cells of the event's dirty slabs plus the repaired
        cells): knowledge about *those* neighbors is re-seeded from
        link-level liveness, while knowledge about every other neighbor
        — whose label the dirty-slab argument proves unchanged — is
        kept.  The caller resets every member first and then schedules
        :meth:`announce_labelling`, so announcements only flow once all
        seeds are in place.
        """
        self.store["label"] = SAFE
        known = self.store.setdefault("known_labels", {})
        for n in self.neighbors():
            if n in reset_set or n not in known:
                known[n] = FAULTY if self.network.is_faulty(n) else SAFE

    def announce_labelling(self) -> None:
        """Re-run the local rule and announce even an unchanged label.

        After a reset the label may legitimately *shrink* (repair);
        nodes outside the reset set would otherwise keep stale knowledge
        forever because the protocol only announces changes.
        """
        self._reevaluate(announce_if_unchanged=True)

    def _reevaluate(self, announce_if_unchanged: bool) -> None:
        old = self.store["label"]
        label = old
        # Labels only escalate: SAFE -> CANT_REACH -> USELESS.  A node
        # can satisfy both rules (its +neighbors useless AND its
        # -neighbors can't-reach); the centralized fixed point resolves
        # such ties to USELESS, and the upgrade matters — only USELESS
        # labels feed further useless fills at the +X/+Y/+Z neighbors.
        if label in (SAFE, CANT_REACH) and self._blocked_toward(
            +1, {FAULTY, USELESS}
        ):
            label = USELESS
        elif label == SAFE and self._blocked_toward(-1, {FAULTY, CANT_REACH}):
            label = CANT_REACH
        if label != old or announce_if_unchanged:
            self.store["label"] = label
            for n in self.neighbors():
                if not self.network.is_faulty(n):
                    self.send(n, "LABEL", {"label": label})


def labels_as_grid(net: MeshNetwork) -> np.ndarray:
    """Collect per-node labels into a status grid (faulty from the mask)."""
    out = np.full(net.mesh.shape, FAULTY, dtype=np.int8)
    for coord, label in net.gather("label", default=SAFE).items():
        out[coord] = label
    return out
