"""A finished DES pipeline is freed by reference counting.

A :class:`MeshNetwork` and its nodes reference each other.  A
:class:`DistributedMCCPipeline` clears its network's node table when it
is dropped, and an uncontended send's event holds the network only as
an argument, so once the last reference to a quiescent pipeline goes,
its network and nodes go with it, without a cyclic collection.
"""

import gc
import weakref

import numpy as np

from repro.distributed.pipeline import DistributedMCCPipeline
from repro.mesh.topology import Mesh
from repro.simkit.network import MeshNetwork
from repro.simkit.node import NodeProcess
from tests.conftest import random_mask


def test_dropped_pipeline_is_freed_without_the_cyclic_collector(monkeypatch):
    # The session sanitizer wraps every node's handlers in closures that
    # reference the node, which is a cycle of its own.
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    shape = (6, 6, 6)
    rng = np.random.default_rng(7)
    mask = random_mask(rng, shape, 20)
    pipe = DistributedMCCPipeline(Mesh(shape), mask).build()
    healthy = [tuple(int(v) for v in c) for c in np.argwhere(~mask)]
    source, dest = min(healthy), max(healthy)
    first = pipe.submit(source, dest, strict=False)
    pipe.drain()
    cell = healthy[len(healthy) // 2]
    pipe.apply_event("inject", [cell])
    pipe.apply_event("repair", [cell])

    # While the pipeline lives, its network stays whole and usable.
    gc.collect()
    assert len(pipe.net.nodes) == int(np.prod(shape))
    again = pipe.submit(source, dest, strict=False)
    pipe.drain()
    assert again.result["status"] == first.result["status"]
    assert again.result["path"] == first.result["path"]

    net = weakref.ref(pipe.net)
    node = weakref.ref(pipe.net.nodes[source])
    gc.disable()
    try:
        del pipe
        assert net() is None
        assert node() is None
    finally:
        gc.enable()


class _Recorder(NodeProcess):
    def on_message(self, msg):
        self.store.setdefault("got", []).append((msg.kind, msg.src))


def test_bare_network_still_delivers():
    mask = np.zeros((3, 3), dtype=bool)
    net = MeshNetwork(Mesh((3, 3)), mask, node_factory=_Recorder)
    net.nodes[(0, 0)].send((0, 1), "PING")
    net.nodes[(1, 1)].send((0, 1), "PONG")
    net.run_to_quiescence()
    assert net.nodes[(0, 1)].store["got"] == [("PING", (0, 0)), ("PONG", (1, 1))]
    assert net.sim.events_processed == 2
    assert net.sim.now == 1.0
