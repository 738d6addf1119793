"""Protocol payloads: exact replay, the immutability contract, IDENT's TTL.

The protocol handlers pass payload values by reference from hop to hop
(DESIGN.md "DES core").  These tests pin that doing so changes nothing
observable and that it stays safe:

* **Exact replay** — one build → batch → inject → repair lifecycle per
  mesh reproduces a golden hash of every delivery ``(time, kind, src,
  dst)``, every session record and the per-kind message counts.  A
  change in event order, message count or routing outcome moves it.
* **Payload contract** — every value a handler puts into a payload is
  immutable: a scalar, a tuple or frozenset of immutable values, or a
  read-only mapping.  A value shared across hops can then never be
  rewritten by a later hop.
* **IDENT TTL** — the one protocol TTL that can fire: an ``IDENT``
  forwarded past its TTL is dropped and counted under ``dropped[ttl]``.
"""

import hashlib
from types import MappingProxyType

import numpy as np
import pytest

from repro.distributed.pipeline import DistributedMCCPipeline, MCCProtocolNode
from repro.mesh.regions import mask_of_cells
from repro.mesh.topology import Mesh, Mesh2D
from tests.conftest import random_mask

#: (shape, fault count, seed, replay hash) per lifecycle.  The hashes
#: were recorded while every hop still re-encoded its coordinates as
#: lists, so they also pin that sharing payload values moved nothing.
LIFECYCLES = (
    ((6, 6, 6), 14, 601, "57e7ce9243ca43e5f0644badcd6e8215"),
    ((8, 8, 8), 40, 802, "afa6dc5482243ecf70c97929223f37cc"),
    ((9, 9), 12, 903, "64b0852931640b928f95c788ba2b7d28"),
)
IDS = ["x".join(map(str, row[0])) for row in LIFECYCLES]
QUERIES = 25


def _canonical_pairs(rng, mask, count):
    """``count`` canonical (source <= dest) pairs of distinct cells,
    drawn from the healthy cells; endpoints of the min/max corners may
    be faulty or unsafe (``strict=False`` answers those at once)."""
    cells = np.argwhere(~mask)
    pairs = []
    while len(pairs) < count:
        i, j = rng.integers(0, len(cells), size=2)
        s = tuple(int(v) for v in np.minimum(cells[i], cells[j]))
        d = tuple(int(v) for v in np.maximum(cells[i], cells[j]))
        if s != d:
            pairs.append((s, d))
    return pairs


def _lifecycle(shape, faults, seed, on_transmit=None):
    """Build, drain a batch, inject one healthy cell, then repair it.

    Returns the traced pipeline and the batch's session records.
    ``on_transmit`` sees every message the network accepts.
    """
    rng = np.random.default_rng(seed)
    mask = random_mask(rng, shape, faults)
    pipe = DistributedMCCPipeline(Mesh(shape), mask, trace=True)
    if on_transmit is not None:
        transmit = pipe.net.transmit

        def watched(msg):
            on_transmit(msg)
            transmit(msg)

        pipe.net.transmit = watched
    pipe.build()
    for s, d in _canonical_pairs(rng, mask, QUERIES):
        pipe.submit(s, d, strict=False)
    records = pipe.drain()
    healthy = np.argwhere(~pipe.fault_mask)
    cell = tuple(int(v) for v in healthy[rng.integers(0, len(healthy))])
    pipe.apply_event("inject", [cell])
    pipe.apply_event("repair", [cell])
    return pipe, records


def _replay_hash(pipe, records) -> str:
    deliveries = [(e.time, e.kind, e.src, e.dst) for e in pipe.net.trace.events]
    sessions = [(r["status"], r["path"], r["msgs"]) for r in records]
    counts = sorted(pipe.message_counts().items())
    text = repr((deliveries, sessions, counts))
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


@pytest.mark.parametrize("shape, faults, seed, golden", LIFECYCLES, ids=IDS)
def test_lifecycle_replays_exactly(shape, faults, seed, golden):
    pipe, records = _lifecycle(shape, faults, seed)
    assert pipe.net.trace.dropped == 0
    assert len(pipe.net.trace) > 0
    assert _replay_hash(pipe, records) == golden


def _immutable(value) -> bool:
    if value is None or isinstance(value, (bool, int, float, str)):
        return True
    if isinstance(value, (tuple, frozenset)):
        return all(_immutable(v) for v in value)
    if isinstance(value, MappingProxyType):
        return all(_immutable(k) and _immutable(v) for k, v in value.items())
    return False


def test_immutable_values_helper():
    assert _immutable(((1, 2), frozenset({(0, 1)}), None, "x", 1.5, True))
    assert _immutable(MappingProxyType({1: 2}))
    assert not _immutable([1, 2])
    assert not _immutable(((1, 2), [3]))
    assert not _immutable({1: 2})
    assert not _immutable(frozenset({(1, 2)}) | {(3, np.int64(4))})


@pytest.mark.parametrize(
    "shape, faults, seed", [row[:3] for row in LIFECYCLES], ids=IDS
)
def test_protocol_payload_values_are_immutable(shape, faults, seed):
    kinds = set()
    offenders = []

    def check(msg):
        kinds.add(msg.kind)
        for key, value in msg.payload.items():
            if not _immutable(value):
                offenders.append((msg.kind, key, type(value).__name__))

    _lifecycle(shape, faults, seed, on_transmit=check)
    assert not offenders, sorted(set(offenders))[:10]
    # The lifecycle exercises every payload-carrying protocol kind.
    assert {"LABEL", "EDGE", "IDENT", "SHAPE", "WALL", "DETECT", "ROUTE"} <= kinds


class TestIdentTTL:
    """IDENT is forwarded with ``hops + 1``, so its TTL can expire."""

    MASK = mask_of_cells([(3, 3), (3, 4), (4, 3), (4, 4)], (9, 9))

    def test_default_ttl_lets_the_ring_walk_finish(self):
        pipe = DistributedMCCPipeline(Mesh2D(9), self.MASK).build()
        assert pipe.net.stats.gauges.get("dropped[ttl]", 0) == 0
        assert pipe.identified_sections()

    def test_expired_ident_is_dropped_and_counted(self, monkeypatch):
        # The 2x2 block's ring is 12 cells: two walkers that may each
        # take only 3 hops never meet, so the section never completes.
        monkeypatch.setattr(MCCProtocolNode, "_ttl", lambda self: 2)
        pipe = DistributedMCCPipeline(Mesh2D(9), self.MASK).build()
        assert pipe.net.stats.gauges["dropped[ttl]"] == 2
        assert not pipe.identified_sections()
        assert pipe.message_counts().get("SHAPE", 0) == 0
