"""Protocol statistics: per-kind message counters and scalar gauges."""

from __future__ import annotations

from collections import defaultdict
from typing import Hashable


class StatsCollector:
    """Counts messages per message kind and arbitrary named scalars.

    ``query_messages`` attributes sends to the query session that caused
    them (messages whose payload carries a ``"query"`` id) — with many
    routing sessions interleaved in one simulator run, before/after
    deltas of ``total_messages`` can no longer attribute per-query cost,
    but the payload tag can, and for a serial run the two accountings
    agree exactly (every message sent during a blocking query carries
    that query's id).

    Both send counters are plain dicts holding only keys that were
    counted: every send bumps one or two of them, and a plain dict's
    subscripts run on CPython's fast path, where a ``Counter``'s, like
    any dict subclass's, do not.  Read a kind or query that may be
    missing with ``.get(key, 0)``.
    """

    def __init__(self) -> None:
        self.messages_sent: dict[str, int] = {}
        self.gauges: dict[str, float] = defaultdict(float)
        self.query_messages: dict[Hashable, int] = {}
        #: End-to-end latency of each delivered source-routed frame, in
        #: delivery order (deterministic under the DES).
        self.frame_latencies: list[float] = []

    def on_send(self, kind: str, query: Hashable | None = None) -> None:
        sent = self.messages_sent
        sent[kind] = sent.get(kind, 0) + 1
        if query is not None:
            queries = self.query_messages
            queries[query] = queries.get(query, 0) + 1

    def bump(self, name: str, amount: float = 1.0) -> None:
        self.gauges[name] += amount

    def note_link_depth(self, depth: int) -> None:
        """Raise the ``link_peak_depth`` gauge: the peak simultaneous
        occupancy (in flight + queued) of any directed link, kept by the
        contended-link mode of :class:`~repro.simkit.network.MeshNetwork`."""
        if depth > self.gauges["link_peak_depth"]:
            self.gauges["link_peak_depth"] = depth

    def on_frame(self, latency: float) -> None:
        """Record one delivered frame's end-to-end latency."""
        self.frame_latencies.append(latency)
        self.bump("frames[delivered]")

    @property
    def frames_delivered(self) -> int:
        return len(self.frame_latencies)

    @property
    def total_messages(self) -> int:
        return sum(self.messages_sent.values())

    def by_kind(self) -> dict[str, int]:
        return dict(self.messages_sent)
