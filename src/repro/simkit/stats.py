"""Protocol statistics: per-kind message counters and scalar gauges."""

from __future__ import annotations

from collections import Counter, defaultdict
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
    """

    def __init__(self) -> None:
        self.messages_sent: Counter[str] = Counter()
        self.gauges: dict[str, float] = defaultdict(float)
        self.query_messages: Counter[Hashable] = Counter()
        #: Peak simultaneous occupancy (in flight + queued) per directed
        #: link, maintained by the contended-link mode of
        #: :class:`~repro.simkit.network.MeshNetwork`.
        self.link_peak_depth: dict[tuple, int] = {}
        #: End-to-end latency of each delivered source-routed frame, in
        #: delivery order (deterministic under the DES).
        self.frame_latencies: list[float] = []
        #: The same latencies keyed by the query session that sent the
        #: frame — ``on_frame`` always accepted a ``query`` id but used
        #: to drop it, so per-query latency attribution was impossible.
        self.frame_latencies_by_query: dict[Hashable, list[float]] = defaultdict(list)

    def on_send(self, kind: str, query: Hashable | None = None) -> None:
        self.messages_sent[kind] += 1
        if query is not None:
            self.query_messages[query] += 1

    def bump(self, name: str, amount: float = 1.0) -> None:
        self.gauges[name] += amount

    def note_link_depth(self, link: tuple, depth: int) -> None:
        """Record instantaneous occupancy of a directed link."""
        if depth > self.link_peak_depth.get(link, 0):
            self.link_peak_depth[link] = depth
        if depth > self.gauges["link_peak_depth"]:
            self.gauges["link_peak_depth"] = depth

    def on_frame(self, latency: float, query: Hashable | None = None) -> None:
        """Record one delivered frame's end-to-end latency."""
        self.frame_latencies.append(latency)
        if query is not None:
            self.frame_latencies_by_query[query].append(latency)
        self.bump("frames[delivered]")

    @property
    def frames_delivered(self) -> int:
        return len(self.frame_latencies)

    @property
    def total_messages(self) -> int:
        return sum(self.messages_sent.values())

    def by_kind(self) -> dict[str, int]:
        return dict(self.messages_sent)

    def summary(self) -> dict[str, float]:
        out: dict[str, float] = {f"msgs[{k}]": v for k, v in self.messages_sent.items()}
        out["msgs[total]"] = self.total_messages
        out.update(self.gauges)
        return out

    def publish(self, registry) -> None:
        """Feed this collector into an :class:`~repro.obs.MetricsRegistry`.

        Message counts become labelled counters, gauges become gauges,
        and frame latencies back a histogram (overall and per query) —
        the bridge from the DES's ad-hoc counter island to the unified
        telemetry sink.
        """
        for kind, n in sorted(self.messages_sent.items()):
            registry.counter("sim_messages", kind=kind).inc(n)
        for query, n in sorted(self.query_messages.items(), key=repr):
            registry.counter("sim_query_messages", query=query).inc(n)
        for name, value in sorted(self.gauges.items()):
            registry.gauge(f"sim_{name}").set(value)
        hist = registry.histogram("sim_frame_latency")
        hist.values.extend(self.frame_latencies)
        for query, lat in sorted(
            self.frame_latencies_by_query.items(), key=repr
        ):
            registry.histogram("sim_frame_latency", query=query).values.extend(lat)
