"""Optional event tracing for protocol debugging and the demo examples.

:class:`TraceLog` is a **ring buffer**: once ``limit`` events have been
recorded, each new event evicts the *oldest* one and bumps ``dropped``.
(The original behaviour — keep the first N and silently ignore the
rest — meant a long run's trace showed only its warm-up; the tail is
where protocol bugs live.)

When the :mod:`repro.obs` span tracer is installed, every
:meth:`TraceLog.record` also emits an ``obs`` instant (category
``des``) stamped with the event's virtual time, so message deliveries
land on the same Perfetto timeline as the surrounding spans.  With
tracing off this is one module-global read — the log itself never pays
for telemetry it is not using.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro import obs


@dataclass(frozen=True)
class TraceEvent:
    time: float
    kind: str
    src: tuple
    dst: tuple
    note: str = ""


class TraceLog:
    """Bounded in-memory trace of message deliveries (keeps the newest)."""

    def __init__(self, limit: int = 100_000):
        self.limit = limit
        self._events: deque[TraceEvent] = deque(maxlen=limit)
        #: Events evicted from the ring (recorded, then aged out).
        self.dropped = 0

    @property
    def events(self) -> list[TraceEvent]:
        """The retained events, oldest first."""
        return list(self._events)

    def record(self, time: float, kind: str, src, dst, note: str = "") -> None:
        if len(self._events) == self.limit:
            self.dropped += 1
        self._events.append(TraceEvent(time, kind, tuple(src), tuple(dst), note))
        mark = obs.instant(kind, cat="des", src=tuple(src), dst=tuple(dst))
        if mark is not None:
            mark.vt0 = mark.vt1 = float(time)
            if note:
                mark.attrs["note"] = note

    def render(self, max_lines: int = 50) -> str:
        events = self.events
        lines = [
            f"t={e.time:8.2f}  {e.kind:<12} {e.src} -> {e.dst}  {e.note}"
            for e in events[:max_lines]
        ]
        if len(events) > max_lines:
            lines.append(f"... {len(events) - max_lines} more events")
        if self.dropped:
            lines.append(f"... {self.dropped} older events evicted")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self._events)
