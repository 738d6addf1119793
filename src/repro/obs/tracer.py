"""Structured span tracer: nested, attributed, off-by-default.

One :class:`Tracer` collects :class:`Span` records — named, nested
(depth-tracked), attributed intervals — from the instrumented seams of
the stack (``route_batch``, the flood kernels, fault events, DES
quiescence runs, serve ticks).  Spans carry **two timelines**:

* *wall time* (``t0``/``t1``, read through the sanctioned
  :mod:`repro.obs.clockio` shim) — what Perfetto renders, and what
  overhead accounting uses.  Wall stamps are observability only: they
  are excluded from every determinism comparison and never enter a
  ``ResultTable``.
* *virtual time* (``vt0``/``vt1``, optional) — the DES/serve clock at
  the span's bounds, set explicitly by seams that have one
  (:meth:`SpanHandle.set_vt`).  Together with names, attributes, and
  nesting order these form the **virtual-time span stream**, which is
  byte-identical across replays and shard/worker layouts
  (``tests/test_obs.py`` pins it).

Discipline — the design constraint that shapes the API:

* **Off by default, near-zero overhead.**  No tracer installed means
  :func:`span`/:func:`instant` return a shared no-op handle: one module
  global read, no allocation beyond the kwargs dict.  The CI
  ``obs-smoke`` job (``benchmarks/bench_obs_overhead.py``) gates the
  disabled-mode cost at <=5% of the T4 smoke runtime.
* **Deterministic stream.**  Spans are recorded in *entry* order with a
  per-tracer sequence number; worker processes buffer their own spans
  and the sweep runner merges them in global task order, so the merged
  stream is layout-independent.
* **No behavioral coupling.**  Tracing only observes: no RNG, no
  mutation of traced objects, and results (tables, checkpoints) are
  byte-identical traced vs untraced (CI-gated).

Usage::

    from repro import obs

    with obs.span("route_batch", cat="routing", n=len(pairs)) as sp:
        ...
        sp.set(groups=n_groups)          # exit-time attributes

    tracer = obs.Tracer()
    with obs.tracing(tracer):            # install for a scope
        run_workload()
    obs.export.write_perfetto("out.json", tracer.spans)
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Mapping

from repro.obs.clockio import wall_now

#: Span kinds: a duration interval or a zero-width instant marker.
SPAN = "span"
INSTANT = "instant"


class Span:
    """One recorded interval (or instant) with attributes.

    Mutable by design: it is appended to the tracer at *entry* (so the
    stream is in entry order) and finalized at exit.  ``t0``/``t1`` are
    wall seconds from :func:`repro.obs.clockio.wall_now`;
    ``vt0``/``vt1`` are virtual-clock stamps or ``None`` when the seam
    has no virtual timeline.
    """

    __slots__ = (
        "name", "cat", "track", "seq", "depth", "kind",
        "t0", "t1", "vt0", "vt1", "attrs",
    )

    def __init__(
        self,
        name: str,
        cat: str,
        track: str,
        seq: int,
        depth: int,
        kind: str,
        t0: float,
        attrs: dict[str, Any],
    ):
        self.name = name
        self.cat = cat
        self.track = track
        self.seq = seq
        self.depth = depth
        self.kind = kind
        self.t0 = t0
        self.t1: float | None = None
        self.vt0: float | None = None
        self.vt1: float | None = None
        self.attrs = attrs

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON form (what worker processes ship to the merger)."""
        return {
            "name": self.name,
            "cat": self.cat,
            "track": self.track,
            "seq": self.seq,
            "depth": self.depth,
            "kind": self.kind,
            "t0": self.t0,
            "t1": self.t1,
            "vt0": self.vt0,
            "vt1": self.vt1,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dur = None if self.t1 is None else self.t1 - self.t0
        return f"Span({self.name!r}, seq={self.seq}, depth={self.depth}, dur={dur})"


class SpanHandle:
    """Context manager for one live span (what ``obs.span`` returns)."""

    __slots__ = ("_tracer", "_name", "_cat", "_attrs", "_span")

    def __init__(self, tracer: "Tracer", name: str, cat: str, attrs: dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._attrs = attrs
        self._span: Span | None = None

    def __enter__(self) -> "SpanHandle":
        self._span = self._tracer._open(self._name, self._cat, self._attrs)
        return self

    def __exit__(self, *exc_info) -> None:
        assert self._span is not None
        self._tracer._close(self._span)

    def set(self, **attrs: Any) -> None:
        """Merge exit-time attributes into the span."""
        if self._span is not None:
            self._span.attrs.update(attrs)

    def set_vt(self, start: float | None = None, end: float | None = None) -> None:
        """Stamp the span's virtual-time bounds (DES / serve clocks)."""
        if self._span is not None:
            if start is not None:
                self._span.vt0 = float(start)
            if end is not None:
                self._span.vt1 = float(end)


class _NullHandle:
    """Shared no-op handle: the disabled-tracing fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def set(self, **attrs: Any) -> None:
        return None

    def set_vt(self, start: float | None = None, end: float | None = None) -> None:
        return None


NULL_HANDLE = _NullHandle()


class Tracer:
    """Collects spans for one scope (process, worker task, or service).

    ``track`` names the Perfetto thread-track the spans render on —
    sharded sweep workers use one track per fault pattern so a merged
    trace shows patterns side by side.
    """

    def __init__(self, track: str = "main"):
        self.track = track
        self.spans: list[Span] = []
        self._seq = 0
        self._depth = 0

    # -- recording ---------------------------------------------------------

    def span(self, name: str, cat: str = "", **attrs: Any) -> SpanHandle:
        """A context manager recording one nested interval."""
        return SpanHandle(self, name, cat, attrs)

    def instant(self, name: str, cat: str = "", **attrs: Any) -> Span:
        """Record a zero-width marker at the current wall time."""
        sp = Span(
            name, cat, self.track, self._seq, self._depth, INSTANT,
            wall_now(), attrs,
        )
        sp.t1 = sp.t0
        self._seq += 1
        self.spans.append(sp)
        return sp

    def _open(self, name: str, cat: str, attrs: dict[str, Any]) -> Span:
        sp = Span(
            name, cat, self.track, self._seq, self._depth, SPAN,
            wall_now(), attrs,
        )
        self._seq += 1
        self._depth += 1
        self.spans.append(sp)
        return sp

    def _close(self, span: Span) -> None:
        span.t1 = wall_now()
        self._depth -= 1

    # -- merging (sharded workers) ----------------------------------------

    def absorb(
        self, span_dicts: list[Mapping[str, Any]], track: str | None = None
    ) -> None:
        """Append spans shipped from another tracer (dict form).

        Sequence numbers are reassigned in arrival order, so absorbing
        worker buffers in global task order yields one deterministic
        stream regardless of which process produced which buffer.
        """
        for d in span_dicts:
            sp = Span(
                d["name"], d["cat"], track if track is not None else d["track"],
                self._seq, d["depth"], d["kind"], d["t0"], dict(d["attrs"]),
            )
            sp.t1 = d["t1"]
            sp.vt0 = d["vt0"]
            sp.vt1 = d["vt1"]
            self._seq += 1
            self.spans.append(sp)

    def __len__(self) -> int:
        return len(self.spans)


# -- module-level current tracer (the instrumentation seams' API) ----------

#: The installed tracer, or ``None`` (tracing disabled — the default).
_TRACER: Tracer | None = None


def enabled() -> bool:
    """True when a tracer is installed."""
    return _TRACER is not None


@contextmanager
def tracing(tracer: Tracer | None = None) -> Iterator[Tracer]:
    """Install a tracer for a scope, restoring the previous one after.

    >>> with tracing() as tracer:
    ...     run_workload()
    >>> len(tracer.spans)  # doctest: +SKIP
    """
    global _TRACER
    if tracer is None:
        tracer = Tracer()
    previous = _TRACER
    _TRACER = tracer
    try:
        yield tracer
    finally:
        _TRACER = previous


def span(name: str, cat: str = "", **attrs: Any):
    """Record a span on the current tracer; no-op when tracing is off.

    The disabled path returns a shared null handle — this is the hot
    fast path every instrumented seam pays unconditionally, kept to a
    global read plus the call itself.
    """
    tracer = _TRACER
    if tracer is None:
        return NULL_HANDLE
    return tracer.span(name, cat, **attrs)


def instant(name: str, cat: str = "", **attrs: Any) -> Span | None:
    """Record an instant marker on the current tracer (None when off)."""
    tracer = _TRACER
    if tracer is None:
        return None
    return tracer.instant(name, cat, **attrs)
