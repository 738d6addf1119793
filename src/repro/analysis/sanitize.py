"""Runtime sanitizers: catch at run time what the AST linter cannot see.

Three sanitizers, all enabled together by ``REPRO_SANITIZE=1`` (the
tier-1 suite's conftest installs the cache barrier; the online service
and the distributed pipeline self-instrument at construction) or
installed explicitly by tests:

* **Frozen-cache write barrier** — the content-addressed labelling
  cache (:mod:`repro.core.model_cache`) freezes its arrays with
  ``writeable=False``, but a consumer holding a *re-writeable alias*
  (``setflags(write=True)``, a view created before the freeze, or a
  buffer shared through slicing) can still mutate entries undetected.
  The barrier digests every cache value on insert and re-verifies the
  digest on every hit, so any mutation — through any alias — fails the
  very next lookup with :class:`CacheMutationError`.  The routing
  *service* cache is deliberately exempt: a cached
  ``RoutingService`` legitimately mutates its internal LRU reach
  caches on every query.

* **DES session-isolation sanitizer** — PR 5's concurrent query
  sessions rely on every piece of walker state being namespaced by
  query id.  :func:`sanitize_network` shadow-tracks each node's
  ``store["queries"]`` accesses, attributes every handler invocation
  to the session tag carried in the message payload (or a
  ``...:<query-id>`` timer tag), and raises :class:`SessionBleedError`
  when a handler touches another session's state.  It also groups
  accesses by simulation timestamp: two *different* events at the same
  virtual time touching the same (node, query) state with at least one
  write means the outcome rides on heap tie-breaking — flagged as
  :class:`TieBreakHazardError` before it can become an
  irreproducible run.

* **Epoch sanitizer** — the online service guarantees a queued query
  is answered at the epoch it was submitted under (fault events flush
  the queue *before* mutating the model).  :func:`sanitize_online_service`
  records the submission epoch per ticket and verifies every flushed
  :class:`RouteResult` against it, so scoring a result against labels
  newer than its submission epoch raises :class:`EpochViolationError`
  instead of silently contaminating a table.

This module is dependency-light on purpose (numpy + stdlib only): the
core modules it guards import it at construction time, so it must not
import them back at module level.
"""

from __future__ import annotations

import hashlib
import os
from typing import Any, Callable

import numpy as np

from repro.util.caching import LRUCache

ENV_FLAG = "REPRO_SANITIZE"


def enabled() -> bool:
    """True when ``REPRO_SANITIZE`` is set to a non-empty, non-"0" value."""
    return os.environ.get(ENV_FLAG, "") not in ("", "0")


class SanitizerError(AssertionError):
    """Base class: a checked runtime invariant was violated."""


class CacheMutationError(SanitizerError):
    """A content-addressed cache entry changed after insertion."""


class SessionBleedError(SanitizerError):
    """A DES handler touched another query session's namespaced state."""


class TieBreakHazardError(SanitizerError):
    """Same-timestamp events conflict on shared state (order-dependent)."""


class EpochViolationError(SanitizerError):
    """A RouteResult was answered at a newer epoch than its submission."""


# -- frozen-cache write barrier ---------------------------------------------


def _iter_arrays(value: Any, _seen: set[int] | None = None, _depth: int = 0):
    """Yield every ndarray reachable from ``value`` (bounded recursion)."""
    if _seen is None:
        _seen = set()
    if _depth > 6 or id(value) in _seen:
        return
    _seen.add(id(value))
    if isinstance(value, np.ndarray):
        yield value
        return
    if isinstance(value, (list, tuple)):
        for item in value:
            yield from _iter_arrays(item, _seen, _depth + 1)
        return
    if isinstance(value, dict):
        for item in value.values():
            yield from _iter_arrays(item, _seen, _depth + 1)
        return
    attrs = getattr(value, "__dict__", None)
    if attrs is not None:
        for item in attrs.values():
            yield from _iter_arrays(item, _seen, _depth + 1)


def value_digest(value: Any) -> bytes:
    """Content digest over every array reachable from ``value``.

    Dtype, shape, and raw bytes all participate, so an in-place write,
    a dtype reinterpretation, and a reshape are all detected.
    """
    h = hashlib.blake2b(digest_size=16)
    for arr in _iter_arrays(value):
        h.update(str(arr.dtype).encode("ascii"))
        h.update(repr(arr.shape).encode("ascii"))
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.digest()


class DigestGuardedCache(LRUCache):
    """An LRUCache that verifies entry content on every hit.

    ``label`` names the guarded cache in error messages.
    """

    def __init__(self, maxsize: int | None = None, label: str = "cache"):
        super().__init__(maxsize)
        self.label = label
        self._digests: dict[Any, bytes] = {}
        self.verified_hits = 0

    def put(self, key, value):
        self._digests[key] = value_digest(value)
        out = super().put(key, value)
        # Capacity evictions happen in super().put; drop their digests.
        if len(self._digests) > len(self._data):
            self._digests = {k: self._digests[k] for k in self._data}
        return out

    def get(self, key):
        value = super().get(key)
        if value is not None:
            expected = self._digests.get(key)
            if expected is not None and value_digest(value) != expected:
                raise CacheMutationError(
                    f"{self.label}[{key!r}]: cached entry mutated since "
                    "insertion — some consumer wrote through a "
                    "re-writeable alias of a frozen cache array"
                )
            self.verified_hits += 1
        return value

    def pop(self, key):
        self._digests.pop(key, None)
        return super().pop(key)

    def clear(self) -> None:
        self._digests.clear()
        super().clear()


class _BarrierHandle:
    """Restores the plain labelling cache on uninstall."""

    def __init__(self, model_cache_module, original):
        self._module = model_cache_module
        self._original = original
        self.cache: DigestGuardedCache = model_cache_module.LABELLING_CACHE

    def uninstall(self) -> None:
        self._module.LABELLING_CACHE = self._original


def install_cache_barrier() -> _BarrierHandle:
    """Swap the labelling cache for a digest-verified one (starts empty).

    It is the only process-shared cache: routing services are built
    per pattern, so their reach caches (mutable by design) stay private.
    """
    from repro.core import model_cache  # deferred: cycle-free by contract

    original = model_cache.LABELLING_CACHE
    model_cache.LABELLING_CACHE = DigestGuardedCache(
        original.maxsize, label="LABELLING_CACHE"
    )
    return _BarrierHandle(model_cache, original)


# -- DES session-isolation sanitizer -----------------------------------------


class SessionShadow:
    """Shadow bookkeeping for one sanitized simulation.

    The simulator reports event boundaries via the observer protocol
    (:attr:`repro.simkit.simulator.Simulator.observer`); wrapped node
    handlers report the session each event acts for; instrumented
    ``store["queries"]`` dicts report per-query state touches.
    """

    def __init__(self):
        self.event_seq = 0
        self.event_time: float | None = None
        self.in_event = False
        self.session: int | None = None
        #: (node, query-id) -> list of (event_seq, session, wrote)
        self._ts_accesses: dict[tuple, list[tuple[int, int | None, bool]]] = {}
        self.checked_accesses = 0

    # observer protocol (Simulator calls these around every event)
    def before_event(self, now: float) -> None:
        if now != self.event_time:
            self._ts_accesses.clear()
            self.event_time = now
        self.event_seq += 1
        self.in_event = True
        self.session = None

    def after_event(self) -> None:
        self.in_event = False
        self.session = None

    def touch(self, node: tuple, query_id: Any, wrote: bool) -> None:
        """One access to ``store['queries'][query_id]`` at ``node``."""
        if not self.in_event:
            return  # outside the event loop (drain bookkeeping etc.)
        self.checked_accesses += 1
        if self.session is not None and query_id != self.session:
            raise SessionBleedError(
                f"node {node}: event attributed to session "
                f"{self.session} touched session {query_id}'s state at "
                f"t={self.event_time} — per-query namespacing violated"
            )
        log = self._ts_accesses.setdefault((node, query_id), [])
        for seq, session, other_wrote in log:
            if seq != self.event_seq and (wrote or other_wrote):
                if session != self.session:
                    raise TieBreakHazardError(
                        f"node {node}, query {query_id}: events from "
                        f"sessions {session} and {self.session} conflict "
                        f"at the same timestamp t={self.event_time} "
                        "(outcome depends on event-queue tie-breaking)"
                    )
        log.append((self.event_seq, self.session, wrote))


class _QueryStateDict(dict):
    """Instrumented ``store['queries']``: reports per-query accesses."""

    def __init__(self, shadow: SessionShadow, node: tuple, data: dict):
        super().__init__(data)
        self._shadow = shadow
        self._node = node

    def __getitem__(self, key):
        self._shadow.touch(self._node, key, wrote=False)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self._shadow.touch(self._node, key, wrote=False)
        return super().get(key, default)

    def __setitem__(self, key, value):
        self._shadow.touch(self._node, key, wrote=True)
        super().__setitem__(key, value)

    def setdefault(self, key, default=None):
        self._shadow.touch(self._node, key, wrote=key not in self)
        return super().setdefault(key, default)

    def pop(self, key, *default):
        self._shadow.touch(self._node, key, wrote=True)
        return super().pop(key, *default)


class _ShadowStore(dict):
    """A node store that hands out instrumented ``'queries'`` dicts."""

    def __init__(self, shadow: SessionShadow, node: tuple, data: dict):
        super().__init__(data)
        self._shadow = shadow
        self._node = node
        if "queries" in data and not isinstance(data["queries"], _QueryStateDict):
            super().__setitem__(
                "queries", _QueryStateDict(shadow, node, data["queries"])
            )

    def _wrap(self, value):
        if isinstance(value, _QueryStateDict) or not isinstance(value, dict):
            return value
        return _QueryStateDict(self._shadow, self._node, value)

    def __setitem__(self, key, value):
        if key == "queries":
            value = self._wrap(value)
        super().__setitem__(key, value)

    def setdefault(self, key, default=None):
        if key == "queries" and key not in self:
            default = self._wrap(default if default is not None else {})
        return super().setdefault(key, default)


def _session_of_timer(tag: str) -> int | None:
    """Query id from a namespaced timer tag (``detect-timeout:<id>``)."""
    _, _, suffix = tag.rpartition(":")
    try:
        return int(suffix)
    except ValueError:
        return None


def sanitize_network(net) -> SessionShadow:
    """Install the session-isolation sanitizer on a :class:`MeshNetwork`.

    Idempotent per network; returns the shadow (exposed for tests and
    telemetry).  Instruments in place: the simulator's observer hook,
    every node's ``store`` and ``on_message``/``on_timer`` handlers.
    """
    existing = getattr(net, "_session_shadow", None)
    if existing is not None:
        return existing
    shadow = SessionShadow()
    net._session_shadow = shadow
    net.sim.observer = shadow
    for coord, node in net.nodes.items():
        node.store = _ShadowStore(shadow, coord, node.store)

        def wrap_message(handler: Callable, _shadow=shadow):
            def on_message(msg):
                _shadow.session = msg.payload.get("query")
                try:
                    return handler(msg)
                finally:
                    _shadow.session = None

            return on_message

        def wrap_timer(handler: Callable, _shadow=shadow):
            def on_timer(tag):
                _shadow.session = _session_of_timer(tag)
                try:
                    return handler(tag)
                finally:
                    _shadow.session = None

            return on_timer

        node.on_message = wrap_message(node.on_message)
        node.on_timer = wrap_timer(node.on_timer)
    return shadow


def maybe_sanitize_network(net) -> SessionShadow | None:
    """Install the session sanitizer iff ``REPRO_SANITIZE`` is on."""
    return sanitize_network(net) if enabled() else None


# -- epoch sanitizer ---------------------------------------------------------


class EpochShadow:
    """Submission-epoch bookkeeping for one online routing service."""

    def __init__(self, service):
        self.service = service
        self.submitted: dict[int, int] = {}
        self.checked_results = 0

    def record(self, ticket: int) -> None:
        self.submitted[ticket] = self.service.epoch

    def verify(self, flushed: dict) -> None:
        for ticket, result in flushed.items():
            expected = self.submitted.pop(ticket, None)
            if expected is None:
                continue  # submitted before the sanitizer was installed
            self.checked_results += 1
            if result.epoch != expected:
                raise EpochViolationError(
                    f"ticket {ticket}: answered at epoch {result.epoch} "
                    f"but submitted at epoch {expected} — the result was "
                    "scored against labels newer than its submission "
                    "epoch (a fault event mutated the model without "
                    "flushing the queue first)"
                )


def sanitize_online_service(service) -> EpochShadow:
    """Wrap an :class:`OnlineRoutingService` with epoch verification.

    Idempotent per service; returns the shadow.  ``submit`` records the
    epoch each ticket was issued under; ``flush`` verifies every
    result's stamped epoch against it.
    """
    existing = getattr(service, "_epoch_shadow", None)
    if existing is not None:
        return existing
    shadow = EpochShadow(service)
    service._epoch_shadow = shadow
    inner_submit = service.submit
    inner_flush = service.flush

    def submit(source, dest):
        ticket = inner_submit(source, dest)
        shadow.record(ticket)
        return ticket

    def flush():
        flushed = inner_flush()
        shadow.verify(flushed)
        return flushed

    service.submit = submit
    service.flush = flush
    return shadow


def maybe_sanitize_online_service(service) -> EpochShadow | None:
    """Wrap the service iff ``REPRO_SANITIZE`` is on."""
    return sanitize_online_service(service) if enabled() else None
