"""Traced mode: wrappers around each layer's public functions.

The wrappers live here, in the benchmark, not in the program: each one
is patched at the name its caller looks up (a module global for
functions, a class attribute for methods), records calls, inclusive
time and self time (inclusive minus the time of wrapped children), and
is removed again before the output checks run.  Coarse boundaries —
passes, patterns, epochs, serve ticks and fault events, pipeline
phases and ``feasible_batch`` calls — also record spans in memory
(name, start, end, parent, unit), written once at exit through the
``repro.obs`` Perfetto exporter.

Per-message protocol handlers only add time and a message count per
protocol; they record no span.  No ``Simulator`` observer is attached:
an observer switches dispatch to the general loop, and
``simkit.dispatch_self_ms`` must measure the loop users run.
"""

from __future__ import annotations

import contextlib
import importlib
import time

from repro.distributed.boundary_proto import BoundaryMixin
from repro.distributed.identification import IdentificationMixin
from repro.distributed.labelling_proto import LabellingNode
from repro.distributed.pipeline import DistributedMCCPipeline
from repro.distributed.routing_proto import RoutingMixin
from repro.online.service import OnlineRoutingService
from repro.routing.batch import RoutingService
from repro.simkit.network import MeshNetwork
from repro.simkit.simulator import Simulator


def _first_arg_len(args, kwargs):
    """Length of the argument after ``self`` (pairs or destinations)."""
    return len(args[1])


#: (stat name, owner, attribute, span?, extra count) — the owner is a
#: module path for functions (patched where the caller looks them up)
#: or a class for methods.
TARGETS = (
    ("core.label_grid", "repro.routing.engine", "label_grid", False, None),
    ("core.extract_mccs", "repro.core.model_cache", "extract_mccs", False, None),
    ("core.build_walls", "repro.core.model_cache", "build_walls", False, None),
    ("core.closure_region", "repro.online.dynamic_model", "closure_region", False, None),
    ("baselines.rfb_labelled", "repro.routing.engine", "rfb_labelled", False, None),
    ("routing.flood_many", "repro.routing.engine", "reverse_reachable_many", False, ("dests", _first_arg_len)),
    ("routing.flood_one", "repro.routing.engine", "reverse_reachable", False, None),
    ("routing.feasible_batch", RoutingService, "feasible_batch", True, ("pairs", _first_arg_len)),
    ("routing.route_batch", RoutingService, "route_batch", False, ("pairs", _first_arg_len)),
    ("online.inject", OnlineRoutingService, "inject", False, None),
    ("online.repair", OnlineRoutingService, "repair", False, None),
    ("simkit.run_to_quiescence", Simulator, "run_to_quiescence", False, None),
    ("simkit.net_build", MeshNetwork, "__init__", True, None),
    ("distributed.build", DistributedMCCPipeline, "build", True, None),
    ("distributed.drain", DistributedMCCPipeline, "drain", True, None),
    ("distributed.event", DistributedMCCPipeline, "apply_event", True, None),
)

#: Protocol handlers: (protocol, class, attribute, is a message handler
#: that returns True only for its own kinds).  Timers and the actions
#: the pipeline schedules count under their protocol.
HANDLERS = (
    ("labelling", LabellingNode, "on_message", "always"),
    ("labelling", LabellingNode, "on_start", "action"),
    ("labelling", LabellingNode, "notice_neighbor_died", "action"),
    ("labelling", LabellingNode, "announce_labelling", "action"),
    ("identification", IdentificationMixin, "handle_identification", "if-true"),
    ("identification", IdentificationMixin, "start_identification", "action"),
    ("identification", IdentificationMixin, "on_timer", "action"),
    ("boundary", BoundaryMixin, "handle_boundary", "if-true"),
    ("routing", RoutingMixin, "handle_routing", "if-true"),
    ("routing", RoutingMixin, "start_query", "action"),
    ("routing", RoutingMixin, "on_timer", "action"),
)

PROTOCOLS = ("labelling", "identification", "boundary", "routing")


class NullProfiler:
    """Untraced mode: regions and calls cost one Python call."""

    @contextlib.contextmanager
    def region(self, name, unit):
        yield

    def call(self, name, fn, *args, unit=None, **kwargs):
        return fn(*args, **kwargs)

    def outside(self, fn):
        return fn()


class Profiler:
    """Calls, inclusive and self time per wrapped function, plus spans."""

    def __init__(self, track="main"):
        #: name -> [calls, inclusive s, self s]
        self.stats: dict[str, list] = {}
        self.extra: dict[str, int] = {}
        self.msgs = dict.fromkeys(PROTOCOLS, 0)
        self.spans: list[dict] = []
        self._frames = [[0.0]]
        self._open: list[int] = []
        self._unit = None
        self._saved: list[tuple] = []
        self.track = track

    # -- recording ---------------------------------------------------------

    def _span_open(self, name, unit):
        parent = self._open[-1] if self._open else None
        span = {
            "name": name, "cat": name.split(".")[0], "track": self.track,
            "seq": len(self.spans), "depth": len(self._open), "kind": "span",
            "t0": time.perf_counter(), "t1": None, "vt0": None, "vt1": None,
            "attrs": {"parent": parent, "unit": unit},
        }
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def _span_close(self, span):
        span["t1"] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def region(self, name, unit):
        """A span around benchmark-level work; not a layer, no stats."""
        outer, self._unit = self._unit, unit
        span = self._span_open(name, unit)
        try:
            yield
        finally:
            self._span_close(span)
            self._unit = outer

    def _timed(self, name, fn, span, extra):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        frames = self._frames
        clock = time.perf_counter
        if extra is not None:
            key = f"{name}.{extra[0]}"
            self.extra.setdefault(key, 0)
            count = extra[1]

        def wrapper(*args, **kwargs):
            if extra is not None:
                self.extra[key] += count(args, kwargs)
            sp = self._span_open(name, self._unit) if span else None
            frame = [0.0]
            frames.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                frames.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[0]
                frames[-1][0] += dt
                if sp is not None:
                    self._span_close(sp)

        return wrapper

    def call(self, name, fn, *args, unit=None, **kwargs):
        """Time one call as a layer boundary with its own span."""
        outer = self._unit
        if unit is not None:
            self._unit = unit
        try:
            return self._timed(name, fn, True, None)(*args, **kwargs)
        finally:
            self._unit = outer

    def outside(self, fn):
        """Run benchmark work (calibration) inside a wrapped call without
        charging its time to that call."""
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            self._frames[-1][0] += time.perf_counter() - t0

    def _handler(self, protocol, fn, mode):
        """Per-message wrapper: time and count only messages it handles.

        A ``handle_*`` call that declines a message returns False; that
        dispatch cost stays with the simulator's loop.
        """
        stats = self.stats.setdefault(f"distributed.handler.{protocol}", [0, 0.0, 0.0])
        frames = self._frames
        msgs = self.msgs
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            t0 = clock()
            handled = True
            try:
                handled = fn(*args, **kwargs)
                return handled
            finally:
                dt = clock() - t0
                frames.pop()
                if mode != "if-true" or handled:
                    stats[0] += 1
                    stats[1] += dt
                    stats[2] += dt - frame[0]
                    frames[-1][0] += dt
                    if mode != "action":
                        msgs[protocol] += 1

        return wrapper

    # -- install / remove --------------------------------------------------

    def install(self) -> None:
        for name, owner, attr, span, extra in TARGETS:
            target = importlib.import_module(owner) if isinstance(owner, str) else owner
            original = getattr(target, attr)
            self._saved.append((target, attr, original))
            setattr(target, attr, self._timed(name, original, span, extra))
        for protocol, cls, attr, mode in HANDLERS:
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self._handler(protocol, original, mode))

    def remove(self) -> None:
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)

    # -- results -----------------------------------------------------------

    def ms(self, name, which=2):
        return 1e3 * self.stats.get(name, [0, 0.0, 0.0])[which]

    def calls(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[0]


#: Layer -> the stats whose self time is that layer's own work.
LAYERS = {
    "core": ("core.label_grid", "core.extract_mccs", "core.build_walls", "core.closure_region"),
    "baselines": ("baselines.rfb_labelled",),
    "routing": ("routing.flood_many", "routing.flood_one", "routing.feasible_batch", "routing.route_batch"),
    "online": ("online.inject", "online.repair"),
    "serve": ("serve.run", "serve.tick", "serve.event"),
    "simkit": ("simkit.run_to_quiescence", "simkit.net_build"),
    "distributed": (
        "distributed.build", "distributed.drain", "distributed.event",
        *(f"distributed.handler.{p}" for p in PROTOCOLS),
    ),
}


def layer_metrics(prof: Profiler, counts: dict, wall_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass (see BENCHMARK.json)."""
    m: dict[str, float] = {}
    m["core.label_grid.calls"] = prof.calls("core.label_grid")
    m["core.label_grid.self_ms"] = prof.ms("core.label_grid")
    m["core.extract_mccs.self_ms"] = prof.ms("core.extract_mccs")
    m["core.build_walls.calls"] = prof.calls("core.build_walls")
    m["core.build_walls.self_ms"] = prof.ms("core.build_walls")
    m["core.closure_region.calls"] = prof.calls("core.closure_region")
    m["core.closure_region.self_ms"] = prof.ms("core.closure_region")
    m["baselines.rfb_labelled.self_ms"] = prof.ms("baselines.rfb_labelled")
    m["routing.flood_many.calls"] = prof.calls("routing.flood_many")
    m["routing.flood_many.dests"] = prof.extra.get("routing.flood_many.dests", 0)
    m["routing.flood_many.self_ms"] = prof.ms("routing.flood_many")
    m["routing.flood_one.calls"] = prof.calls("routing.flood_one")
    m["routing.flood_one.self_ms"] = prof.ms("routing.flood_one")
    m["routing.feasible_batch.pairs"] = prof.extra.get("routing.feasible_batch.pairs", 0)
    m["routing.feasible_batch.self_ms"] = prof.ms("routing.feasible_batch")
    m["routing.route_batch.pairs"] = prof.extra.get("routing.route_batch.pairs", 0)
    m["routing.route_batch.self_ms"] = prof.ms("routing.route_batch")
    m["online.inject.self_ms"] = prof.ms("online.inject")
    m["online.repair.self_ms"] = prof.ms("online.repair")
    m["online.dirty_cells"] = counts.get("online.dirty_cells", 0)
    m["online.full_recomputes"] = counts.get("online.full_recomputes", 0)
    probes = counts.get("online.reach_retained", 0) + counts.get("online.reach_evicted", 0)
    m["online.reach_probes"] = probes
    m["online.reach_retained"] = counts.get("online.reach_retained", 0) / probes if probes else 0.0
    m["serve.ticks"] = counts.get("serve.ticks", 0)
    m["serve.mean_batch"] = counts.get("serve.mean_batch", 0.0)
    m["serve.shed"] = counts.get("serve.shed", 0)
    m["serve.frontend_self_ms"] = sum(prof.ms(n) for n in LAYERS["serve"])
    m["simkit.events"] = sum(
        v for k, v in counts.items() if k.endswith(".events_processed")
    )
    m["simkit.messages"] = sum(
        sum(v.values()) for k, v in counts.items() if k.endswith(".messages")
    )
    m["simkit.dispatch_self_ms"] = prof.ms("simkit.run_to_quiescence")
    m["simkit.net_build_ms"] = prof.ms("simkit.net_build", which=1)
    m["distributed.build.ms"] = prof.ms("distributed.build", which=1)
    m["distributed.drain.ms"] = prof.ms("distributed.drain", which=1)
    m["distributed.event.ms"] = prof.ms("distributed.event", which=1)
    m["distributed.event.self_ms"] = prof.ms("distributed.event")
    for p in PROTOCOLS:
        m[f"distributed.handler.{p}.msgs"] = prof.msgs[p]
        m[f"distributed.handler.{p}.self_ms"] = prof.ms(f"distributed.handler.{p}")
    for status in ("delivered", "infeasible", "stuck"):
        m[f"distributed.sessions.{status}"] = counts.get(f"sessions.{status}", 0)
    m["distributed.stuck_msgs"] = counts.get("sessions.stuck_msgs", 0)
    attributed = 0.0
    for layer, names in LAYERS.items():
        self_ms = sum(prof.ms(n) for n in names)
        attributed += self_ms
        m[f"share.{layer}"] = 100.0 * self_ms / (1e3 * wall_s) if wall_s else 0.0
    m["share.unattributed"] = 100.0 - 100.0 * attributed / (1e3 * wall_s)
    return m


#: Per workload: metrics that must be 0 (the layer is bypassed) and
#: metrics that must not be (the wrapper must see the layer's work, so
#: a renamed function cannot silently zero it).
BYPASSED = {
    "static-sweep": (
        "simkit.events", "core.closure_region.calls",
        "online.inject.self_ms", "online.repair.self_ms", "online.dirty_cells",
        "online.full_recomputes", "online.reach_probes",
    ),
    "des-lifecycle": (
        "core.build_walls.calls", "core.closure_region.calls",
        "routing.flood_many.calls", "routing.flood_one.calls",
        "routing.feasible_batch.pairs", "routing.route_batch.pairs",
    ),
    "serve-churn": (
        "core.build_walls.calls", "simkit.events",
        "distributed.build.ms", "distributed.drain.ms", "distributed.event.ms",
        *(f"distributed.handler.{p}.msgs" for p in PROTOCOLS),
        "distributed.sessions.delivered", "distributed.sessions.infeasible",
        "distributed.sessions.stuck",
    ),
}
EXERCISED = {
    "static-sweep": (
        "core.label_grid.calls", "core.extract_mccs.self_ms", "core.build_walls.calls",
        "baselines.rfb_labelled.self_ms", "routing.flood_many.calls",
        "routing.feasible_batch.pairs",
    ),
    "des-lifecycle": (
        "simkit.events", "simkit.messages", "simkit.dispatch_self_ms",
        "simkit.net_build_ms", "distributed.build.ms", "distributed.drain.ms",
        "distributed.event.self_ms",
        *(f"distributed.handler.{p}.msgs" for p in PROTOCOLS),
        "distributed.sessions.delivered",
    ),
    "serve-churn": (
        "core.closure_region.calls", "routing.flood_many.calls",
        "routing.route_batch.pairs", "online.inject.self_ms", "online.repair.self_ms",
        "online.dirty_cells", "online.reach_probes", "serve.ticks",
        "serve.frontend_self_ms",
    ),
}


def exercise_problems(workload: str, metrics: dict) -> list[str]:
    """Bypass/exercise violations of one traced pass (empty when fine)."""
    problems = [
        f"{name} = {metrics[name]} on {workload}, which bypasses that layer"
        for name in BYPASSED[workload]
        if metrics[name] != 0
    ]
    problems += [
        f"{name} = 0 on {workload}, which must exercise it (renamed function?)"
        for name in EXERCISED[workload]
        if metrics[name] == 0
    ]
    return problems
