"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import contextlib
import signal

import numpy as np
import pytest

from repro.core import labelling
from repro.mesh.orientation import Orientation
from repro.routing.engine import RouteResult
from repro.routing.oracle import minimal_path_exists


def random_mask(rng: np.random.Generator, shape, count) -> np.ndarray:
    """A random fault mask with exactly ``count`` faults."""
    size = int(np.prod(shape))
    count = min(count, size)
    mask = np.zeros(shape, dtype=bool)
    idx = rng.choice(size, count, replace=False)
    mask[np.unravel_index(idx, shape)] = True
    return mask


def all_classes(shape) -> list[Orientation]:
    """All 2^n direction classes of a mesh of ``shape``."""
    n = len(shape)
    return [
        Orientation(tuple(-1 if key >> a & 1 else 1 for a in range(n)), tuple(shape))
        for key in range(2**n)
    ]


def oracle_feasible(fault_mask: np.ndarray, source, dest) -> bool:
    """Ground truth: monotone path avoiding faulty nodes (any pair)."""
    orientation = Orientation.for_pair(source, dest, fault_mask.shape)
    return minimal_path_exists(
        orientation.to_canonical(~fault_mask),
        orientation.map_coord(source),
        orientation.map_coord(dest),
    )


def reference_candidates(router, model, pos, dest) -> list[int]:
    """Surviving preferred axes at canonical ``pos`` for ``dest``.

    The per-hop form of Algorithm 3 step 2's exclusion rule: probe the
    reach cache, then test each +1 neighbor by its canonical tuple.
    Blind mode tests the open mask instead.
    """
    allowed = model._open if router.mode == "blind" else model.reach_mask(dest)
    out = []
    for axis in range(len(pos)):
        if pos[axis] < dest[axis]:
            nxt = list(pos)
            nxt[axis] += 1
            if allowed[tuple(nxt)]:
                out.append(axis)
    return out


def reference_route(router, policy, source, dest) -> RouteResult:
    """What ``router.route(source, dest)`` returns, spelled hop by hop.

    The checks read the class model's masks at canonical tuples, every
    hop asks :func:`reference_candidates`, ``policy`` picks, and the
    canonical path maps back to the mesh frame at the end
    (``map_coord`` is its own inverse).  Shares only the router's class
    models, so the reach caches it fills are the ones the router reads.
    """
    source = tuple(int(c) for c in source)
    dest = tuple(int(c) for c in dest)

    def refused(reason):
        return RouteResult(
            delivered=False, path=[source], feasible=False, reason=reason
        )

    if router.fault_mask[source] or router.fault_mask[dest]:
        return refused("endpoint faulty")
    orientation = Orientation.for_pair(source, dest, router.fault_mask.shape)
    s, d = orientation.map_coord(source), orientation.map_coord(dest)
    model = router._model_for(orientation)
    if router.mode != "blind":
        if model.unsafe[s] or model.unsafe[d]:
            return refused("endpoint inside fault region")
        if s != d and (not model._open[s] or not model.reach_mask(d)[s]):
            return refused("infeasible")
    pos, canonical_path = s, [s]
    while pos != d:
        candidates = reference_candidates(router, model, pos, d)
        if not candidates:
            path = [orientation.map_coord(c) for c in canonical_path]
            return RouteResult(
                delivered=False,
                path=path,
                feasible=None,
                stuck_at=path[-1],
                reason="stuck",
            )
        axis = policy.choose(candidates, pos, d)
        if axis not in candidates:
            raise RuntimeError(f"policy chose non-candidate axis {axis}")
        nxt = list(pos)
        nxt[axis] += 1
        pos = tuple(nxt)
        canonical_path.append(pos)
    path = [orientation.map_coord(c) for c in canonical_path]
    return RouteResult(delivered=True, path=path, feasible=True)


def record_deliveries(net) -> list[tuple]:
    """Every message ``net`` delivers to a node from now on, in order.

    Wraps each node's ``on_message`` to append ``(time, kind, src,
    dst)`` before the node handles the message.  Frames, which the
    network forwards itself, reach no node and are not recorded.
    """
    deliveries: list[tuple] = []
    for node in net.nodes.values():

        def recorded(msg, handle=node.on_message):
            deliveries.append((net.sim.now, msg.kind, msg.src, msg.dst))
            handle(msg)

        node.on_message = recorded
    return deliveries


@pytest.fixture(scope="session", autouse=True)
def _sanitize_cache_barrier():
    """Digest-verify the labelling cache for the whole run when
    ``REPRO_SANITIZE=1`` (the DES/online sanitizers self-install; the
    cache barrier is process-wide state, so the suite owns it)."""
    from repro.analysis.sanitize import enabled, install_cache_barrier

    if not enabled():
        yield None
        return
    handle = install_cache_barrier()
    yield handle
    handle.uninstall()


@pytest.fixture
def sanitized_cache_barrier():
    """An unconditionally installed cache barrier (sanitizer tests)."""
    from repro.analysis.sanitize import install_cache_barrier
    from repro.core.model_cache import clear_labelling_cache

    handle = install_cache_barrier()
    yield handle
    handle.uninstall()
    clear_labelling_cache()


@pytest.fixture
def closure_runs(monkeypatch) -> list[np.ndarray]:
    """The input of every full-mesh closure run: two per class
    labelling, the faults and then the faults reversed (CANT_REACH)."""
    runs: list[np.ndarray] = []
    real = labelling.closure

    def counted(fault_mask):
        runs.append(np.array(fault_mask))
        return real(fault_mask)

    monkeypatch.setattr(labelling, "closure", counted)
    return runs


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20050610)


@pytest.fixture
def fig5_mask() -> np.ndarray:
    """The paper's Figure 5 fault pattern in a 10^3 mesh."""
    mask = np.zeros((10, 10, 10), dtype=bool)
    for cell in [
        (5, 5, 6), (6, 5, 5), (5, 6, 5), (6, 7, 5),
        (7, 6, 5), (5, 4, 7), (4, 5, 7), (7, 8, 4),
    ]:
        mask[cell] = True
    return mask


@pytest.fixture
def deadline():
    """``with deadline(seconds):`` fails a body that runs too long.

    A SIGALRM raises ``TimeoutError`` inside the body, so a call that
    would loop forever fails the test instead of hanging the suite.
    """

    @contextlib.contextmanager
    def arm(seconds: float):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return arm
