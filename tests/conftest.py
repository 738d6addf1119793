"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import contextlib
import signal

import numpy as np
import pytest

from repro.mesh.orientation import Orientation
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
