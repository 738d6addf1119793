"""Deterministic random-number-generator plumbing.

Every stochastic component in the library accepts either an integer seed
or a :class:`numpy.random.Generator`.  Centralizing the coercion here
keeps experiments reproducible: the same seed always yields the same
fault patterns, workloads, and adaptive routing choices.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[int, None, np.random.Generator, np.random.SeedSequence]


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Passing an existing generator returns it unchanged so that callers can
    thread one RNG through a pipeline without re-seeding.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def as_seed_sequence(seed: SeedLike) -> np.random.SeedSequence:
    """Coerce ``seed`` into a :class:`numpy.random.SeedSequence`.

    A ``SeedSequence`` input is *copied* (same entropy and spawn key,
    spawn counter reset) so that repeated calls spawn the same children
    — ``SeedSequence.spawn`` is stateful, and the sharded sweep runner
    needs positional, replayable derivation.  Generators are consumed
    for one draw so a fresh sequence is derived from their stream.
    """
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(
            entropy=seed.entropy,
            spawn_key=seed.spawn_key,
            pool_size=seed.pool_size,
        )
    if isinstance(seed, np.random.Generator):
        return np.random.SeedSequence(int(seed.integers(0, 2**63 - 1)))
    return np.random.SeedSequence(seed)


def spawn_seed_sequences(seed: SeedLike, n: int) -> list[np.random.SeedSequence]:
    """Derive ``n`` independent child seed sequences (picklable).

    The sharded sweep runner ships these to worker processes: a child
    sequence fully determines its pattern's stream, so results do not
    depend on which shard — or process — evaluates it.
    """
    if n < 0:
        raise ValueError(f"cannot spawn {n} seed sequences")
    return list(as_seed_sequence(seed).spawn(n))


def replayable_seed_payload(seed: SeedLike) -> Union[int, None, dict]:
    """A JSON-safe, canonical payload identifying a replayable seed.

    Used wherever a seed participates in a persistent identity — the
    sweep runner's checkpoint fingerprints, saved result-table headers —
    so the same seed always serializes to the same bytes.  ``int`` and
    ``None`` pass through; a :class:`numpy.random.SeedSequence` is
    reduced to its defining (entropy, spawn_key, pool_size) triple.  A
    live :class:`numpy.random.Generator` has hidden stream state that
    cannot be replayed from any serialization and raises ``TypeError``.
    """
    if isinstance(seed, np.random.Generator):
        raise TypeError(
            "a live Generator is not replayable; use an int, None, or a "
            "SeedSequence where a persistent seed identity is needed"
        )
    if isinstance(seed, np.random.SeedSequence):
        entropy = seed.entropy
        return {
            "entropy": list(entropy)
            if isinstance(entropy, (list, tuple))
            else entropy,
            "spawn_key": list(seed.spawn_key),
            "pool_size": seed.pool_size,
        }
    return seed


def sample_distinct(
    rng: np.random.Generator, population: int, k: int
) -> np.ndarray:
    """Sample ``k`` distinct integers from ``range(population)``.

    Thin wrapper over ``Generator.choice(..., replace=False)`` with bounds
    checking and a stable dtype, shared by fault and workload generators.
    """
    if k > population:
        raise ValueError(f"cannot draw {k} distinct items from {population}")
    if k < 0:
        raise ValueError(f"cannot draw a negative number of items ({k})")
    return rng.choice(population, size=k, replace=False).astype(np.int64)
