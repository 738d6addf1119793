"""Adaptive-selection policies: how the router picks among candidates.

Algorithm 3 step 2(c): "apply any fully adaptive and minimal routing
process to pick up a forwarding direction from set F".  The paper leaves
the choice open — the guarantee must hold for *every* choice — so the
engine takes a pluggable policy and the test suite additionally explores
all choices exhaustively (adversarial stuck-freedom, property P3).
"""

from __future__ import annotations

from typing import Protocol, Sequence

from repro.util.rng import SeedLike, make_rng


class Policy(Protocol):
    """Selects one axis from the candidate set at the current node."""

    def choose(
        self, candidates: Sequence[int], pos: Sequence[int], dest: Sequence[int]
    ) -> int:  # pragma: no cover - protocol signature
        ...


class FixedOrderPolicy:
    """Always take the first candidate under a fixed axis priority.

    ``FixedOrderPolicy((0, 1, 2))`` reproduces dimension-order behaviour
    whenever the network permits it.
    """

    def __init__(self, order: Sequence[int] = (0, 1, 2)):
        self.order = tuple(order)

    def choose(self, candidates, pos, dest) -> int:
        for axis in self.order:
            if axis in candidates:
                return axis
        # Candidate axis outside the configured order (higher-D mesh).
        return candidates[0]

    def __repr__(self) -> str:
        return f"FixedOrderPolicy(order={self.order})"


class RandomPolicy:
    """Uniformly random candidate — the fully adaptive stress test."""

    def __init__(self, seed: SeedLike = None):
        self.rng = make_rng(seed)

    def choose(self, candidates, pos, dest) -> int:
        return int(candidates[self.rng.integers(len(candidates))])

    def __repr__(self) -> str:
        return "RandomPolicy()"


class DiagonalPolicy:
    """Balance progress: take the axis with the largest remaining offset.

    Keeps maximal adaptivity in reserve (the router stays as far from
    the RMP faces as possible), the heuristic most adaptive-routing
    papers recommend.
    """

    def choose(self, candidates, pos, dest) -> int:
        return max(candidates, key=lambda a: (abs(dest[a] - pos[a]), -a))

    def __repr__(self) -> str:
        return "DiagonalPolicy()"


def make_policy(name: str, seed: SeedLike = None) -> Policy:
    """Policy factory used by experiments ('fixed', 'random', 'diagonal')."""
    if name == "fixed":
        return FixedOrderPolicy()
    if name == "random":
        return RandomPolicy(seed)
    if name == "diagonal":
        return DiagonalPolicy()
    raise ValueError(f"unknown policy {name!r}")
