"""Existence conditions for minimal paths (Lemma 1, Theorems 1 and 2).

All predicates operate in the canonical frame: source component-wise <=
destination.  Use :class:`repro.mesh.orientation.Orientation` to map an
arbitrary pair into this frame first.

``minimal_path_exists_lemma1`` is the merged-region form of the paper's
Lemma 1: a routing has no minimal path iff some MCC ``M`` and dimension
``dim`` satisfy ``s ∈ Q_dim(M)-merged`` and ``d ∈ Q'_dim(M)``.  The
chain-merged ``Q`` is precisely what the boundary construction
distributes, so this predicate is also Theorem 1/Theorem 2 in region
form: "the boundary does not intersect the escape segment/surface of the
RMP" is equivalent to "the source is trapped inside the merged forbidden
region" (the wall, walked from the MCC toward the mesh floor, separates
the two cases).  The test suite verifies the predicate against the
oracle exhaustively on small meshes and by Monte Carlo on larger ones
(property P2), and against the literal walk-based detection of
:mod:`repro.core.detection`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.labelling import LabelledGrid
from repro.core.model_cache import cached_labelled
from repro.mesh.orientation import Orientation


def minimal_path_exists_lemma1(
    source: Sequence[int],
    dest: Sequence[int],
    labelled: LabelledGrid,
) -> bool:
    """Theorem 1/2 in boundary-information form.

    A minimal path exists iff a monotone path from ``source`` to
    ``dest`` exists through nodes that the distributed information
    permits: safe nodes outside every *active* merged forbidden region
    (walls whose critical region contains the destination) —
    Algorithm 3 step 2 evaluated as reachability.  The test suite
    verifies this agrees with the oracle exactly (property P2).

    ``source`` and ``dest`` are canonical-frame coordinates and must be
    safe nodes (the paper's standing assumption); ``labelled`` supplies
    the direction class's node labels and is used for that check.

    The evaluation is monotone reachability over the MCC-safe nodes —
    the exact content of the theorem ("if there exists no minimal
    routing under the MCC model, there will be absolutely no minimal
    routing", Section 3), equal to the oracle by property P1, so no
    wall is needed.  The literal region-membership form ("no wall with
    s ∈ Q and d ∈ Q'") is exact in 2-D but not in 3-D: *stacked
    shadows* (one MCC's shadow abutting another's along the third axis)
    can trap a source without any single merged wall containing it, so
    reachability is the canonical evaluation
    (DESIGN.md interpretation 3; ``tests/test_conditions.py`` keeps the
    membership form as a reference).  T5 in DESIGN.md "Experiment
    index" measures the agreement rates.
    """
    s = tuple(int(c) for c in source)
    d = tuple(int(c) for c in dest)
    if any(a > b for a, b in zip(s, d, strict=True)):
        raise ValueError(f"not in canonical frame: source {s} !<= dest {d}")
    if labelled.status[s] != 0 or labelled.status[d] != 0:
        raise ValueError(
            "Lemma 1 requires safe endpoints: "
            f"source status {labelled.status[s]}, dest status {labelled.status[d]}"
        )
    from repro.routing.oracle import minimal_path_exists

    return minimal_path_exists(labelled.safe_mask, s, d)


class ConditionEvaluator:
    """Theorem 1/2 verdicts for arbitrary pairs over one fault mask.

    Monte-Carlo experiments evaluate many (source, dest) pairs against a
    single fault pattern.  Each pair's direction class is labelled once
    per process: labellings come from the content-addressed cache
    (:mod:`repro.core.model_cache`), so an evaluator, a router, and the
    detection pass labelling the same pattern share one fixed point per
    class (there are 4 classes in 2-D, 8 in 3-D).
    """

    def __init__(self, fault_mask: np.ndarray):
        self.fault_mask = np.asarray(fault_mask, dtype=bool)

    def exists(self, source: Sequence[int], dest: Sequence[int]) -> bool:
        """Theorem-based feasibility for an arbitrary mesh-frame pair."""
        orientation = Orientation.for_pair(source, dest, self.fault_mask.shape)
        return minimal_path_exists_lemma1(
            orientation.map_coord(source),
            orientation.map_coord(dest),
            labelled=cached_labelled(self.fault_mask, orientation),
        )

    def endpoint_safe(self, source: Sequence[int], dest: Sequence[int]) -> bool:
        """True when both endpoints are safe in the pair's direction class."""
        orientation = Orientation.for_pair(source, dest, self.fault_mask.shape)
        labelled = cached_labelled(self.fault_mask, orientation)
        return (
            labelled.status[orientation.map_coord(source)] == 0
            and labelled.status[orientation.map_coord(dest)] == 0
        )
