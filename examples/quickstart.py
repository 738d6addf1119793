#!/usr/bin/env python
"""Quickstart: the MCC fault model and minimal routing in five minutes.

Builds a 3-D mesh with the paper's Figure-5 fault pattern, labels it,
compares the MCC region against rectangular faulty blocks, checks the
minimal-path condition, and routes a packet adaptively.
"""

import numpy as np

from repro import (
    ConditionEvaluator,
    Mesh3D,
    RoutingService,
    extract_mccs,
    label_grid,
    rfb_unsafe,
)

FAULTS = [
    (5, 5, 6), (6, 5, 5), (5, 6, 5), (6, 7, 5),
    (7, 6, 5), (5, 4, 7), (4, 5, 7), (7, 8, 4),
]


def main() -> None:
    mesh = Mesh3D(10)
    faults = np.zeros(mesh.shape, dtype=bool)
    for cell in FAULTS:
        faults[cell] = True
    print(f"Mesh: {mesh}, faults: {len(FAULTS)}")

    # 1. Label unsafe nodes (Algorithm 4) for the +X+Y+Z direction class.
    labelled = label_grid(faults)
    counts = labelled.counts()
    print(f"Labelling: {counts}")
    print(f"  (5,5,5) is useless:     {labelled.status[5, 5, 5] == 2}")
    print(f"  (5,5,7) is can't-reach: {labelled.status[5, 5, 7] == 3}")

    # 2. Extract MCCs and compare with the rectangular-block baseline.
    mccs = extract_mccs(labelled, connectivity=2)  # the paper's grouping
    print(f"MCCs: {len(mccs)} (paper: 2); sizes {sorted(m.size for m in mccs)}")
    mcc_overhead = int(labelled.unsafe_mask.sum() - faults.sum())
    rfb_overhead = int(rfb_unsafe(faults).sum() - faults.sum())
    print(f"Non-faulty nodes captured: MCC {mcc_overhead} vs RFB {rfb_overhead}")

    # 3. Sufficient-and-necessary condition (Theorem 2).
    evaluator = ConditionEvaluator(faults)
    for s, d in [((0, 0, 0), (9, 9, 9)), ((5, 5, 0), (5, 5, 9))]:
        print(f"Minimal path {s} -> {d}: {evaluator.exists(s, d)}")

    # 4. Route a packet with MCC-guided fully adaptive routing.
    service = RoutingService(faults, mode="mcc")
    result = service.route((0, 0, 0), (9, 9, 9))
    print(
        f"Routed (0,0,0) -> (9,9,9): delivered={result.delivered}, "
        f"hops={result.hops} (Manhattan distance 27), "
        f"minimal={result.is_minimal()}"
    )
    print("First hops:", " -> ".join(map(str, result.path[:6])), "...")


if __name__ == "__main__":
    main()
