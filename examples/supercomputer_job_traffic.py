#!/usr/bin/env python
"""Blue-Gene-class scenario: job traffic across a partially failed mesh.

The paper motivates 3-D meshes with machines like Blue Gene and the
Cray T3D (Section 1 references [1, 5]).  This example models a 16^3
partition with a failed coolant zone (clustered faults) plus scattered
node failures, then pushes all-to-all style job traffic through three
routers: MCC-guided adaptive, blind adaptive, and dimension-order.
"""

from repro import ecube_succeeds, label_grid, make_service
from repro.experiments.workloads import clustered_fault_mask, sample_safe_pair
from repro.util.rng import make_rng


def main() -> None:
    rng = make_rng(7)
    shape = (16, 16, 16)
    # A failed cooling zone (clustered) plus scattered single failures.
    faults = clustered_fault_mask(shape, 60, clusters=2, spread=1.8, rng=rng)
    extra = 0
    while extra < 40:
        cell = tuple(int(v) for v in rng.integers(0, 16, 3))
        if not faults[cell]:
            faults[cell] = True
            extra += 1
    labelled = label_grid(faults)
    print(
        f"Partition {shape}: {int(faults.sum())} failed nodes "
        f"({faults.mean():.1%}), {int(labelled.unsafe_mask.sum())} unsafe "
        "in the canonical class"
    )

    # One service per partition: every job batch shares the per-class
    # labelled grids and one reverse flood per distinct destination.
    service = make_service(faults, mode="mcc")
    jobs = 400
    pairs = []
    for _ in range(jobs):
        pair = sample_safe_pair(~faults, rng=rng, min_distance=8)
        if pair is not None:
            pairs.append(pair)
    stats = {"mcc": 0, "blind": 0, "ecube": 0, "feasible": 0}
    hops_total = 0
    # Blind adaptive routing: any distance-reducing hop to a non-faulty
    # neighbor, lowest axis first, with no fault-information model.
    blind = make_service(faults, mode="blind").route_batch(pairs)
    for (src, dst), result, walk in zip(
        pairs, service.route_batch(pairs), blind, strict=True
    ):
        if result.feasible:
            stats["feasible"] += 1
        if result.delivered and result.is_minimal():
            stats["mcc"] += 1
            hops_total += result.hops
        stats["blind"] += walk.delivered
        stats["ecube"] += ecube_succeeds(faults, src, dst)

    print(f"\nJob messages: {jobs} (minimum distance 8)")
    print(f"  minimal-path feasible (Theorem 2): {stats['feasible']}")
    print(f"  delivered minimally by MCC router:  {stats['mcc']}")
    print(f"  delivered by blind adaptive:        {stats['blind']}")
    print(f"  delivered by dimension-order:       {stats['ecube']}")
    if stats["mcc"]:
        print(f"  mean minimal path length: {hops_total / stats['mcc']:.1f} hops")
    assert stats["mcc"] == stats["feasible"], "MCC router must match Theorem 2"


if __name__ == "__main__":
    main()
