"""K: micro-benchmarks of the core kernels (HPC-guide driven).

Tracks the vectorized hot paths: labelling fixed point, the monotone
wavefront flood (single, batched, and the serve tick's mixed-class
reverse floods), component extraction, wall construction, the
routing service's batch decomposition with its verdicts, at a serve
tick's and a static sweep's batch size, a serve tick's walks (the
batch cases are printed per pair as well), a serve fault event's
incremental relabel, and the DES framework's cost per message (printed
per message as well).

Two front ends over the same kernel cases:

* ``pytest benchmarks/bench_kernels.py`` — pytest-benchmark tracking
  with its usual statistics;
* ``PYTHONPATH=src python benchmarks/bench_kernels.py`` — dependency-
  free best-of-N timing that writes a machine-readable
  ``BENCH_kernels.json`` to ``--out-dir`` (the same artifact shape as
  the other benches' ``BENCH_*.json`` summaries): per case, the best
  and median seconds per call and the number of back-to-back calls
  each sample times.
"""

import argparse
import itertools
import json
import math
import os
import time

import numpy as np

from repro.core.components import extract_mccs
from repro.core.labelling import label_grid
from repro.core.walls import build_walls
from repro.experiments.workloads import random_fault_mask, sample_safe_pair
from repro.mesh.orientation import Orientation
from repro.mesh.topology import Mesh3D
from repro.online import OnlineRoutingService
from repro.routing.batch import RoutingService
from repro.routing.oracle import (
    monotone_flood,
    reverse_reachable,
    reverse_reachable_many,
)
from repro.simkit import MeshNetwork, NodeProcess


def test_kernel_labelling_2d_64(benchmark):
    mask = random_fault_mask((64, 64), 200, rng=1)
    result = benchmark(label_grid, mask)
    assert result.unsafe_mask.sum() >= 200


def test_kernel_labelling_3d_20(benchmark):
    mask = random_fault_mask((20, 20, 20), 400, rng=1)
    result = benchmark(label_grid, mask)
    assert result.unsafe_mask.sum() >= 400


def test_kernel_oracle_flood_3d(benchmark):
    mask = random_fault_mask((20, 20, 20), 400, rng=2)
    seeds = np.zeros((20, 20, 20), dtype=bool)
    seeds[0, 0, 0] = True
    out = benchmark(monotone_flood, ~mask, seeds)
    assert out[0, 0, 0]


def test_kernel_reverse_reachable_3d(benchmark):
    mask = random_fault_mask((20, 20, 20), 400, rng=3)
    out = benchmark(reverse_reachable, ~mask, (19, 19, 19))
    assert out[19, 19, 19]


def flood_batch_case(batch: int):
    """The 16³ mesh with 205 faults, and ``batch`` healthy destinations.

    B=1 is a single-destination flood; B=64 is the batched service's
    cold flood of one destination chunk.
    """
    mask = random_fault_mask((16, 16, 16), 205, rng=6)
    healthy = np.argwhere(~mask)
    picks = np.random.default_rng(6).choice(len(healthy), batch, replace=False)
    return ~mask, [tuple(int(c) for c in healthy[i]) for i in picks]


def flood_mixed_case():
    """The serve tick's flood: 4 destinations in 4 direction classes.

    The B=4 case's destinations, each mapped into its own class and
    flooding through that class's canonical open mask, as one routing
    batch's cross-class chunk does.
    """
    open_mask, dests = flood_batch_case(4)
    frames = [
        Orientation(signs, open_mask.shape)
        for signs in ((1, 1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, -1))
    ]
    opens = [frame.to_canonical(open_mask) for frame in frames]
    return opens, [frame.map_coord(d) for frame, d in zip(frames, dests, strict=True)]


def test_kernel_reverse_reachable_many_16_b1(benchmark):
    open_mask, dests = flood_batch_case(1)
    out = benchmark(reverse_reachable_many, open_mask, dests)
    assert out[(0, *dests[0])]


def test_kernel_reverse_reachable_many_16_mix4(benchmark):
    opens, dests = flood_mixed_case()
    out = benchmark(reverse_reachable_many, opens, dests)
    assert all(out[(b, *dest)] for b, dest in enumerate(dests))


def test_kernel_reverse_reachable_many_16_b64(benchmark):
    open_mask, dests = flood_batch_case(64)
    out = benchmark(reverse_reachable_many, open_mask, dests)
    assert all(out[(b, *dest)] for b, dest in enumerate(dests))


def test_kernel_components_3d(benchmark):
    lab = label_grid(random_fault_mask((20, 20, 20), 400, rng=4))
    mccs = benchmark(extract_mccs, lab)
    assert len(mccs) > 0


def test_kernel_walls_3d(benchmark):
    lab = label_grid(random_fault_mask((12, 12, 12), 80, rng=5))
    mccs = extract_mccs(lab)
    walls = benchmark(build_walls, mccs)
    assert len(walls) == len(mccs) * 3


def dense_wall_mccs():
    """The MCCs of static-sweep's densest shape: 16³ with 410 faults."""
    return extract_mccs(label_grid(random_fault_mask((16, 16, 16), 410, rng=7)))


def test_kernel_walls_3d_16(benchmark):
    mccs = dense_wall_mccs()
    walls = benchmark(build_walls, mccs)
    assert len(walls) == len(mccs) * 3


def batch_decompose_case(count: int):
    """A warm mcc service over the 16³ mesh with 205 faults, ``count`` pairs.

    The service's class models and reach caches already hold every
    pair's class and destination, so one ``feasible_batch`` call is the
    batch decomposition plus the verdicts: B=4 is a serve tick, B=300 a
    static-sweep batch.
    """
    mask = random_fault_mask((16, 16, 16), 205, rng=6)
    rng = np.random.default_rng(6)
    pairs = [sample_safe_pair(~mask, rng=rng, min_distance=2) for _ in range(count)]
    service = RoutingService(mask)
    service.feasible_batch(pairs)
    return service, pairs


def test_kernel_batch_decompose_16_b4(benchmark):
    service, pairs = batch_decompose_case(4)
    out = benchmark(service.feasible_batch, pairs)
    assert out.shape == (4,)


def test_kernel_batch_decompose_16_b300(benchmark):
    service, pairs = batch_decompose_case(300)
    out = benchmark(service.feasible_batch, pairs)
    assert out.shape == (300,)


def route_tick_case():
    """A serve tick's walks: 4 pairs on a warm online 16³ mcc service.

    The mask and pairs of ``batch_decompose_case(4)``.  One
    ``route_batch`` first builds the pairs' class models and fills
    their reach caches, so a timed call is the decomposition, the
    verdicts and the hop-by-hop walks, with no flood.
    """
    mask = random_fault_mask((16, 16, 16), 205, rng=6)
    rng = np.random.default_rng(6)
    pairs = [sample_safe_pair(~mask, rng=rng, min_distance=2) for _ in range(4)]
    service = OnlineRoutingService(mask)
    service.route_batch(pairs)
    return service, pairs


def test_kernel_route_tick_16_b4(benchmark):
    service, pairs = route_tick_case()
    out = benchmark(service.route_batch, pairs)
    assert all(r.delivered for r in out)


def fault_event_case():
    """A serve fault event: one 2-cell inject and its repair.

    The mask of ``route_tick_case`` on a warm online 16³ mcc service
    with all 8 direction classes built, their reach caches filled once
    by a 64-pair batch.  A timed call injects two healthy cells and repairs
    them, so every call starts from the same labels: the relabel and
    scoped-eviction cost of two serve-churn events.
    """
    mask = random_fault_mask((16, 16, 16), 205, rng=6)
    rng = np.random.default_rng(6)
    pairs = [sample_safe_pair(~mask, rng=rng, min_distance=2) for _ in range(64)]
    service = OnlineRoutingService(mask)
    service.route_batch(pairs)
    for signs in itertools.product((1, -1), repeat=3):
        service.router._model_for(Orientation(signs, mask.shape))
    healthy = np.argwhere(~mask)
    picks = rng.choice(len(healthy), 2, replace=False)
    cells = [tuple(int(c) for c in healthy[i]) for i in picks]

    def event():
        service.inject(cells)
        service.repair(cells)

    return service, event


def test_kernel_fault_event_16(benchmark):
    service, event = fault_event_case()
    epoch = service.epoch
    benchmark(event)
    assert service.epoch > epoch and len(service.model._classes) == 8


class _Forwarder(NodeProcess):
    """Sends each message it receives one hop back, until its count ends."""

    def on_message(self, msg):
        left = msg.payload["left"]
        if left:
            self.send(msg.src, "FWD", {"left": left - 1})


#: Hops each ``des_forward_10`` message makes after its first send.
FORWARD_HOPS = 9


def des_forward_case():
    """The DES framework's per-message cost: one-hop forwarding on 10³.

    A fault-free 10³ ``MeshNetwork`` of :class:`_Forwarder` nodes.  A
    timed call has every node send one message to its first neighbor
    and runs to quiescence: 1,000 messages bounce ``FORWARD_HOPS`` more
    times each, so every message is one send (``NodeProcess.send``,
    ``MeshNetwork.transmit``, the per-kind count and the queue push),
    one event of the loop and one delivery to a handler that sends the
    next.
    """
    net = MeshNetwork(Mesh3D(10), np.zeros((10, 10, 10), dtype=bool), _Forwarder)
    starts = [(node, node.neighbors()[0]) for node in net.nodes.values()]

    def run():
        for node, first in starts:
            node.send(first, "FWD", {"left": FORWARD_HOPS})
        net.run_to_quiescence()

    return net, run


def test_kernel_des_forward_10(benchmark):
    net, run = des_forward_case()
    benchmark(run)
    assert net.stats.by_kind()["FWD"] % MESSAGES_PER_CALL["des_forward_10"] == 0


#: Cases that time one call over a batch of pairs: name -> batch size.
PAIRS_PER_CALL = {
    "batch_decompose_16_b4": 4,
    "batch_decompose_16_b300": 300,
    "route_tick_16_b4": 4,
}

#: Cases that time one call over many DES messages: name -> messages.
MESSAGES_PER_CALL = {"des_forward_10": 1000 * (FORWARD_HOPS + 1)}


def build_cases() -> dict:
    """Name -> zero-arg callable, mirroring the pytest cases above."""
    mask_2d = random_fault_mask((64, 64), 200, rng=1)
    mask_3d = random_fault_mask((20, 20, 20), 400, rng=1)
    flood_mask = random_fault_mask((20, 20, 20), 400, rng=2)
    seeds = np.zeros((20, 20, 20), dtype=bool)
    seeds[0, 0, 0] = True
    rev_mask = random_fault_mask((20, 20, 20), 400, rng=3)
    open_b1, dests_b1 = flood_batch_case(1)
    opens_mixed, dests_mixed = flood_mixed_case()
    open_b64, dests_b64 = flood_batch_case(64)
    comp_lab = label_grid(random_fault_mask((20, 20, 20), 400, rng=4))
    wall_mccs = extract_mccs(label_grid(random_fault_mask((12, 12, 12), 80, rng=5)))
    dense_mccs = dense_wall_mccs()
    service_b4, pairs_b4 = batch_decompose_case(4)
    service_b300, pairs_b300 = batch_decompose_case(300)
    tick_service, tick_pairs = route_tick_case()
    _, fault_event = fault_event_case()
    _, des_forward = des_forward_case()
    return {
        "labelling_2d_64": lambda: label_grid(mask_2d),
        "labelling_3d_20": lambda: label_grid(mask_3d),
        "oracle_flood_3d": lambda: monotone_flood(~flood_mask, seeds),
        "reverse_reachable_3d": lambda: reverse_reachable(~rev_mask, (19, 19, 19)),
        "reverse_reachable_many_16_b1": lambda: reverse_reachable_many(
            open_b1, dests_b1
        ),
        "reverse_reachable_many_16_mix4": lambda: reverse_reachable_many(
            opens_mixed, dests_mixed
        ),
        "reverse_reachable_many_16_b64": lambda: reverse_reachable_many(
            open_b64, dests_b64
        ),
        "components_3d": lambda: extract_mccs(comp_lab),
        "walls_3d": lambda: build_walls(wall_mccs),
        "walls_3d_16": lambda: build_walls(dense_mccs),
        "batch_decompose_16_b4": lambda: service_b4.feasible_batch(pairs_b4),
        "batch_decompose_16_b300": lambda: service_b300.feasible_batch(pairs_b300),
        "route_tick_16_b4": lambda: tick_service.route_batch(tick_pairs),
        "fault_event_16": fault_event,
        "des_forward_10": des_forward,
    }


#: Shortest span one timing sample covers.  A faster case runs back to
#: back within a sample, so a call of tens of microseconds is not read
#: against one clock tick and one scheduler hiccup.
SAMPLE_S = 0.02


def time_case(fn, repeats: int) -> dict:
    """Best/median wall seconds per call over ``repeats`` samples.

    Each sample times ``calls`` back-to-back calls, with ``calls`` set
    so that the timed warm-up call, repeated, spans :data:`SAMPLE_S`.
    """
    fn()  # first touch: plan builds, allocations
    t0 = time.perf_counter()
    fn()
    calls = max(1, math.ceil(SAMPLE_S / (time.perf_counter() - t0)))
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - t0) / calls)
    samples.sort()
    return {
        "best_s": samples[0],
        "median_s": samples[len(samples) // 2],
        "calls": calls,
        "repeats": repeats,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--out-dir",
        default="bench_artifacts",
        help="directory for the BENCH_kernels.json summary",
    )
    args = parser.parse_args()
    kernels = {}
    for name, fn in build_cases().items():
        kernels[name] = timed = time_case(fn, args.repeats)
        line = (
            f"{name:30s}  best {timed['best_s'] * 1e3:8.3f} ms   "
            f"median {timed['median_s'] * 1e3:8.3f} ms   x{timed['calls']}"
        )
        if name in PAIRS_PER_CALL:
            timed["best_s_per_pair"] = timed["best_s"] / PAIRS_PER_CALL[name]
            line += f"   best {timed['best_s_per_pair'] * 1e6:6.2f} us/pair"
        if name in MESSAGES_PER_CALL:
            timed["best_s_per_msg"] = timed["best_s"] / MESSAGES_PER_CALL[name]
            line += f"   best {timed['best_s_per_msg'] * 1e6:6.2f} us/msg"
        print(line)
    os.makedirs(args.out_dir, exist_ok=True)
    out = os.path.join(args.out_dir, "BENCH_kernels.json")
    with open(out, "w") as fh:
        json.dump({"kernels": kernels}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"summary: {out}")


if __name__ == "__main__":
    main()
