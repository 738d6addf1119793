"""Tests for the monotone-reachability oracle (vs references)."""

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing.oracle import (
    PLAN_CACHE_SIZE,
    _level_plan,
    forward_reachable,
    minimal_path_exists,
    monotone_flood,
    monotone_flood_many,
    reverse_reachable,
    reverse_reachable_many,
)
from tests.conftest import random_mask


def monotone_flood_reference(
    open_mask: np.ndarray, seed_mask: np.ndarray, step: int = 1
) -> np.ndarray:
    """Scalar BFS reference for ``monotone_flood``.

    ``step=-1`` moves backwards instead: the open cells that reach a
    seed, the reference for ``reverse_reachable``.
    """
    open_mask = np.asarray(open_mask, dtype=bool)
    out = np.zeros_like(open_mask, dtype=bool)
    frontier = [tuple(c) for c in np.argwhere(seed_mask & open_mask)]
    for c in frontier:
        out[c] = True
    while frontier:
        nxt = []
        for c in frontier:
            for axis in range(open_mask.ndim):
                n = list(c)
                n[axis] += step
                if 0 <= n[axis] < open_mask.shape[axis]:
                    n = tuple(n)
                    if open_mask[n] and not out[n]:
                        out[n] = True
                        nxt.append(n)
        frontier = nxt
    return out


#: 1-D to 4-D shapes, including size-1 axes.
FLOOD_SHAPES = [
    (9,), (1,), (7, 7), (1, 6), (4, 4, 4), (5, 1, 3), (3, 2, 3, 2), (1, 1, 1, 1),
]


def nx_monotone_feasible(open_mask: np.ndarray, s, d) -> bool:
    """Third-party reference: DAG reachability via networkx."""
    g = nx.DiGraph()
    for cell in np.ndindex(open_mask.shape):
        if not open_mask[cell]:
            continue
        for axis in range(open_mask.ndim):
            nxt = list(cell)
            nxt[axis] += 1
            if nxt[axis] < open_mask.shape[axis] and open_mask[tuple(nxt)]:
                g.add_edge(cell, tuple(nxt))
    if s == d:
        return bool(open_mask[s])
    return g.has_node(s) and g.has_node(d) and nx.has_path(g, s, d)


class TestFloodCorrectness:
    @pytest.mark.parametrize(
        "shape", FLOOD_SHAPES, ids=lambda s: "x".join(map(str, s))
    )
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["random", "open", "blocked"]))
    @settings(max_examples=25, deadline=None)
    def test_matches_scalar_reference(self, shape, seed, fill):
        rng = np.random.default_rng(seed)
        size = math.prod(shape)
        blocked = {"open": 0, "blocked": size, "random": int(rng.integers(0, size + 1))}
        open_mask = ~random_mask(rng, shape, blocked[fill])
        # Entry 0 has no seeds; the others have one and three.
        seeds = np.stack([random_mask(rng, shape, count) for count in (0, 1, 3)])
        batched = monotone_flood_many(open_mask, seeds)
        for entry, seed_mask in zip(batched, seeds, strict=True):
            want = monotone_flood_reference(open_mask, seed_mask)
            assert np.array_equal(entry, want)
            assert np.array_equal(monotone_flood(open_mask, seed_mask), want)
        # Reverse floods are forward floods on the flipped mask.
        dests = [tuple(int(rng.integers(0, k)) for k in shape) for _ in range(3)]
        flipped = np.flip(open_mask)
        rows = reverse_reachable_many(open_mask, dests)
        for dest, row in zip(dests, rows, strict=True):
            seed_mask = np.zeros(shape, dtype=bool)
            seed_mask[tuple(k - 1 - c for c, k in zip(dest, shape, strict=True))] = True
            want = monotone_flood_reference(flipped, seed_mask)
            assert np.array_equal(np.flip(row), want)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_feasibility_matches_networkx(self, seed):
        rng = np.random.default_rng(seed)
        open_mask = ~random_mask(rng, (5, 5), int(rng.integers(0, 10)))
        s = (0, 0)
        d = tuple(int(v) for v in rng.integers(0, 5, 2))
        if not (open_mask[s] and open_mask[d]):
            return
        assert minimal_path_exists(open_mask, s, d) == nx_monotone_feasible(
            open_mask, s, d
        )

    @given(
        shape=st.sampled_from(FLOOD_SHAPES),
        batch=st.sampled_from([0, 1, 63, 64, 65, 130]),
        per_entry=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_bit_packed_batches_match_per_cell_reference(
        self, shape, batch, per_entry, seed
    ):
        # Widths around the 64-bit word edge; per-entry open masks mix
        # shared objects and a strided view, as cross-class batches do.
        rng = np.random.default_rng(seed)
        size = math.prod(shape)
        masks = [
            ~random_mask(rng, shape, int(rng.integers(0, size + 1))) for _ in range(3)
        ]
        masks.append(np.flip(masks[0]))
        opens = [masks[k] for k in rng.integers(0, len(masks), batch)]
        if not per_entry:
            opens = [masks[0]] * batch
        open_arg = opens if per_entry else masks[0]
        # Entries seed 0 to 3 cells, closed ones included.
        seeds = np.zeros((batch, *shape), dtype=bool)
        for entry in seeds:
            entry |= random_mask(rng, shape, int(rng.integers(0, 4)))
        if per_entry and batch == 0:
            # An empty per-entry list names no mesh shape to flood.
            with pytest.raises(ValueError, match="no mesh shape"):
                monotone_flood_many([], seeds)
            with pytest.raises(ValueError, match="no mesh shape"):
                reverse_reachable_many([], [])
            return
        flooded = monotone_flood_many(open_arg, seeds)
        assert flooded.shape == seeds.shape
        for got, open_mask, seed_mask in zip(flooded, opens, seeds, strict=True):
            assert np.array_equal(got, monotone_flood_reference(open_mask, seed_mask))
        dests = [tuple(int(rng.integers(0, k)) for k in shape) for _ in range(batch)]
        reach = reverse_reachable_many(open_arg, dests)
        assert reach.shape == seeds.shape
        for got, open_mask, dest in zip(reach, opens, dests, strict=True):
            seed_mask = np.zeros(shape, dtype=bool)
            seed_mask[dest] = True
            want = monotone_flood_reference(open_mask, seed_mask, step=-1)
            assert np.array_equal(got, want)

    def test_1d(self):
        open_mask = np.array([True, True, False, True])
        reach = forward_reachable(open_mask, (0,))
        assert reach.tolist() == [True, True, False, False]


class TestSemantics:
    def test_blocked_seed(self):
        open_mask = np.ones((3, 3), dtype=bool)
        open_mask[0, 0] = False
        assert not forward_reachable(open_mask, (0, 0)).any()

    def test_requires_canonical_frame(self):
        with pytest.raises(ValueError):
            minimal_path_exists(np.ones((3, 3), dtype=bool), (2, 2), (0, 0))

    def test_trivial_same_node(self):
        assert minimal_path_exists(np.ones((3, 3), dtype=bool), (1, 1), (1, 1))

    def test_wall_blocks(self):
        open_mask = np.ones((5, 5), dtype=bool)
        open_mask[:, 2] = False  # full horizontal wall
        assert not minimal_path_exists(open_mask, (0, 0), (4, 4))

    def test_gap_in_wall_passes(self):
        open_mask = np.ones((5, 5), dtype=bool)
        open_mask[:, 2] = False
        open_mask[3, 2] = True
        assert minimal_path_exists(open_mask, (0, 0), (4, 4))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_forward_reverse_duality(self, seed):
        rng = np.random.default_rng(seed)
        open_mask = ~random_mask(rng, (6, 6), 8)
        d = (5, 5)
        rev = reverse_reachable(open_mask, d)
        for cell in np.ndindex(open_mask.shape):
            if open_mask[cell] and all(c <= t for c, t in zip(cell, d, strict=True)):
                fwd = forward_reachable(open_mask, cell)
                assert bool(rev[cell]) == bool(fwd[d])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            monotone_flood(np.ones((3, 3), dtype=bool), np.ones((2, 2), dtype=bool))

    @pytest.mark.parametrize(
        "call",
        [
            lambda m: reverse_reachable(m, (4, 0)),
            lambda m: reverse_reachable_many(m, [(0, 0), (4, 0)]),
            lambda m: forward_reachable(m, (-1, 0)),
            lambda m: minimal_path_exists(m, (-1, 0), (3, 3)),
        ],
        ids=["reverse", "reverse_many", "forward", "minimal_path"],
    )
    def test_out_of_range_coordinate_rejected(self, call):
        # Negative or too-large coordinates must not wrap to another cell.
        with pytest.raises(IndexError, match="outside mesh"):
            call(np.ones((4, 4), dtype=bool))

    def test_plan_cache_is_bounded(self):
        _level_plan.cache_clear()
        open_mask = np.ones((6, 6, 6), dtype=bool)
        for lo in range(3):
            for hi in range(3, 6):
                assert minimal_path_exists(open_mask, (lo, 0, lo), (hi, hi, 5))
        # Every RMP box is flooded with the mesh's own plan.
        assert _level_plan.cache_info().currsize == 1
        for k in range(1, PLAN_CACHE_SIZE + 4):
            forward_reachable(np.ones((k, 2), dtype=bool), (0, 0))
        assert _level_plan.cache_info().currsize == PLAN_CACHE_SIZE
