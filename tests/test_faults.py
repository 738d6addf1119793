"""Unit tests for the fault-pattern and pair generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import workloads
from repro.experiments.workloads import (
    clustered_fault_mask,
    random_fault_mask,
    sample_safe_pair,
)
from repro.mesh.coords import manhattan


class TestGenerators:
    def test_random_exact_count(self, rng):
        mask = random_fault_mask((8, 8), 10, rng=rng)
        assert mask.sum() == 10

    def test_random_too_many_rejected(self, rng):
        with pytest.raises(ValueError):
            random_fault_mask((2, 2), 5, rng=rng)

    @pytest.mark.parametrize("generate", [random_fault_mask, clustered_fault_mask])
    @pytest.mark.parametrize(
        "shape, count",
        [((4, 4), -3), ((0, 4), 0), ((3, 3), 20)],
        ids=["negative-count", "empty-axis", "above-size"],
    )
    def test_impossible_request_rejected_up_front(self, generate, shape, count):
        with pytest.raises(ValueError):
            generate(shape, count, rng=0)

    def test_clustered_exact_count(self, rng):
        mask = clustered_fault_mask((10, 10), 12, clusters=2, rng=rng)
        assert mask.sum() == 12

    def test_clustered_is_more_concentrated(self, rng):
        # Mean pairwise distance of clustered faults < uniform faults.
        def mean_dist(mask):
            cells = np.argwhere(mask)
            diffs = np.abs(cells[:, None, :] - cells[None, :, :]).sum(-1)
            return diffs.mean()

        uniform = np.mean([
            mean_dist(random_fault_mask((16, 16), 20, rng=rng)) for _ in range(5)
        ])
        clustered = np.mean([
            mean_dist(clustered_fault_mask((16, 16), 20, clusters=1, rng=rng))
            for _ in range(5)
        ])
        assert clustered < uniform

    def test_sample_safe_pair_properties(self, rng):
        safe = np.ones((6, 6), dtype=bool)
        safe[2, 2] = False
        for _ in range(20):
            pair = sample_safe_pair(safe, rng=rng, min_distance=3)
            assert pair is not None
            a, b = pair
            assert safe[a] and safe[b]
            assert sum(abs(x - y) for x, y in zip(a, b, strict=True)) >= 3

    def test_sample_safe_pair_degenerate(self, rng):
        assert sample_safe_pair(np.zeros((3, 3), dtype=bool), rng=rng) is None


def _argwhere_pair(safe_mask, rng, min_distance, max_tries):
    """The per-call form: ``np.argwhere`` over the whole mask every draw."""
    cells = np.argwhere(safe_mask)
    if cells.shape[0] < 2:
        return None
    for _ in range(max_tries):
        i, j = rng.integers(0, cells.shape[0], size=2)
        a = tuple(int(c) for c in cells[i])
        b = tuple(int(c) for c in cells[j])
        if manhattan(a, b) >= min_distance:
            return a, b
    return None


class TestCellTable:
    """``sample_safe_pair`` reads its cells from a per-mask table."""

    @given(
        shape=st.lists(st.integers(1, 5), min_size=1, max_size=4).map(tuple),
        mask_seed=st.integers(0, 2**32 - 1),
        density=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
        draw_seed=st.integers(0, 2**32 - 1),
        draws=st.lists(
            st.tuples(st.integers(0, 12), st.integers(1, 20)), min_size=1, max_size=8
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_draws_match_per_call_argwhere(
        self, shape, mask_seed, density, draw_seed, draws
    ):
        # Same pairs, same None answers, and the same generator state
        # after every draw: the table keeps argwhere's cell order and
        # the draw makes the same ``rng.integers`` calls.  Each draw
        # gets a fresh copy of the mask, as callers passing ``~mask``
        # do.
        safe = np.random.default_rng(mask_seed).random(shape) < density
        got_rng = np.random.default_rng(draw_seed)
        want_rng = np.random.default_rng(draw_seed)
        for min_distance, max_tries in draws:
            got = sample_safe_pair(
                safe.copy(), rng=got_rng, min_distance=min_distance, max_tries=max_tries
            )
            want = _argwhere_pair(safe, want_rng, min_distance, max_tries)
            assert got == want
            assert all(type(v) is int for cell in got or () for v in cell)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_table_is_read_only_shared_and_keyed_by_shape(self):
        flat = np.array([True, False, True, True, False, True])
        table = workloads._cell_table(flat.reshape(2, 3))
        assert not table.flags.writeable
        assert workloads._cell_table(flat.reshape(2, 3).copy()) is table
        other = workloads._cell_table(flat.reshape(3, 2))
        np.testing.assert_array_equal(other, np.argwhere(flat.reshape(3, 2)))
        with pytest.raises(ValueError):
            table[0, 0] = 1

    def test_table_count_is_bounded(self):
        for k in range(workloads.CELL_TABLE_SIZE + 3):
            mask = np.zeros(8, dtype=bool)
            mask[k % 8] = mask[(k + 3) % 8] = True
            workloads._cell_table(mask)
        assert len(workloads._CELL_TABLES) <= workloads.CELL_TABLE_SIZE

