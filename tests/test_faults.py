"""Unit tests for the fault-pattern and pair generators."""

import numpy as np
import pytest

from repro.experiments.workloads import (
    clustered_fault_mask,
    random_fault_mask,
    sample_safe_pair,
)


class TestGenerators:
    def test_random_exact_count(self, rng):
        mask = random_fault_mask((8, 8), 10, rng=rng)
        assert mask.sum() == 10

    def test_random_respects_protect(self, rng):
        for _ in range(20):
            mask = random_fault_mask((4, 4), 14, rng=rng, protect=((0, 0), (3, 3)))
            assert not mask[0, 0] and not mask[3, 3]

    def test_random_too_many_rejected(self, rng):
        with pytest.raises(ValueError):
            random_fault_mask((2, 2), 5, rng=rng)

    @pytest.mark.parametrize("generate", [random_fault_mask, clustered_fault_mask])
    @pytest.mark.parametrize(
        "shape, count, protect",
        [((4, 4), -3, ()), ((0, 4), 0, ()), ((3, 3), 20, ()), ((3, 3), 9, ((1, 1),))],
        ids=["negative-count", "empty-axis", "above-size", "above-unprotected"],
    )
    def test_impossible_request_rejected_up_front(
        self, generate, shape, count, protect
    ):
        with pytest.raises(ValueError):
            generate(shape, count, rng=0, protect=protect)

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
