"""Property P3: the MCC-guided router is minimal and stuck-free."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.labelling import label_grid
from repro.mesh.coords import manhattan
from repro.mesh.regions import mask_of_cells
from repro.routing.batch import RoutingService
from repro.routing.engine import AdaptiveRouter, explore_all_choices
from repro.routing.policies import (
    DiagonalPolicy,
    FixedOrderPolicy,
    RandomPolicy,
    make_policy,
)
from tests.conftest import oracle_feasible, random_mask


class TestBasics:
    def test_fault_free_routes_minimally(self):
        mask = np.zeros((6, 6, 6), dtype=bool)
        result = AdaptiveRouter(mask).route((0, 0, 0), (5, 5, 5))
        assert result.delivered and result.is_minimal()
        assert result.hops == 15

    def test_path_is_monotone_per_direction_class(self):
        mask = np.zeros((6, 6), dtype=bool)
        result = AdaptiveRouter(mask).route((5, 5), (0, 0))
        assert result.delivered
        assert result.hops == 10

    def test_infeasible_reported(self):
        mask = mask_of_cells([(2, 2, 3)], (6, 6, 6))
        result = AdaptiveRouter(mask).route((2, 2, 0), (2, 2, 5))
        assert not result.delivered and not result.feasible
        assert result.reason == "infeasible"

    def test_unsafe_endpoint_reported(self):
        mask = mask_of_cells([(2, 3), (3, 2)], (6, 6))
        router = AdaptiveRouter(mask, mode="mcc")
        result = router.route((2, 2), (5, 5))  # (2,2) is useless
        assert not result.delivered
        assert result.reason == "endpoint inside fault region"

    def test_faulty_endpoint_fails_cleanly(self):
        # A failed result, not an exception: dynamic-fault DES workloads
        # route to endpoints that died mid-run.
        mask = mask_of_cells([(0, 0)], (4, 4))
        result = AdaptiveRouter(mask).route((0, 0), (3, 3))
        assert not result.delivered and result.feasible is False
        assert result.reason == "endpoint faulty"
        assert result.path == [(0, 0)]

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveRouter(np.zeros((3, 3), dtype=bool), mode="magic")


class TestMinimalityAllModes:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_mcc_routes_whenever_oracle_feasible_2d(self, seed):
        rng = np.random.default_rng(seed)
        mask = random_mask(rng, (8, 8), int(rng.integers(1, 12)))
        router = AdaptiveRouter(mask, mode="mcc", policy=RandomPolicy(seed))
        for _ in range(8):
            s = tuple(int(v) for v in rng.integers(0, 8, 2))
            d = tuple(int(v) for v in rng.integers(0, 8, 2))
            if mask[s] or mask[d]:
                continue
            from repro.mesh.orientation import Orientation

            o = Orientation.for_pair(s, d, (8, 8))
            lab_o = label_grid(mask, o)
            if lab_o.unsafe_mask[o.map_coord(s)] or lab_o.unsafe_mask[o.map_coord(d)]:
                continue
            want = oracle_feasible(mask, s, d)
            result = router.route(s, d)
            assert result.delivered == want, (s, d)
            if want:
                assert result.hops == manhattan(s, d)
                assert result.path[0] == s and result.path[-1] == d

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=12, deadline=None)
    def test_mcc_routes_whenever_oracle_feasible_3d(self, seed):
        rng = np.random.default_rng(seed)
        mask = random_mask(rng, (5, 5, 5), int(rng.integers(1, 14)))
        router = AdaptiveRouter(mask, mode="mcc", policy=DiagonalPolicy())
        for _ in range(6):
            s = tuple(int(v) for v in rng.integers(0, 5, 3))
            d = tuple(int(v) for v in rng.integers(0, 5, 3))
            if mask[s] or mask[d]:
                continue
            from repro.mesh.orientation import Orientation

            o = Orientation.for_pair(s, d, (5, 5, 5))
            lab_o = label_grid(mask, o)
            if lab_o.unsafe_mask[o.map_coord(s)] or lab_o.unsafe_mask[o.map_coord(d)]:
                continue
            want = oracle_feasible(mask, s, d)
            result = router.route(s, d)
            assert result.delivered == want
            if want:
                assert result.is_minimal()

    @pytest.mark.parametrize(
        "shape,faults", [((7, 7), 8), ((5, 5, 5), 20)], ids=["2d", "3d"]
    )
    def test_oracle_mode_reference(self, rng, shape, faults):
        mask = random_mask(rng, shape, faults)
        router = AdaptiveRouter(mask, mode="oracle")
        pairs = []
        for _ in range(40):
            s = tuple(int(v) for v in rng.integers(0, shape[0], len(shape)))
            d = tuple(int(v) for v in rng.integers(0, shape[0], len(shape)))
            if not (mask[s] or mask[d]):
                pairs.append((s, d))
        want = [oracle_feasible(mask, s, d) for s, d in pairs]
        assert any(want) and not all(want)
        for (s, d), ok in zip(pairs, want, strict=True):
            result = router.route(s, d)
            assert result.delivered == ok
            if result.delivered:
                assert result.hops == manhattan(s, d)
        # The batched service scores oracle mode through the same model.
        service = RoutingService(mask, mode="oracle")
        assert service.feasible_batch(pairs).tolist() == want
        assert [r.delivered for r in service.route_batch(pairs)] == want

    def test_blind_mode_can_fail_where_mcc_succeeds(self):
        # Dead-end pocket along the bottom row: x-first blind routing
        # walks in and gets cornered; the MCC labels steer around it.
        mask = mask_of_cells([(4, 0), (4, 1), (3, 2), (2, 2)], (8, 8))
        blind = AdaptiveRouter(mask, mode="blind", policy=FixedOrderPolicy((0, 1)))
        mcc = AdaptiveRouter(mask, mode="mcc", policy=FixedOrderPolicy((0, 1)))
        d = (7, 7)
        blind_result = blind.route((0, 0), d)
        mcc_result = mcc.route((0, 0), d)
        assert mcc_result.delivered and mcc_result.is_minimal()
        assert not blind_result.delivered
        assert blind_result.stuck_at is not None


class TestAdversarialStuckFreedom:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_every_adaptive_choice_delivers_2d(self, seed):
        """Algorithm 3 step 2(c): ANY fully adaptive selection works."""
        rng = np.random.default_rng(seed)
        mask = random_mask(rng, (7, 7), int(rng.integers(1, 10)))
        router = AdaptiveRouter(mask, mode="mcc")
        lab = label_grid(mask)
        safe = np.argwhere(lab.safe_mask)
        for _ in range(6):
            i, j = rng.integers(0, safe.shape[0], 2)
            s = tuple(int(c) for c in np.minimum(safe[i], safe[j]))
            d = tuple(int(c) for c in np.maximum(safe[i], safe[j]))
            if not (lab.safe_mask[s] and lab.safe_mask[d]):
                continue
            if not oracle_feasible(mask, s, d):
                continue
            ok, explored = explore_all_choices(router, s, d)
            assert ok, (s, d, np.argwhere(mask).tolist())

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=12, deadline=None)
    def test_every_adaptive_choice_delivers_3d(self, seed):
        rng = np.random.default_rng(seed)
        mask = random_mask(rng, (5, 5, 5), int(rng.integers(1, 12)))
        router = AdaptiveRouter(mask, mode="mcc")
        lab = label_grid(mask)
        safe = np.argwhere(lab.safe_mask)
        for _ in range(5):
            i, j = rng.integers(0, safe.shape[0], 2)
            s = tuple(int(c) for c in np.minimum(safe[i], safe[j]))
            d = tuple(int(c) for c in np.maximum(safe[i], safe[j]))
            if not (lab.safe_mask[s] and lab.safe_mask[d]):
                continue
            if not oracle_feasible(mask, s, d):
                continue
            ok, _ = explore_all_choices(router, s, d)
            assert ok


class TestPolicies:
    def test_fixed_order(self):
        policy = FixedOrderPolicy((2, 1, 0))
        assert policy.choose([0, 2], (0, 0, 0), (5, 5, 5)) == 2

    def test_fixed_order_fallback(self):
        policy = FixedOrderPolicy((0, 1))
        assert policy.choose([3], (0,) * 4, (5,) * 4) == 3

    def test_diagonal_picks_largest_remaining(self):
        policy = DiagonalPolicy()
        assert policy.choose([0, 1], (0, 0), (2, 7)) == 1

    def test_random_policy_deterministic_with_seed(self):
        a = RandomPolicy(42)
        b = RandomPolicy(42)
        picks_a = [a.choose([0, 1, 2], (0, 0, 0), (5, 5, 5)) for _ in range(20)]
        picks_b = [b.choose([0, 1, 2], (0, 0, 0), (5, 5, 5)) for _ in range(20)]
        assert picks_a == picks_b

    def test_factory(self):
        assert isinstance(make_policy("fixed"), FixedOrderPolicy)
        assert isinstance(make_policy("random", 1), RandomPolicy)
        assert isinstance(make_policy("diagonal"), DiagonalPolicy)
        with pytest.raises(ValueError):
            make_policy("nope")
