"""Property P3: the MCC-guided router is minimal and stuck-free.

The per-pair searches below, :func:`explore_all_choices` and
:func:`candidate_sets_match`, are the references for T5's
``router_complete`` and ``exclusion_exact`` array predicates
(``repro.experiments.exp_fidelity._choice_verdicts``).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.labelling import label_grid
from repro.experiments.exp_fidelity import _choice_verdicts
from repro.mesh.coords import manhattan
from repro.mesh.orientation import Orientation
from repro.mesh.regions import mask_of_cells
from repro.routing.batch import RoutingService
from repro.routing.oracle import reverse_reachable
from repro.routing.policies import (
    DiagonalPolicy,
    FixedOrderPolicy,
    RandomPolicy,
    make_policy,
)
from tests.conftest import oracle_feasible, random_mask, reference_candidates


def explore_all_choices(router, source, dest) -> tuple[bool, int]:
    """Adversarial exploration: follow *every* candidate at every node.

    Returns (all_executions_deliver, number_of_distinct_nodes_explored).
    Under the MCC model, any adaptive choice sequence must end at the
    destination when the feasibility check passed.
    """
    source = tuple(int(c) for c in source)
    dest = tuple(int(c) for c in dest)
    orientation = Orientation.for_pair(source, dest, router.fault_mask.shape)
    s = orientation.map_coord(source)
    d = orientation.map_coord(dest)
    model = router._model_for(orientation)
    seen = {s}
    ok = True
    stack = [s]
    while stack:
        pos = stack.pop()
        if pos == d:
            continue
        candidates = reference_candidates(router, model, pos, d)
        if not candidates:
            ok = False
            continue
        for axis in candidates:
            nxt = list(pos)
            nxt[axis] += 1
            nxt = tuple(nxt)
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return ok, len(seen)


def candidate_sets_match(router, source, dest) -> bool:
    """MCC candidate sets == oracle candidate sets on reachable cells.

    The oracle's candidates at a cell are its in-box +1 neighbours from
    which ``dest`` is reachable through non-faulty cells.
    """
    source = tuple(int(c) for c in source)
    dest = tuple(int(c) for c in dest)
    orientation = Orientation.for_pair(source, dest, router.fault_mask.shape)
    s = orientation.map_coord(source)
    d = orientation.map_coord(dest)
    model = router._model_for(orientation)
    blocked = ~reverse_reachable(orientation.to_canonical(~router.fault_mask), d)
    stack, seen = [s], {s}
    while stack:
        pos = stack.pop()
        if pos == d:
            continue
        mcc_cands = set(reference_candidates(router, model, pos, d))
        oracle_cands = set()
        for axis in range(len(pos)):
            if pos[axis] >= d[axis]:
                continue
            nxt = list(pos)
            nxt[axis] += 1
            if not blocked[tuple(nxt)]:
                oracle_cands.add(axis)
        if mcc_cands != oracle_cands:
            return False
        for axis in sorted(mcc_cands):
            nxt = list(pos)
            nxt[axis] += 1
            nxt = tuple(nxt)
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return True


class TestBasics:
    def test_fault_free_routes_minimally(self):
        mask = np.zeros((6, 6, 6), dtype=bool)
        result = RoutingService(mask).route((0, 0, 0), (5, 5, 5))
        assert result.delivered and result.is_minimal()
        assert result.hops == 15

    def test_path_is_monotone_per_direction_class(self):
        mask = np.zeros((6, 6), dtype=bool)
        result = RoutingService(mask).route((5, 5), (0, 0))
        assert result.delivered
        assert result.hops == 10

    def test_infeasible_reported(self):
        mask = mask_of_cells([(2, 2, 3)], (6, 6, 6))
        result = RoutingService(mask).route((2, 2, 0), (2, 2, 5))
        assert not result.delivered and not result.feasible
        assert result.reason == "infeasible"

    def test_unsafe_endpoint_reported(self):
        mask = mask_of_cells([(2, 3), (3, 2)], (6, 6))
        router = RoutingService(mask, mode="mcc")
        result = router.route((2, 2), (5, 5))  # (2,2) is useless
        assert not result.delivered
        assert result.reason == "endpoint inside fault region"

    def test_faulty_endpoint_fails_cleanly(self):
        # A failed result, not an exception: dynamic-fault DES workloads
        # route to endpoints that died mid-run.
        mask = mask_of_cells([(0, 0)], (4, 4))
        result = RoutingService(mask).route((0, 0), (3, 3))
        assert not result.delivered and result.feasible is False
        assert result.reason == "endpoint faulty"
        assert result.path == [(0, 0)]

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            RoutingService(np.zeros((3, 3), dtype=bool), mode="magic")


class TestMinimalityAllModes:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_mcc_routes_whenever_oracle_feasible_2d(self, seed):
        rng = np.random.default_rng(seed)
        mask = random_mask(rng, (8, 8), int(rng.integers(1, 12)))
        router = RoutingService(mask, mode="mcc", policy=RandomPolicy(seed))
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
        router = RoutingService(mask, mode="mcc", policy=DiagonalPolicy())
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
        router = RoutingService(mask, mode="oracle")
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
        blind = RoutingService(mask, mode="blind", policy=FixedOrderPolicy((0, 1)))
        mcc = RoutingService(mask, mode="mcc", policy=FixedOrderPolicy((0, 1)))
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
        router = RoutingService(mask, mode="mcc")
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
        router = RoutingService(mask, mode="mcc")
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



def class_safe_pairs(mask: np.ndarray, mode: str = "mcc") -> list:
    """Every (source, dest) pair whose endpoints ``mode`` calls safe."""
    router = RoutingService(mask, mode=mode)
    cells = [tuple(c) for c in np.argwhere(~mask).tolist()]
    pairs = []
    for s in cells:
        for d in cells:
            o = Orientation.for_pair(s, d, mask.shape)
            unsafe = router._model_for(o).unsafe
            if not (unsafe[o.map_coord(s)] or unsafe[o.map_coord(d)]):
                pairs.append((s, d))
    return pairs


class TestFidelityPredicates:
    """T5's array predicates equal the per-pair searches they replaced.

    T5 passes an mcc service; the rfb model over-blocks, so its
    predicates also exercise pairs the model strands or over-excludes.
    """

    @staticmethod
    def assert_match(mask, pairs, mode="mcc"):
        model = RoutingService(mask, mode=mode)
        oracle = RoutingService(mask, mode="oracle")
        router = RoutingService(mask, mode=mode)
        complete, exact = _choice_verdicts(model, oracle, pairs)
        assert complete.shape == exact.shape == (len(pairs),)
        for (s, d), c, e in zip(pairs, complete.tolist(), exact.tolist(), strict=True):
            assert c == explore_all_choices(router, s, d)[0], (s, d)
            assert e == candidate_sets_match(router, s, d), (s, d)

    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.integers(1, 6), min_size=1, max_size=3).filter(
            lambda shape: math.prod(shape) <= 40
        ),
        st.sampled_from(["mcc", "rfb"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_per_pair_searches(self, seed, shape, mode):
        # Every class-safe pair, feasible or not: size-1 axes and shared
        # coordinates give zero-offset axes, and faults cut some pairs.
        rng = np.random.default_rng(seed)
        shape = tuple(shape)
        mask = random_mask(rng, shape, int(rng.integers(0, math.prod(shape) // 3 + 1)))
        self.assert_match(mask, class_safe_pairs(mask, mode), mode)

    def test_rfb_over_blocking_is_scored(self):
        # RFB closes the block [1, 3]² around three diagonal faults, so
        # at (0, 2) the oracle offers +X into the block and RFB does
        # not: pairs through there fail exclusion_exact, and block cells
        # reachable only by the oracle's choices stay unvisited.
        mask = mask_of_cells([(1, 1), (2, 2), (3, 3)], (6, 6))
        pairs = class_safe_pairs(mask, "rfb")
        self.assert_match(mask, pairs, "rfb")
        complete, exact = _choice_verdicts(
            RoutingService(mask, mode="rfb"),
            RoutingService(mask, mode="oracle"),
            pairs,
        )
        assert not exact[pairs.index(((0, 0), (5, 5)))]
        assert complete[pairs.index(((0, 0), (5, 5)))]

    def test_group_wider_than_a_word(self):
        # 80 sources share the destination (8, 8): one (class,
        # destination) group spans two kernel words.
        mask = mask_of_cells([(2, 5), (3, 4), (4, 3), (6, 7), (7, 1)], (9, 9))
        for mode in ("mcc", "rfb"):
            pairs = [(s, d) for s, d in class_safe_pairs(mask, mode) if d == (8, 8)]
            assert len(pairs) > 64
            self.assert_match(mask, pairs, mode)

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
