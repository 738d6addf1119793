"""Tests for the e-cube and the blind-greedy baseline routers.

The blind-greedy router is ``RoutingService(mask, mode="blind")``: any
distance-reducing hop to a non-faulty neighbor, chosen by the policy,
with no fault-information model.
"""

import numpy as np
import pytest

from repro.baselines.ecube import ecube_path, ecube_succeeds
from repro.mesh.coords import manhattan
from repro.mesh.regions import mask_of_cells
from repro.routing.batch import RoutingService
from tests.test_coords import is_monotone_path


class TestEcube:
    def test_path_is_dimension_order(self):
        path = ecube_path((0, 0, 0), (2, 1, 1))
        assert path[0] == (0, 0, 0) and path[-1] == (2, 1, 1)
        assert path[1] == (1, 0, 0) and path[2] == (2, 0, 0)
        assert len(path) == manhattan((0, 0, 0), (2, 1, 1)) + 1

    def test_handles_negative_directions(self):
        path = ecube_path((3, 3), (1, 0))
        assert path[-1] == (1, 0)
        assert len(path) == 6

    def test_succeeds_iff_path_clear(self):
        mask = mask_of_cells([(1, 0)], (4, 4))
        assert not ecube_succeeds(mask, (0, 0), (3, 0))
        assert ecube_succeeds(mask, (0, 1), (3, 1))

    def test_fault_on_turn_corner(self):
        mask = mask_of_cells([(3, 0)], (4, 4))
        assert not ecube_succeeds(mask, (0, 0), (3, 3))

    def test_no_faults_always_succeeds(self, rng):
        mask = np.zeros((6, 6), dtype=bool)
        for _ in range(10):
            s = tuple(int(v) for v in rng.integers(0, 6, 2))
            d = tuple(int(v) for v in rng.integers(0, 6, 2))
            assert ecube_succeeds(mask, s, d)


def blind_route(mask, source, dest, policy=None):
    """(delivered, path) of the blind service's walk."""
    result = RoutingService(mask, mode="blind", policy=policy).route(source, dest)
    return result.delivered, result.path


class _Chooser:
    def __init__(self, choose):
        self.choose = choose


class TestGreedy:
    def test_delivers_on_clear_mesh(self):
        ok, path = blind_route(np.zeros((5, 5), dtype=bool), (0, 0), (4, 4))
        assert ok
        assert len(path) - 1 == 8
        assert is_monotone_path(path)

    def test_routes_around_single_fault(self):
        mask = mask_of_cells([(1, 0)], (5, 5))
        ok, path = blind_route(mask, (0, 0), (4, 4))
        assert ok and len(path) - 1 == 8

    def test_fails_in_dead_end(self):
        # Both preferred neighbors blocked at (2,2).
        mask = mask_of_cells([(3, 2), (2, 3)], (6, 6))
        ok, path = blind_route(mask, (0, 0), (5, 5))
        # lowest-axis-first walks +X along the bottom row and passes
        # below the trap.
        assert ok
        mask2 = mask_of_cells([(4, 0), (3, 1), (2, 2)], (6, 6))
        ok2, path2 = blind_route(mask2, (0, 0), (5, 5))
        assert not ok2
        assert path2[-1] != (5, 5)

    def test_negative_directions(self):
        ok, path = blind_route(np.zeros((5, 5), dtype=bool), (4, 4), (0, 0))
        assert ok and len(path) - 1 == 8
        assert path[-1] == (0, 0)

    def test_custom_chooser(self):
        calls = []

        def choose(candidates, pos, dest):
            calls.append(tuple(candidates))
            return candidates[-1]

        ok, path = blind_route(
            np.zeros((4, 4), dtype=bool), (0, 0), (3, 3), _Chooser(choose)
        )
        assert ok and calls
        assert path[1] == (0, 1)  # the last candidate axis first

    def test_chooser_must_return_candidate(self):
        with pytest.raises(RuntimeError, match="non-candidate"):
            blind_route(
                np.zeros((4, 4), dtype=bool), (0, 0), (3, 3),
                _Chooser(lambda c, p, d: 99),
            )

    def test_faulty_endpoint_rejected(self):
        mask = mask_of_cells([(0, 0)], (4, 4))
        result = RoutingService(mask, mode="blind").route((0, 0), (3, 3))
        assert not result.delivered and result.reason == "endpoint faulty"
