"""Property P1: the MCC is the *ultimate minimal* fault region.

The paper's key claim (Section 3): "no non-faulty node contained in an
MCC will be useful in a minimal routing … If there exists no minimal
routing under the MCC model, there will be absolutely no minimal
routing."  Operationally: excluding unsafe (useless/can't-reach) nodes
never changes monotone reachability between *safe* endpoints.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.rfb import rfb_unsafe
from repro.core.labelling import CANT_REACH, USELESS, label_grid
from repro.routing.oracle import minimal_path_exists
from tests.conftest import random_mask


class TestUnsafeExclusionPreservesReachability:
    def _check_all_pairs(self, mask: np.ndarray) -> None:
        lab = label_grid(mask)
        open_faulty = ~lab.fault_mask
        open_safe = lab.safe_mask
        cells = list(np.argwhere(lab.safe_mask))
        for a in cells:
            for b in cells:
                s, d = tuple(int(x) for x in a), tuple(int(x) for x in b)
                if any(x > y for x, y in zip(s, d, strict=True)):
                    continue
                assert minimal_path_exists(open_faulty, s, d) == (
                    minimal_path_exists(open_safe, s, d)
                ), (s, d, np.argwhere(mask).tolist())

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    @settings(max_examples=25, deadline=None)
    def test_exhaustive_small_2d(self, seed, count):
        rng = np.random.default_rng(seed)
        self._check_all_pairs(random_mask(rng, (5, 5), count))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_exhaustive_small_3d(self, seed):
        rng = np.random.default_rng(seed)
        self._check_all_pairs(random_mask(rng, (3, 3, 3), int(rng.integers(1, 7))))

    def test_monte_carlo_larger_3d(self, rng):
        for _ in range(10):
            mask = random_mask(rng, (8, 8, 8), 30)
            lab = label_grid(mask)
            open_faulty = ~lab.fault_mask
            open_safe = lab.safe_mask
            safe_cells = np.argwhere(lab.safe_mask)
            for _ in range(40):
                i, j = rng.integers(0, safe_cells.shape[0], 2)
                s = tuple(int(c) for c in np.minimum(safe_cells[i], safe_cells[j]))
                d = tuple(int(c) for c in np.maximum(safe_cells[i], safe_cells[j]))
                if not (lab.safe_mask[s] and lab.safe_mask[d]):
                    continue
                assert minimal_path_exists(open_faulty, s, d) == (
                    minimal_path_exists(open_safe, s, d)
                )


class TestUselessNodesAreTrulyUseless:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_no_minimal_path_through_useless(self, seed):
        """Any monotone path entering a useless node dies before a safe d."""
        rng = np.random.default_rng(seed)
        mask = random_mask(rng, (6, 6), int(rng.integers(2, 9)))
        lab = label_grid(mask)
        useless = np.argwhere(lab.status == USELESS)
        for u in useless:
            u = tuple(int(c) for c in u)
            # Every positive in-mesh neighbor of a useless node is
            # faulty or useless — the inductive step of the claim.
            for axis in range(2):
                nxt = list(u)
                nxt[axis] += 1
                if nxt[axis] < 6:
                    assert lab.status[tuple(nxt)] in (1, 2)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_cant_reach_cannot_be_entered(self, seed):
        """A safe node's positive neighbor is never can't-reach."""
        rng = np.random.default_rng(seed)
        mask = random_mask(rng, (6, 6), int(rng.integers(2, 9)))
        lab = label_grid(mask)
        for u in np.argwhere(lab.status == CANT_REACH):
            u = tuple(int(c) for c in u)
            for axis in range(2):
                prv = list(u)
                prv[axis] -= 1
                if prv[axis] >= 0:
                    assert lab.status[tuple(prv)] in (1, 3)


class TestMCCInsideRFB:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_mcc_subset_of_rfb_2d(self, seed):
        """Property P5: the MCC region refines the rectangular blocks."""
        rng = np.random.default_rng(seed)
        mask = random_mask(rng, (8, 8), int(rng.integers(1, 12)))
        mcc = label_grid(mask).unsafe_mask
        rfb = rfb_unsafe(mask)
        assert (mcc <= rfb).all()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_mcc_subset_of_rfb_3d(self, seed):
        rng = np.random.default_rng(seed)
        mask = random_mask(rng, (5, 5, 5), int(rng.integers(1, 12)))
        mcc = label_grid(mask).unsafe_mask
        rfb = rfb_unsafe(mask)
        assert (mcc <= rfb).all()
