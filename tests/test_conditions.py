"""Property P2: Theorems 1/2 agree with the oracle, exactly.

The paper's central theoretical claim: the merged-region condition is
*sufficient and necessary* for minimal-path existence.  We verify it
exhaustively on small meshes and by Monte Carlo on larger ones, in both
2-D (Theorem 1) and 3-D (Theorem 2), for all direction classes.
"""

from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.components import extract_mccs
from repro.core.conditions import ConditionEvaluator, minimal_path_exists_lemma1
from repro.core.labelling import label_grid
from repro.core import model_cache
from repro.core.walls import Wall, build_walls
from repro.mesh.regions import mask_of_cells
from tests.conftest import oracle_feasible, random_mask


def lemma1_region_form(
    walls: list[Wall], source: Sequence[int], dest: Sequence[int]
) -> bool:
    """The paper's literal membership form: no wall with s ∈ Q and d ∈ Q'.

    Exact in 2-D (checked against reachability below); in 3-D it is
    necessary but not quite sufficient — *stacked shadows* (one MCC's
    shadow abutting another's along the third axis) can trap a source
    without any single merged wall containing it.  That is why
    :func:`~repro.core.conditions.minimal_path_exists_lemma1` evaluates
    reachability instead.
    """
    return not any(wall.blocks(source, dest) for wall in walls)


def blocking_walls(
    walls: list[Wall], source: Sequence[int], dest: Sequence[int]
) -> list[Wall]:
    """The walls witnessing infeasibility (empty iff a minimal path exists)."""
    return [w for w in walls if w.blocks(source, dest)]


class TestLemma1Exactness2D:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 10))
    @settings(max_examples=40, deadline=None)
    def test_exhaustive_small(self, seed, count):
        rng = np.random.default_rng(seed)
        mask = random_mask(rng, (6, 6), count)
        lab = label_grid(mask)
        walls = build_walls(extract_mccs(lab))
        open_mask = ~mask
        safe_cells = [tuple(int(x) for x in c) for c in np.argwhere(lab.safe_mask)]
        for s in safe_cells:
            for d in safe_cells:
                if any(a > b for a, b in zip(s, d, strict=True)):
                    continue
                from repro.routing.oracle import minimal_path_exists

                want = minimal_path_exists(open_mask, s, d)
                got = minimal_path_exists_lemma1(s, d, lab)
                assert want == got, (s, d, np.argwhere(mask).tolist())
                assert lemma1_region_form(walls, s, d) == want, (s, d)

    def test_blocking_walls_witness(self):
        # Full wall: no minimal path, witnessed by a blocking wall.
        mask = mask_of_cells([(x, 3) for x in range(6)], (6, 6))
        lab = label_grid(mask)
        walls = build_walls(extract_mccs(lab))
        assert not minimal_path_exists_lemma1((0, 0), (5, 5), lab)
        assert blocking_walls(walls, (0, 0), (5, 5))

    def test_requires_canonical(self):
        lab = label_grid(np.zeros((6, 6), dtype=bool))
        with pytest.raises(ValueError):
            minimal_path_exists_lemma1((3, 3), (0, 0), lab)

    def test_rejects_unsafe_endpoints(self):
        mask = mask_of_cells([(2, 3), (3, 2)], (6, 6))
        lab = label_grid(mask)  # (2,2) is useless
        with pytest.raises(ValueError):
            minimal_path_exists_lemma1((2, 2), (5, 5), labelled=lab)


class TestTheoremAllClasses:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_2d_arbitrary_pairs(self, seed):
        rng = np.random.default_rng(seed)
        mask = random_mask(rng, (7, 7), int(rng.integers(1, 12)))
        evaluator = ConditionEvaluator(mask)
        for _ in range(12):
            s = tuple(int(v) for v in rng.integers(0, 7, 2))
            d = tuple(int(v) for v in rng.integers(0, 7, 2))
            if mask[s] or mask[d] or not evaluator.endpoint_safe(s, d):
                continue
            assert evaluator.exists(s, d) == oracle_feasible(mask, s, d)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_3d_arbitrary_pairs(self, seed):
        rng = np.random.default_rng(seed)
        mask = random_mask(rng, (5, 5, 5), int(rng.integers(1, 15)))
        evaluator = ConditionEvaluator(mask)
        for _ in range(12):
            s = tuple(int(v) for v in rng.integers(0, 5, 3))
            d = tuple(int(v) for v in rng.integers(0, 5, 3))
            if mask[s] or mask[d] or not evaluator.endpoint_safe(s, d):
                continue
            assert evaluator.exists(s, d) == oracle_feasible(mask, s, d), (
                s, d, np.argwhere(mask).tolist()
            )

    def test_theorem_wrapper(self, rng):
        evaluator = ConditionEvaluator(mask_of_cells([(2, 2, 2)], (5, 5, 5)))
        assert evaluator.exists((0, 0, 0), (4, 4, 4))
        # Column blocked: x,y fixed, fault directly between.
        assert not evaluator.exists((2, 2, 0), (2, 2, 4))


class TestKnownScenes:
    def test_fig4a_barrier_from_left_edge(self):
        # A staircase anchored at the left edge blocks every column it
        # shadows (paper Figure 4(a) style); s and d stay safe.
        cells = [(0, 6), (1, 5), (2, 4)]
        mask = mask_of_cells(cells, (9, 9))
        lab = label_grid(mask)
        walls = build_walls(extract_mccs(lab))
        assert lab.safe_mask[0, 0] and lab.safe_mask[2, 8]
        assert not minimal_path_exists_lemma1((0, 0), (2, 8), lab)
        assert blocking_walls(walls, (0, 0), (2, 8))
        # Destinations beyond the barrier's columns remain reachable.
        assert minimal_path_exists_lemma1((0, 0), (8, 8), lab)

    def test_partial_staircase_passable(self):
        cells = [(1, 4), (2, 3), (3, 2)]
        mask = mask_of_cells(cells, (9, 9))
        lab = label_grid(mask)
        assert minimal_path_exists_lemma1((0, 0), (8, 8), lab)

    def test_fig5_routable(self, fig5_mask):
        evaluator = ConditionEvaluator(fig5_mask)
        assert evaluator.exists((0, 0, 0), (9, 9, 9))
        assert evaluator.exists((9, 9, 9), (0, 0, 0))

    def test_column_trap_3d(self):
        # s directly below a fault with x=y fixed: infeasible.
        mask = mask_of_cells([(2, 2, 3)], (6, 6, 6))
        evaluator = ConditionEvaluator(mask)
        assert not evaluator.exists((2, 2, 0), (2, 2, 5))
        # One axis of freedom restores feasibility.
        assert evaluator.exists((2, 1, 0), (2, 2, 5))

    def test_evaluator_caches_classes(self):
        """Each direction class is labelled once, in the shared cache."""
        model_cache.clear_labelling_cache()
        mask = mask_of_cells([(3, 3)], (6, 6))
        evaluator = ConditionEvaluator(mask)
        for _ in range(2):
            evaluator.exists((0, 0), (5, 5))
            evaluator.exists((5, 5), (0, 0))
            evaluator.exists((0, 5), (5, 0))
        # Read at call time: REPRO_SANITIZE=1 swaps the cache object.
        assert len(model_cache.LABELLING_CACHE) == 3
        model_cache.clear_labelling_cache()
