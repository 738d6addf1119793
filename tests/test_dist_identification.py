"""Property P4 (identification): ring walks assemble true shapes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.components import extract_mccs
from repro.core.labelling import SAFE, USELESS, label_grid
from repro.distributed.pipeline import DistributedMCCPipeline, MCCProtocolNode
from repro.distributed.ringwalk import (
    column_bottoms,
    column_tops,
    fill_interior,
    initial_heading,
    ring_step,
)
from repro.mesh.regions import mask_of_cells
from repro.mesh.topology import Mesh2D, Mesh3D
from repro.simkit.network import MeshNetwork
from tests.conftest import random_mask


class TestRingwalkPrimitives:
    def test_initial_headings(self):
        assert initial_heading(True) == (0, 1)
        assert initial_heading(False) == (1, 0)

    def test_ring_step_hugs_rectangle(self):
        region = {(2, 2), (2, 3), (3, 2), (3, 3)}

        def passable(c):
            """The in-mesh neighbors of ``c`` outside the region, by direction."""
            steps = ((1, 0), (-1, 0), (0, 1), (0, -1))
            cells = {(du, dv): (c[0] + du, c[1] + dv) for du, dv in steps}
            return {
                d: n for d, n in cells.items()
                if 0 <= n[0] < 7 and 0 <= n[1] < 7 and n not in region
            }

        # The protocol forces the first hop out of the corner; the
        # follower takes over with wall contact established.
        pos, heading = (1, 2), (0, 1)
        visited = [(1, 1), pos]
        for _ in range(14):
            pos, heading = ring_step(heading, True, passable(pos))
            visited.append(pos)
            if pos == (1, 1):
                break
        # The clockwise ring: 12 cells around the 2x2 block.
        assert len(set(visited)) == 12
        assert (4, 4) in visited and (2, 4) in visited and (4, 1) in visited

    def test_ring_step_boxed_in(self):
        assert ring_step((0, 1), True, {}) is None

    def test_fill_interior_closed(self):
        ring = {(1, 1), (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2), (3, 3)}
        interior = fill_interior(ring, (1, 1), (6, 6))
        assert interior == {(2, 2)}

    def test_fill_interior_broken_at_border(self):
        # Region {(4,8)} at the mesh top border: chain is an open arc
        # from the corner (3,7) around the in-mesh side.
        chain = {(3, 7), (3, 8), (4, 7), (5, 7), (5, 8)}
        interior = fill_interior(chain, (3, 7), (9, 9), closed=False)
        assert interior == {(4, 8)}

    def test_fill_interior_no_seeds_discards(self):
        chain = {(0, 1), (1, 0), (1, 2), (2, 1)}
        assert fill_interior(chain, (0, 0), (6, 6), closed=False) == set()

    def test_tops_bottoms(self):
        cells = {(1, 1), (1, 3), (2, 2)}
        assert column_tops(cells) == {1: 3, 2: 2}
        assert column_bottoms(cells) == {1: 1, 2: 2}


class TestCornerCheck:
    """The corner check launches ``IDENT`` only past passable neighbors.

    (1, 1)'s +X neighbor reports an unsafe cell at +Y and its +Y
    neighbor reports one at +X, so (1, 1) is the initialization corner
    of a section whose lowest cell is (2, 2) when both reporting
    neighbors are safe.  The check runs alone, with the node's
    knowledge set by hand.
    """

    @staticmethod
    def _idents(unsafe=(), faulty=()):
        """IDENT messages one corner check sends."""
        mask = np.zeros((4, 4), dtype=bool)
        for cell in faulty:
            mask[cell] = True
        net = MeshNetwork(Mesh2D(4), mask, node_factory=MCCProtocolNode)
        node = net.nodes[(1, 1)]
        node.store["label"] = SAFE
        node.store["known_labels"] = {cell: USELESS for cell in unsafe}
        node.store["edge_info"] = {
            (2, 1): (((0, 1), frozenset({(0, 1)})),),
            (1, 2): (((0, 1), frozenset({(1, 0)})),),
        }
        node.on_timer("corner-check")
        return net.stats.by_kind().get("IDENT", 0)

    def test_passable_corner_launches_both_walkers(self):
        assert self._idents() == 2

    @pytest.mark.parametrize("neighbor", [(2, 1), (1, 2)])
    def test_reports_from_an_unsafe_neighbor_launch_nothing(self, neighbor):
        assert self._idents(unsafe=[neighbor]) == 0
        assert self._idents(faulty=[neighbor]) == 0


class TestSectionIdentification2D:
    def _sections(self, mask):
        pipe = DistributedMCCPipeline(Mesh2D(*mask.shape), mask).build()
        return pipe.identified_sections()

    def test_singleton(self):
        secs = self._sections(mask_of_cells([(4, 4)], (9, 9)))
        assert frozenset({(4, 4)}) in set(secs.values())

    def test_rectangle(self):
        cells = [(3, 3), (3, 4), (4, 3), (4, 4)]
        secs = self._sections(mask_of_cells(cells, (9, 9)))
        assert frozenset(cells) in set(secs.values())

    def test_staircase_with_fills(self):
        mask = mask_of_cells([(3, 5), (4, 4), (5, 3)], (9, 9))
        expected = frozenset(map(tuple, np.argwhere(label_grid(mask).unsafe_mask)))
        secs = self._sections(mask)
        assert expected in set(secs.values())

    def test_high_border_component_recovered(self):
        # Fault on the mesh top border: broken ring, IDENT_BACK assembly.
        secs = self._sections(mask_of_cells([(4, 8)], (9, 9)))
        assert frozenset({(4, 8)}) in set(secs.values())

    def test_low_border_component_has_no_corner(self):
        # A fault on the mesh floor has its initialization corner
        # off-mesh: no identification — and none needed, because its
        # negative shadow is empty (nothing lies below it).
        secs = self._sections(mask_of_cells([(4, 0)], (9, 9)))
        assert frozenset({(4, 0)}) not in set(secs.values())

    @given(st.integers(0, 2**32 - 1), st.integers(1, 9))
    @settings(max_examples=10, deadline=None)
    def test_interior_components_covered(self, seed, count):
        rng = np.random.default_rng(seed)
        mask = random_mask(rng, (9, 9), count)
        lab = label_grid(mask)
        pipe = DistributedMCCPipeline(Mesh2D(9), mask).build()
        covered = set()
        for shape in pipe.identified_sections().values():
            covered |= set(map(tuple, shape))
        for mcc in extract_mccs(lab):
            cells = set(map(tuple, mcc.cells.tolist()))
            touches_border = any(
                c == 0 or c == 8 for cell in cells for c in cell
            )
            # The 2-D identification start: diagonally SW of (xmin, ymin).
            corner = tuple(lo - 1 for lo in mcc.box.lo)
            corner_ok = (
                lab.safe_mask[corner]
                if all(0 <= c < 9 for c in corner)
                else False
            )
            if not touches_border and corner_ok:
                assert cells <= covered, sorted(cells - covered)


class TestSectionIdentification3D:
    def test_fig5_sections_cover_unsafe(self, fig5_mask):
        lab = label_grid(fig5_mask)
        pipe = DistributedMCCPipeline(Mesh3D(10), fig5_mask).build()
        covered = set()
        for shape in pipe.identified_sections().values():
            covered |= set(map(tuple, shape))
        unsafe = set(map(tuple, np.argwhere(lab.unsafe_mask)))
        assert unsafe <= covered

    def test_sections_are_plane_confined(self, fig5_mask):
        pipe = DistributedMCCPipeline(Mesh3D(10), fig5_mask).build()
        for (plane, _corner), shape in pipe.identified_sections().items():
            fixed_axes = [a for a in range(3) if a not in plane]
            for axis in fixed_axes:
                values = {c[axis] for c in shape}
                assert len(values) == 1
