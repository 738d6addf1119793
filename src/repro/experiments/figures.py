"""Regeneration of the paper's illustrative figures (ASCII form).

Each ``figure_*`` function returns a printable string; the benchmark
``benchmarks/bench_figures.py`` and ``examples/paper_figures.py`` print
them.  Scenes follow the paper exactly where coordinates are given
(Figure 5's fault list) and reconstruct representative scenes otherwise.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.rfb import rfb_labelled
from repro.core.components import extract_mccs
from repro.core.detection import detect_canonical
from repro.core.model_cache import cached_labelled
from repro.core.walls import build_walls
from repro.mesh.regions import mask_of_cells
from repro.routing.batch import RoutingService
from repro.viz.ascii_art import render_grid, render_route, render_slices

# The paper's Figure 5 fault pattern (Section 4).
FIG5_FAULTS = [
    (5, 5, 6), (6, 5, 5), (5, 6, 5), (6, 7, 5),
    (7, 6, 5), (5, 4, 7), (4, 5, 7), (7, 8, 4),
]

# A Figure-1-style staircase scene in 2-D.
FIG1_FAULTS = [(3, 6), (4, 5), (5, 4), (6, 3), (3, 3)]


def figure1(shape: tuple[int, int] = (10, 10)) -> str:
    """RFB vs MCC regions for a 2-D staircase fault pattern (Fig. 1)."""
    mask = mask_of_cells(FIG1_FAULTS, shape)
    mcc = cached_labelled(mask)
    rfb = rfb_labelled(mask)
    mcc_nonfaulty = int(mcc.unsafe_mask.sum() - mask.sum())
    rfb_nonfaulty = int(rfb.unsafe_mask.sum() - mask.sum())
    return (
        "Figure 1(b): rectangular faulty block "
        f"(non-faulty captured: {rfb_nonfaulty})\n"
        + render_grid(rfb)
        + "\n\nFigure 1(c): MCC for routing to the upper-right "
        f"(non-faulty captured: {mcc_nonfaulty})\n"
        + render_grid(mcc)
    )


def figure5(shape: tuple[int, int, int] = (10, 10, 10)) -> str:
    """The paper's 3-D example: labelling, hole, and the two MCCs."""
    mask = mask_of_cells(FIG5_FAULTS, shape)
    labelled = cached_labelled(mask)
    mccs = extract_mccs(labelled, connectivity=2)  # the paper's grouping
    lines = [
        "Figure 5(b): MCCs for the 8-fault pattern.",
        f"  (5,5,5) labelled: {labelled.status[5, 5, 5]} (2 = useless, as in the paper)",
        f"  (5,5,7) labelled: {labelled.status[5, 5, 7]} (3 = can't-reach, as in the paper)",
        f"  hole (6,6,5) stays safe: {bool(labelled.safe_mask[6, 6, 5])}",
        f"  MCC count (paper grouping): {len(mccs)} "
        f"(paper: 2 — one singleton (7,8,4), one with the rest)",
    ]
    for mcc in mccs:
        cells = sorted(map(tuple, mcc.cells.tolist()))
        lines.append(f"  MCC #{mcc.index}: {cells}")
    lines.append(render_slices(labelled, axis=2))
    return "\n".join(lines)


def figure3_walls(shape: tuple[int, int] = (12, 12)) -> str:
    """Boundary construction with chain merging (Fig. 3 style)."""
    faults = [(6, 7), (7, 6), (3, 3), (4, 2)]
    mask = mask_of_cells(faults, shape)
    labelled = cached_labelled(mask)
    mccs = extract_mccs(labelled)
    walls = build_walls(mccs)
    overlays = {}
    for wall in walls:
        for axis, records in wall.records.items():
            for cell in np.argwhere(records):
                overlays[tuple(int(c) for c in cell)] = "|" if axis == 0 else "-"
    chains = {
        f"MCC#{w.mcc_index} dim {'XYZ'[w.dim]}": w.chain
        for w in walls
        if len(w.chain) > 1
    }
    return (
        "Figure 3: boundary walls (records: '|' guards +X, '-' guards +Y); "
        f"merged chains: {chains or 'none'}\n" + render_grid(labelled, overlays)
    )


def figure4_7_detection(three_d: bool = False) -> str:
    """Feasibility-check samples: one YES case and one NO case."""
    if not three_d:
        yes = mask_of_cells([(4, 4), (4, 5), (5, 4)], (9, 9))
        # A staircase anchored at the left edge shadows columns 0..2:
        # destinations above it are unreachable while s stays safe.
        no = mask_of_cells([(0, 6), (1, 5), (2, 4)], (9, 9))
        out = []
        for name, mask, dest in (("YES", yes, (8, 8)), ("NO", no, (2, 8))):
            labelled = cached_labelled(mask)
            report = detect_canonical(labelled.unsafe_mask, (0, 0), dest)
            out.append(
                f"Figure 4 ({name} case): feasible={report.feasible} "
                f"messages={report.messages}\n"
                + render_route(labelled, report.trails[list(report.trails)[0]])
            )
        return "\n\n".join(out)
    yes = mask_of_cells([(3, 3, 3), (3, 3, 4), (3, 4, 3)], (7, 7, 7))
    labelled = cached_labelled(yes)
    report = detect_canonical(labelled.unsafe_mask, (0, 0, 0), (6, 6, 6))
    return (
        f"Figure 7 (3-D feasibility): feasible={report.feasible} "
        f"messages={report.messages}"
    )


def figure8_routing() -> str:
    """3-D routing samples around the Figure 5 fault pattern."""
    mask = mask_of_cells(FIG5_FAULTS, (10, 10, 10))
    service = RoutingService(mask, mode="mcc")
    out = ["Figure 8: adaptive minimal routes around the Figure-5 MCCs."]
    for source, dest in (((0, 0, 0), (9, 9, 9)), ((2, 2, 2), (8, 8, 8))):
        result = service.route(source, dest)
        out.append(
            f"  {source} -> {dest}: delivered={result.delivered} "
            f"hops={result.hops} (Manhattan {sum(abs(a-b) for a, b in zip(source, dest, strict=True))})"
        )
        out.append("  path: " + " ".join(str(c) for c in result.path))
    return "\n".join(out)
