#!/usr/bin/env python
"""Watch the distributed protocols run on the discrete-event network.

Every quantity in this demo is produced by neighbor-to-neighbor
messages: label gossip, two-head-on identification walks, boundary-wall
records, detection messages, and record-guided forwarding.
"""

import numpy as np

from repro import DistributedMCCPipeline, Mesh2D
from repro.core.labelling import label_grid
from repro.viz.ascii_art import render_grid, render_route

FAULTS = [(5, 7), (6, 6), (7, 5), (4, 2), (2, 3)]


def main() -> None:
    mesh = Mesh2D(12)
    faults = np.zeros(mesh.shape, dtype=bool)
    for cell in FAULTS:
        faults[cell] = True

    pipe = DistributedMCCPipeline(mesh, faults)
    pipe.build()

    print("Distributed labelling (equals centralized Algorithm 1):")
    same = np.array_equal(pipe.labels_grid(), label_grid(faults).status)
    print(render_grid(pipe.labels_grid()))
    print(f"matches centralized labelling: {same}\n")

    print("Identified MCC sections (two-head-on ring walks):")
    for (_plane, corner), shape in sorted(pipe.identified_sections().items()):
        print(f"  corner {corner}: {sorted(shape)}")

    print("\nBoundary records at (3,1) (wall of the staircase MCC):")
    for rec in pipe.records_at((3, 1)):
        print(
            f"  owner {rec['owner']}: shadow axis {'XY'[rec['shadow_axis']]}, "
            f"guards +{'XY'[rec['guard_axis']]}, tops {rec['tops']}"
        )

    print("\nMessage cost by kind:")
    for kind, count in sorted(pipe.message_counts().items()):
        print(f"  {kind:40s} {count}")

    result = pipe.route((0, 0), (11, 11))
    print(f"\nRouting (0,0) -> (11,11): {result['status']}")
    print(render_route(pipe.labels_grid(), result["path"]))


if __name__ == "__main__":
    main()
