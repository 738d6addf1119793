"""Mesh-topology substrate: k-ary n-D meshes, orientations and regions.

The paper's networks are 2-D and 3-D meshes (Section 2): nodes addressed
by integer coordinates, two nodes adjacent iff their addresses differ by
one in exactly one dimension.  This package provides the topology (one
shared adjacency table per shape), the orientation algebra used by the
direction-class-relative MCC model, and axis-aligned region primitives.
Fault patterns are plain boolean node masks.
"""

from repro.mesh.coords import manhattan
from repro.mesh.topology import Mesh, Mesh2D, Mesh3D
from repro.mesh.orientation import Orientation
from repro.mesh.regions import Box

__all__ = [
    "manhattan",
    "Mesh",
    "Mesh2D",
    "Mesh3D",
    "Orientation",
    "Box",
]
