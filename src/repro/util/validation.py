"""Small argument-validation helpers with uniform error messages."""

from __future__ import annotations

from typing import Sequence


def check_positive(name: str, value: int | float, *, strict: bool = True) -> None:
    """Raise ``ValueError`` unless ``value`` > 0 (or >= 0 when not strict)."""
    if strict and value <= 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    if not strict and value < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")


class OffMeshError(ValueError, IndexError):
    """A coordinate outside the mesh.

    Both a bad argument value and an out-of-range index (like numpy's
    ``AxisError``), so callers may catch either.
    """


def check_shape_member(name: str, coord: Sequence[int], shape: Sequence[int]) -> None:
    """Raise unless ``coord`` is a valid node address for a mesh of ``shape``.

    A wrong coordinate count raises ``ValueError``; a coordinate outside
    its axis raises :class:`OffMeshError`.
    """
    if len(coord) != len(shape):
        raise ValueError(
            f"{name}={tuple(coord)!r} has {len(coord)} coordinates; "
            f"mesh is {len(shape)}-dimensional"
        )
    for axis, (c, k) in enumerate(zip(coord, shape, strict=True)):
        if not 0 <= c < k:
            raise OffMeshError(
                f"{name}={tuple(coord)!r} outside mesh: axis {axis} "
                f"requires 0 <= {c} < {k}"
            )
