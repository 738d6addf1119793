"""Small argument-validation helpers with uniform error messages."""

from __future__ import annotations

import math
from typing import Any, Iterable, Mapping, Sequence

import numpy as np


def check_positive(name: str, value: int | float, *, strict: bool = True) -> None:
    """Raise ``ValueError`` unless ``value`` > 0 (or >= 0 when not strict)."""
    if strict and value <= 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    if not strict and value < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")


def check_workload(knobs: Mapping[str, Any]) -> None:
    """Raise ``ValueError`` unless every load knob in ``knobs`` is in range.

    The one rule for sweep, trace and serving knobs: ``rate``, each of
    ``rates``, ``duration`` and ``batch_window`` finite and > 0 (a
    Poisson arrival loop or a batching clock never ends on NaN or inf);
    ``capacity`` and ``churn`` at least 1; the counts ``pairs``,
    ``queries``, ``epochs`` and ``events`` at least 0.  Other keys pass
    unchecked.
    """
    for name, value in knobs.items():
        if name in ("rate", "rates", "duration", "batch_window"):
            values = value if name == "rates" else (value,)
            if not all(math.isfinite(v) and v > 0 for v in values):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        elif name in ("capacity", "churn") and value < 1:
            raise ValueError(f"{name} must be >= 1, got {value!r}")
        elif name in ("pairs", "queries", "epochs", "events") and value < 0:
            raise ValueError(f"{name} must be >= 0, got {value!r}")


def check_fault_count(shape: Sequence[int], count: int) -> None:
    """Reject an impossible fault-pattern request before any draw.

    Axis lengths below 1, a negative ``count`` and a ``count`` above the
    mesh size raise ``ValueError``.
    """
    if any(k < 1 for k in shape):
        raise ValueError(f"mesh axis lengths must be >= 1, got {tuple(shape)}")
    if count < 0:
        raise ValueError(f"fault count must be >= 0, got {count}")
    size = math.prod(shape)
    if count > size:
        raise ValueError(f"cannot place {count} faults in mesh of {size}")


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


def check_event_cells(
    cells: Iterable[Sequence[int]], fault_mask: np.ndarray, want_faulty: bool
) -> list[tuple[int, ...]]:
    """The cells of one fault event as int tuples, checked against the mask.

    Each cell lies on the mesh of ``fault_mask``'s shape, appears once,
    and is faulty when ``want_faulty`` (a repair) or healthy otherwise
    (an inject); an event has at least one cell.  The first cell that
    breaks the rule raises ``ValueError``.
    """
    shape = fault_mask.shape
    out: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for cell in cells:
        c = tuple(int(v) for v in cell)
        if len(c) != len(shape) or not all(
            0 <= v < k for v, k in zip(c, shape, strict=True)
        ):
            raise ValueError(f"cell {c} outside mesh {shape}")
        if c in seen:
            raise ValueError(f"cell {c} given twice in one event")
        seen.add(c)
        if bool(fault_mask[c]) != want_faulty:
            state = "faulty" if fault_mask[c] else "healthy"
            raise ValueError(f"cell {c} is {state}")
        out.append(c)
    if not out:
        raise ValueError("a fault event needs at least one cell")
    return out
