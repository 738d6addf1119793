"""Shared utilities: deterministic RNG handling, validation, result records."""

from repro.util.rng import make_rng
from repro.util.validation import check_positive, check_shape_member
from repro.util.records import ResultTable

__all__ = [
    "make_rng",
    "check_positive",
    "check_shape_member",
    "ResultTable",
]
