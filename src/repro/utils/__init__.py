"""Shared utilities: deterministic RNG handling and validation helpers."""

from repro.utils.rng import as_rng
from repro.utils.validation import (
    check_finite,
    check_in_range,
    check_positive,
    check_same_length,
)

__all__ = [
    "as_rng",
    "check_finite",
    "check_in_range",
    "check_positive",
    "check_same_length",
]
