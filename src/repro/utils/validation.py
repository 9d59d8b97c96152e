"""Small argument-validation helpers used across the library.

The helpers raise ``ValueError`` with a message that names the offending
argument, which keeps call sites terse and error messages consistent.
"""

from __future__ import annotations

from typing import Sized

import numpy as np


def check_positive(name: str, value: float) -> float:
    """Ensure *value* is strictly positive."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def check_in_range(name: str, value: float, low: float, high: float) -> float:
    """Ensure ``low <= value <= high``."""
    if not (low <= value <= high):
        raise ValueError(f"{name} must be in [{low}, {high}], got {value!r}")
    return value


def check_finite(name: str, array: np.ndarray) -> np.ndarray:
    """Ensure an array contains no NaN or infinity."""
    arr = np.asarray(array)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def check_same_length(name_a: str, a: Sized, name_b: str, b: Sized) -> None:
    """Ensure two sized containers have matching length."""
    if len(a) != len(b):
        raise ValueError(
            f"{name_a} and {name_b} must have the same length "
            f"({len(a)} != {len(b)})"
        )
