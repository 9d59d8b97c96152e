"""Microarchitectural parameter declarations.

A design space is an ordered collection of named parameters.  The paper's
Table I uses two kinds of parameters:

* strided integer ranges written as ``start:end:stride`` (e.g. ROB size
  ``32:256:16``), and
* explicit candidate lists (e.g. cache line size ``32/64`` or the branch
  predictor type ``BiModeBP``/``TournamentBP``).

Both are modelled here with a common interface: a parameter knows its
candidate values, can map a value to/from an ordinal index, and can report a
normalised ``[0, 1]`` position used when encoding configurations for machine
learning models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

ParameterValue = Union[int, float, str]


class ParameterError(ValueError):
    """Raised when a value does not belong to a parameter's candidate set."""


@dataclass(frozen=True)
class Parameter:
    """A single named microarchitectural parameter.

    Attributes
    ----------
    name:
        Identifier used in configuration dictionaries (e.g. ``"rob_size"``).
    description:
        Human-readable description straight from Table I.
    values:
        Ordered tuple of candidate values.  Order matters: it defines the
        ordinal index used for encoding.
    """

    name: str
    description: str
    values: tuple[ParameterValue, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError(f"parameter {self.name!r} has no candidate values")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"parameter {self.name!r} has duplicate candidates")

    # -- cardinality ----------------------------------------------------
    @property
    def cardinality(self) -> int:
        """Number of candidate values."""
        return len(self.values)

    # -- value <-> index ------------------------------------------------
    def index_of(self, value: ParameterValue) -> int:
        """Return the ordinal index of *value*.

        Numeric values are matched with exact equality; raising on unknown
        values catches configuration typos early.
        """
        try:
            return self.values.index(value)
        except ValueError:
            raise ParameterError(
                f"{value!r} is not a candidate for parameter {self.name!r}; "
                f"candidates are {list(self.values)}"
            ) from None

    def value_at(self, index: int) -> ParameterValue:
        """Return the candidate at ordinal *index*."""
        if not 0 <= index < self.cardinality:
            raise ParameterError(
                f"index {index} out of range for parameter {self.name!r} "
                f"with {self.cardinality} candidates"
            )
        return self.values[index]

    def contains(self, value: ParameterValue) -> bool:
        """True when *value* is a legal candidate."""
        return value in self.values

    # -- normalised encoding -------------------------------------------
    def normalized(self, value: ParameterValue) -> float:
        """Map *value* to ``[0, 1]`` by ordinal position.

        Using the ordinal position (rather than the numeric magnitude) keeps
        categorical and numeric parameters on the same footing and matches
        how the surrogate models in the paper embed each parameter
        independently.
        """
        if self.cardinality == 1:
            return 0.0
        return self.index_of(value) / (self.cardinality - 1)

    def denormalize(self, position: float) -> ParameterValue:
        """Map a ``[0, 1]`` position back to the nearest candidate value."""
        position = float(np.clip(position, 0.0, 1.0))
        index = int(round(position * (self.cardinality - 1)))
        return self.value_at(index)


def strided_range(start: int, end: int, stride: int) -> tuple[int, ...]:
    """Expand a Table I ``start:end:stride`` specification (end inclusive)."""
    if stride <= 0:
        raise ValueError(f"stride must be positive, got {stride}")
    if end < start:
        raise ValueError(f"end ({end}) must be >= start ({start})")
    return tuple(range(start, end + 1, stride))


def categorical(name: str, description: str, values: Sequence[ParameterValue]) -> Parameter:
    """Convenience constructor for an explicit candidate list."""
    return Parameter(name=name, description=description, values=tuple(values))


def ranged(name: str, description: str, start: int, end: int, stride: int) -> Parameter:
    """Convenience constructor for a ``start:end:stride`` parameter."""
    return Parameter(name=name, description=description, values=strided_range(start, end, stride))
