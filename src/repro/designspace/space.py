"""The :class:`DesignSpace` container.

A design space is an ordered list of :class:`~repro.designspace.parameters.Parameter`
objects plus the operations every other layer needs:

* validating and completing configuration dictionaries,
* converting configurations to/from index vectors and normalised feature
  vectors (the representation fed to surrogate models),
* measuring and describing the space.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.designspace.parameters import Parameter, ParameterError, ParameterValue

Configuration = dict[str, ParameterValue]


class DesignSpace:
    """An ordered, named collection of microarchitectural parameters."""

    def __init__(self, parameters: Sequence[Parameter], *, name: str = "design-space") -> None:
        if not parameters:
            raise ValueError("a design space needs at least one parameter")
        names = [p.name for p in parameters]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names in design space")
        self._parameters: tuple[Parameter, ...] = tuple(parameters)
        self._by_name: dict[str, Parameter] = {p.name: p for p in self._parameters}
        self.name = name
        # Every parameter's normalised features, concatenated, and where each
        # parameter's run starts: features_from_indices gathers from here.
        self._feature_table = np.array(
            [p.normalized(v) for p in self._parameters for v in p.values], dtype=np.float64
        )
        self._cardinalities = self.cardinalities()
        self._feature_offsets = np.cumsum(self._cardinalities) - self._cardinalities

    # -- basic container protocol ---------------------------------------
    def __len__(self) -> int:
        return len(self._parameters)

    def __iter__(self) -> Iterator[Parameter]:
        return iter(self._parameters)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> Parameter:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown parameter {name!r} in design space {self.name!r}") from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DesignSpace(name={self.name!r}, num_parameters={len(self)})"

    @property
    def parameters(self) -> tuple[Parameter, ...]:
        """The parameters in declaration order."""
        return self._parameters

    @property
    def parameter_names(self) -> list[str]:
        """Parameter names in declaration order."""
        return [p.name for p in self._parameters]

    @property
    def num_parameters(self) -> int:
        """Number of parameters (the sequence length seen by the transformer)."""
        return len(self._parameters)

    def size(self) -> int:
        """Total number of distinct configurations (product of cardinalities)."""
        total = 1
        for p in self._parameters:
            total *= p.cardinality
        return total

    def cardinalities(self) -> np.ndarray:
        """Per-parameter candidate counts as an integer array."""
        return np.array([p.cardinality for p in self._parameters], dtype=np.int64)

    # -- configuration validation ----------------------------------------
    def validate(self, config: Mapping[str, ParameterValue]) -> Configuration:
        """Validate a full configuration and return a normalised copy.

        Raises
        ------
        ParameterError
            If a parameter is missing, unknown, or set to a non-candidate
            value.
        """
        unknown = set(config) - set(self._by_name)
        if unknown:
            raise ParameterError(
                f"unknown parameters {sorted(unknown)} for design space {self.name!r}"
            )
        missing = set(self._by_name) - set(config)
        if missing:
            raise ParameterError(
                f"missing parameters {sorted(missing)} for design space {self.name!r}"
            )
        validated: Configuration = {}
        for parameter in self._parameters:
            value = config[parameter.name]
            if not parameter.contains(value):
                raise ParameterError(
                    f"{value!r} is not a candidate for {parameter.name!r}"
                )
            validated[parameter.name] = value
        return validated

    # -- conversions -----------------------------------------------------
    def to_indices(self, config: Mapping[str, ParameterValue]) -> np.ndarray:
        """Convert a configuration to an ordinal index vector."""
        validated = self.validate(config)
        return np.array(
            [p.index_of(validated[p.name]) for p in self._parameters], dtype=np.int64
        )

    def from_indices(self, indices: Sequence[int]) -> Configuration:
        """Convert an ordinal index vector back to a configuration."""
        indices = np.asarray(indices)
        if not np.issubdtype(indices.dtype, np.integer):
            raise ValueError(f"expected an integer index vector, got dtype {indices.dtype}")
        if indices.shape != (self.num_parameters,):
            raise ValueError(
                f"expected {self.num_parameters} indices, got shape {indices.shape}"
            )
        return {
            p.name: p.value_at(int(i)) for p, i in zip(self._parameters, indices)
        }

    def to_features(self, config: Mapping[str, ParameterValue]) -> np.ndarray:
        """Encode a configuration as a normalised ``[0, 1]`` feature vector."""
        validated = self.validate(config)
        return np.array(
            [p.normalized(validated[p.name]) for p in self._parameters], dtype=np.float64
        )

    def features_from_indices(self, indices: np.ndarray) -> np.ndarray:
        """Encode ``(..., P)`` ordinal index vectors as normalised features.

        Equal to :meth:`batch_to_features` over the decoded configurations by
        construction: each parameter's features are gathered from a table of
        :meth:`Parameter.normalized` over its candidates, built once.
        """
        indices = np.asarray(indices)
        if not np.issubdtype(indices.dtype, np.integer):
            raise ValueError(f"expected integer index vectors, got dtype {indices.dtype}")
        if indices.ndim < 1 or indices.shape[-1] != self.num_parameters:
            raise ValueError(
                f"expected index vectors of {self.num_parameters} entries, "
                f"got shape {indices.shape}"
            )
        outside = np.argwhere((indices < 0) | (indices >= self._cardinalities))
        if outside.size:
            where = tuple(outside[0])
            parameter = self._parameters[where[-1]]
            raise ParameterError(
                f"index {indices[where]} out of range for parameter "
                f"{parameter.name!r} with {parameter.cardinality} candidates"
            )
        return self._feature_table[self._feature_offsets + indices]

    def from_features(self, features: Sequence[float]) -> Configuration:
        """Decode a normalised feature vector to the nearest configuration."""
        features = np.asarray(features, dtype=np.float64)
        if features.shape != (self.num_parameters,):
            raise ValueError(
                f"expected {self.num_parameters} features, got shape {features.shape}"
            )
        return {
            p.name: p.denormalize(float(x)) for p, x in zip(self._parameters, features)
        }

    def batch_to_features(self, configs: Iterable[Mapping[str, ParameterValue]]) -> np.ndarray:
        """Vectorised :meth:`to_features` over an iterable of configurations."""
        rows = [self.to_features(c) for c in configs]
        if not rows:
            return np.empty((0, self.num_parameters), dtype=np.float64)
        return np.stack(rows, axis=0)

    def describe(self) -> str:
        """Render a Table I style description of the space."""
        lines = [f"Design space {self.name!r}: {self.num_parameters} parameters, "
                 f"{self.size():.3e} configurations"]
        for p in self._parameters:
            preview = ", ".join(str(v) for v in p.values[:6])
            if p.cardinality > 6:
                preview += f", ... ({p.cardinality} candidates)"
            lines.append(f"  {p.name:24s} {p.description:55s} [{preview}]")
        return "\n".join(lines)
