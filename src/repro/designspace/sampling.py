"""Design-point sampling strategies.

Four samplers are provided:

* :class:`RandomSampler` — uniform sampling over the candidate grid, used to
  generate the labelled datasets for all experiments;
* :class:`LatinHypercubeSampler` — stratified sampling that spreads points
  more evenly, used when generating small support sets;
* :class:`OrthogonalArraySampler` — the OA-style sampling referenced by the
  TrDSE/TrEE baselines (Section II-A of the paper); implemented as a strength-1
  balanced design over the ordinal grid.
* :class:`FocusedSampler` — importance-guided sampling (AttentionDSE-style
  pruning, see ``docs/pruning.md``): spends the budget on the high-importance
  parameters and coarse-grids or clamps the rest.  With every parameter
  focused it consumes its RNG stream exactly like :class:`RandomSampler`,
  so ``keep_fraction=1.0`` degrades to uniform sampling bitwise.

All samplers are deterministic given a seed, and may repeat a
configuration (collisions are likely for tiny parameter cardinalities).
:class:`RandomSampler` and :class:`FocusedSampler` draw a whole pool as one
``(count, P)`` index matrix in a single ``rng.integers`` call, which
consumes the generator exactly as one scalar draw per parameter per
configuration, row by row, would.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.designspace.space import Configuration, DesignSpace
from repro.utils.rng import SeedLike, as_rng


class BaseSampler:
    """Common plumbing for samplers over a :class:`DesignSpace`."""

    def __init__(self, space: DesignSpace, *, seed: SeedLike = None) -> None:
        self.space = space
        self.rng = as_rng(seed)

    def sample(self, count: int) -> list[Configuration]:
        """Draw *count* configurations."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return [self.space.from_indices(row) for row in self._draw_indices(count)]

    def _draw_indices(self, count: int) -> np.ndarray:
        """The ``(count, P)`` ordinal indices of the next *count* draws."""
        raise NotImplementedError


class RandomSampler(BaseSampler):
    """Uniform sampling over the ordinal grid."""

    def _draw_indices(self, count: int) -> np.ndarray:
        cardinalities = self.space.cardinalities()
        return self.rng.integers(0, cardinalities, size=(count, cardinalities.size))


class LatinHypercubeSampler(BaseSampler):
    """Stratified (Latin hypercube) sampling over the normalised hypercube.

    Each call to :meth:`sample` builds a fresh Latin hypercube of the
    requested size; the per-dimension strata are permuted independently and
    then snapped to the nearest candidate value.
    """

    def sample(self, count: int) -> list[Configuration]:
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count == 0:
            return []
        num_parameters = self.space.num_parameters
        # One stratified coordinate per (sample, dimension).
        positions = np.empty((count, num_parameters), dtype=np.float64)
        for dim in range(num_parameters):
            perm = self.rng.permutation(count)
            offsets = self.rng.random(count)
            positions[:, dim] = (perm + offsets) / count
        return [self.space.from_features(row) for row in positions]


class OrthogonalArraySampler(BaseSampler):
    """Strength-1 balanced sampling (orthogonal-array style).

    For every parameter the candidate indices are tiled so that each level
    appears an (almost) equal number of times across the sample, then shuffled
    independently per column.  This reproduces the balanced coverage property
    that TrDSE [13] and TrEE [14] rely on, without requiring a true
    strength-2 orthogonal array for arbitrary mixed-level spaces (which does
    not generally exist).
    """

    def sample(self, count: int) -> list[Configuration]:
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count == 0:
            return []
        columns = []
        for parameter in self.space.parameters:
            levels = np.arange(parameter.cardinality)
            reps = int(np.ceil(count / parameter.cardinality))
            column = np.tile(levels, reps)[:count]
            self.rng.shuffle(column)
            columns.append(column)
        matrix = np.stack(columns, axis=1)
        return [self.space.from_indices(row) for row in matrix]


class FocusedSampler(BaseSampler):
    """Importance-guided sampling: full resolution where attention points.

    *scores* is a per-parameter importance vector (an
    :class:`repro.meta.wam.ImportanceProfile` or any non-negative array of
    length ``space.num_parameters``).  The top ``ceil(keep_fraction * P)``
    parameters by score (ties broken towards the earlier declaration) keep
    their full candidate grids; every other parameter is restricted to a
    coarse sub-grid of at most *coarse_levels* evenly spaced levels
    (``coarse_levels=1`` clamps it to its median level).

    RNG contract: a pool of *count* is one ``rng.integers(0, L, size=(count,
    P))`` draw, where ``L`` holds each parameter's number of retained
    levels.  It consumes the stream exactly as one ``rng.integers(0, L_i)``
    per parameter in declaration order, configuration after configuration,
    would (a clamped parameter's ``L_i = 1`` draws nothing).  With
    ``keep_fraction=1.0`` every ``L_i`` equals the parameter cardinality and
    the level map is the identity, so the sampler is **bitwise identical**
    to :class:`RandomSampler` on the same stream — the equivalence that lets
    ``FocusedPool(keep_fraction=1.0)`` degrade to ``RandomPool`` exactly
    (see ``tests/test_designspace_sampling.py``).
    """

    def __init__(
        self,
        space: DesignSpace,
        scores,
        *,
        keep_fraction: float = 0.5,
        coarse_levels: int = 1,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(space, seed=seed)
        if not 0.0 < keep_fraction <= 1.0:
            raise ValueError(
                f"keep_fraction must be in (0, 1], got {keep_fraction}"
            )
        if coarse_levels < 1:
            raise ValueError(f"coarse_levels must be >= 1, got {coarse_levels}")
        values = np.asarray(
            getattr(scores, "scores", scores), dtype=np.float64
        ).reshape(-1)
        if values.shape[0] != space.num_parameters:
            raise ValueError(
                f"scores has {values.shape[0]} entries for a space with "
                f"{space.num_parameters} parameters"
            )
        if not np.all(np.isfinite(values)) or np.any(values < 0.0):
            raise ValueError("scores must be finite and non-negative")
        self.keep_fraction = float(keep_fraction)
        self.coarse_levels = int(coarse_levels)
        self.scores = values
        num_parameters = space.num_parameters
        keep = max(1, int(np.ceil(self.keep_fraction * num_parameters)))
        # Descending score, earlier declaration wins ties (lexsort is stable
        # on its last key, so negate scores and tiebreak on position).
        order = np.lexsort((np.arange(num_parameters), -values))
        mask = np.zeros(num_parameters, dtype=bool)
        mask[order[:keep]] = True
        self.focused_mask = mask
        self._levels: list[np.ndarray] = []
        for focused, parameter in zip(mask, space.parameters):
            cardinality = parameter.cardinality
            if focused or self.coarse_levels >= cardinality:
                levels = np.arange(cardinality)
            elif self.coarse_levels == 1:
                levels = np.array([cardinality // 2])
            else:
                levels = np.unique(
                    np.round(
                        np.linspace(0, cardinality - 1, self.coarse_levels)
                    ).astype(int)
                )
            self._levels.append(levels)
        # Flat level table: parameter i's draw d maps to table[offset_i + d].
        self._level_counts = np.array([len(levels) for levels in self._levels])
        self._level_offsets = np.cumsum(self._level_counts) - self._level_counts
        self._level_table = np.concatenate(self._levels)

    def _draw_indices(self, count: int) -> np.ndarray:
        draws = self.rng.integers(
            0, self._level_counts, size=(count, self._level_counts.size)
        )
        return self._level_table[self._level_offsets + draws]


def make_sampler(
    kind: str, space: DesignSpace, *, seed: Optional[SeedLike] = None
) -> BaseSampler:
    """Factory keyed by sampler name (``random`` / ``lhs`` / ``oa``)."""
    samplers = {
        "random": RandomSampler,
        "lhs": LatinHypercubeSampler,
        "oa": OrthogonalArraySampler,
    }
    try:
        cls = samplers[kind]
    except KeyError:
        raise ValueError(
            f"unknown sampler {kind!r}; choose from {sorted(samplers)}"
        ) from None
    return cls(space, seed=seed)
