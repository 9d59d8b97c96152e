"""Acquisition strategies for the DSE campaign engine.

Given the surrogate's predicted objective matrix for a candidate pool, an
acquisition strategy decides which candidates receive the (expensive)
simulation budget.  The three strategies cover the repository's exploration
loops:

* :class:`ParetoRankAcquisition` — simulate the predicted Pareto front
  first, then fill the remaining budget with the best-ranked candidates by
  the first objective (the screen-then-simulate policy, ``repro explore
  --method screen``);
* :class:`ExplorationBonusAcquisition` — rank by predicted Pareto
  membership, breaking ties with the surrogate's exploration bonus
  (ensemble disagreement / distance-to-known; the active-learning policy);
* :class:`GreedyTopK` — plain best-first by a scalarisation of the
  minimised objectives (single-objective loops, sanity baselines).

Every strategy works on the *minimised* objective matrix (see
:meth:`~repro.dse.engine.ObjectiveSet.to_minimization`) and returns plain
``int`` indices into the candidate pool.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.dse.pareto import fast_pareto_front

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.dse.engine import ObjectiveSet
    from repro.dse.surrogates import MultiObjectiveSurrogate


@dataclass
class AcquisitionContext:
    """Everything a strategy may consult besides the predictions."""

    #: Encoded features of the candidate pool, ``(n, d)``.
    features: np.ndarray
    #: Encoded features of the already-simulated set (``None`` when empty).
    known_features: Optional[np.ndarray]
    #: The surrogate that produced the predictions (for exploration bonuses).
    surrogate: "MultiObjectiveSurrogate"
    #: The campaign's objective declaration.
    objectives: "ObjectiveSet"


class AcquisitionStrategy(abc.ABC):
    """Select which candidates of a screened pool to simulate."""

    @abc.abstractmethod
    def select(
        self, predicted_min: np.ndarray, budget: int, context: AcquisitionContext
    ) -> list[int]:
        """Return at most *budget* candidate indices, in acquisition order."""


class ParetoRankAcquisition(AcquisitionStrategy):
    """Predicted Pareto front first, best-by-first-objective fill after.

    The fill step hoists the front membership set out of the loop (the
    original explorer rebuilt ``set(front)`` for every pool candidate,
    which made budget fill-in O(pool²)).
    """

    def select(
        self, predicted_min: np.ndarray, budget: int, context: AcquisitionContext
    ) -> list[int]:
        selected = [int(i) for i in fast_pareto_front(predicted_min)]
        if len(selected) < budget:
            chosen = set(selected)
            remaining = [
                int(i)
                for i in np.argsort(predicted_min[:, 0])
                if int(i) not in chosen
            ]
            selected.extend(remaining[: budget - len(selected)])
        return selected[:budget]


class ExplorationBonusAcquisition(AcquisitionStrategy):
    """Predicted Pareto membership first, exploration bonus as tie-break.

    The bonus comes from the surrogate (blended over all objective models),
    so front members with the most model uncertainty — and, among the rest,
    the least-explored candidates — are simulated first.
    """

    def select(
        self, predicted_min: np.ndarray, budget: int, context: AcquisitionContext
    ) -> list[int]:
        front_indices = set(int(i) for i in fast_pareto_front(predicted_min))
        bonus = context.surrogate.exploration_bonus(
            context.features, context.known_features
        )
        order = sorted(
            range(predicted_min.shape[0]),
            key=lambda i: (0 if i in front_indices else 1, -bonus[i]),
        )
        return [int(i) for i in order[:budget]]


class GreedyTopK(AcquisitionStrategy):
    """Best-first by a weighted sum of the minimised objectives.

    With the default weights this is "best predicted first objective";
    custom weights give a fixed scalarisation over all objectives.
    """

    def __init__(self, weights: Optional[Sequence[float]] = None) -> None:
        self.weights = None if weights is None else np.asarray(weights, dtype=np.float64)

    def select(
        self, predicted_min: np.ndarray, budget: int, context: AcquisitionContext
    ) -> list[int]:
        if self.weights is None:
            scores = predicted_min[:, 0]
        else:
            if self.weights.shape != (predicted_min.shape[1],):
                raise ValueError(
                    f"expected {predicted_min.shape[1]} weights, got {self.weights.shape}"
                )
            scores = predicted_min @ self.weights
        return [int(i) for i in np.argsort(scores)[:budget]]
