"""Surrogate-driven NSGA-II search over the Table I design space.

A screen-then-simulate campaign with a :class:`~repro.dse.engine.RandomPool`
evaluates one random candidate pool.  When the design space is large, a
genetic search over the surrogate's predictions finds better trade-off
configurations for the same (cheap) prediction budget.  This module
implements the standard NSGA-II machinery — fast non-dominated sorting,
crowding-distance selection, uniform crossover and per-parameter mutation —
with individuals encoded as per-parameter *index vectors* so every genetic
operation stays inside the legal design space by construction.

Objective values come from surrogate callables (``features -> predictions``),
exactly the ones an adapted MetaDSE predictor provides, so the search itself
never touches the simulator; validating the resulting front against simulation
is the caller's job.  In a campaign, :class:`~repro.dse.engine.NSGA2Evolve`
runs the search per ``(workload, round)`` from a keyed RNG stream and hands
the final population to acquisition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from repro.designspace.space import Configuration, DesignSpace
from repro.dse.pareto import crowding_distance, pareto_mask, to_minimization
from repro.utils.rng import SeedLike, as_rng

#: Surrogate signature: encoded features (n, d) -> predicted objective (n,).
PredictorFn = Callable[[np.ndarray], np.ndarray]


def fast_non_dominated_sort(objectives: np.ndarray) -> list[np.ndarray]:
    """Split rows of a minimisation objective matrix into Pareto fronts.

    Returns a list of index arrays; the first entry is the non-dominated
    front, the second the front once the first is removed, and so on.
    """
    objectives = np.asarray(objectives, dtype=np.float64)
    if objectives.ndim != 2 or objectives.shape[0] == 0:
        raise ValueError(f"expected a non-empty (n, m) matrix, got {objectives.shape}")
    remaining = np.arange(objectives.shape[0])
    fronts: list[np.ndarray] = []
    while remaining.size:
        mask = pareto_mask(objectives[remaining])
        fronts.append(remaining[mask])
        remaining = remaining[~mask]
    return fronts


@dataclass
class NSGA2Result:
    """Outcome of one NSGA-II run."""

    #: Final-population configurations (decoded).
    configs: list[Configuration]
    #: Predicted objective matrix of the final population (original sense).
    objectives: np.ndarray
    #: Objective names, in column order.
    objective_names: tuple[str, ...]
    #: Indices (into ``configs``) of the predicted-Pareto-optimal individuals.
    pareto_indices: np.ndarray
    #: Hypervolume-style progress: best first-front size per generation.
    front_sizes: list[int] = field(default_factory=list)
    #: Total surrogate evaluations spent.
    evaluations: int = 0

    @property
    def pareto_configs(self) -> list[Configuration]:
        """Configurations on the predicted Pareto front."""
        return [self.configs[int(i)] for i in self.pareto_indices]

    @property
    def pareto_objectives(self) -> np.ndarray:
        """Objective rows of the predicted Pareto front (original sense)."""
        return self.objectives[self.pareto_indices]


class NSGA2Explorer:
    """NSGA-II over index-encoded configurations with surrogate objectives."""

    def __init__(
        self,
        space: DesignSpace,
        *,
        population_size: int = 64,
        generations: int = 20,
        crossover_rate: float = 0.9,
        mutation_rate: Optional[float] = None,
        tournament_size: int = 2,
        seed: SeedLike = 0,
    ) -> None:
        if population_size < 4 or population_size % 2:
            raise ValueError("population_size must be an even number >= 4")
        if generations < 1:
            raise ValueError("generations must be >= 1")
        if not 0.0 <= crossover_rate <= 1.0:
            raise ValueError("crossover_rate must be in [0, 1]")
        if tournament_size < 2:
            raise ValueError("tournament_size must be >= 2")
        self.space = space
        self.population_size = population_size
        self.generations = generations
        self.crossover_rate = crossover_rate
        # Default: one expected mutation per individual.
        self.mutation_rate = (
            mutation_rate if mutation_rate is not None else 1.0 / space.num_parameters
        )
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in [0, 1]")
        self.tournament_size = tournament_size
        self.rng = as_rng(seed)
        self._cardinalities = space.cardinalities()

    # -- genetic operators ------------------------------------------------------
    def _random_population(self) -> np.ndarray:
        return np.stack(
            [self.rng.integers(0, c, size=self.population_size) for c in self._cardinalities],
            axis=1,
        )

    def _crossover(self, parent_a: np.ndarray, parent_b: np.ndarray) -> np.ndarray:
        """Uniform crossover on index vectors."""
        if self.rng.random() >= self.crossover_rate:
            return parent_a.copy()
        take_from_a = self.rng.random(parent_a.shape[0]) < 0.5
        return np.where(take_from_a, parent_a, parent_b)

    def _mutate(self, individual: np.ndarray) -> np.ndarray:
        """Re-sample each parameter index with probability ``mutation_rate``."""
        mutated = individual.copy()
        flips = self.rng.random(individual.shape[0]) < self.mutation_rate
        for position in np.nonzero(flips)[0]:
            mutated[position] = self.rng.integers(0, self._cardinalities[position])
        return mutated

    def _tournament(self, ranks: np.ndarray, crowding: np.ndarray) -> int:
        """Binary (or larger) tournament on (rank, -crowding distance)."""
        candidates = self.rng.integers(0, ranks.shape[0], size=self.tournament_size)
        best = candidates[0]
        for challenger in candidates[1:]:
            better_rank = ranks[challenger] < ranks[best]
            same_rank_more_spread = (
                ranks[challenger] == ranks[best] and crowding[challenger] > crowding[best]
            )
            if better_rank or same_rank_more_spread:
                best = challenger
        return int(best)

    # -- evaluation --------------------------------------------------------------
    def _evaluate(
        self, population: np.ndarray, predictors: dict[str, PredictorFn]
    ) -> np.ndarray:
        features = self.space.features_from_indices(population)
        columns = [
            np.asarray(predictors[name](features), dtype=np.float64).reshape(-1)
            for name in predictors
        ]
        return np.stack(columns, axis=1)

    @staticmethod
    def _rank_and_crowd(minimised: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ranks = np.empty(minimised.shape[0], dtype=np.int64)
        crowding = np.empty(minimised.shape[0], dtype=np.float64)
        for rank, front in enumerate(fast_non_dominated_sort(minimised)):
            ranks[front] = rank
            crowding[front] = crowding_distance(minimised[front])
        return ranks, crowding

    # -- main loop --------------------------------------------------------------------
    def explore(
        self,
        predictors: dict[str, PredictorFn],
        *,
        maximize: Optional[dict[str, bool]] = None,
    ) -> NSGA2Result:
        """Run the genetic search and return the final population + front.

        Parameters
        ----------
        predictors:
            Mapping from objective name to surrogate callable; at least one
            entry (single-objective degenerates to a plain GA).
        maximize:
            Which objectives are maximised; defaults to ``ipc`` maximised and
            everything else minimised, matching the rest of :mod:`repro.dse`.
        """
        if not predictors:
            raise ValueError("explore() needs at least one predictor")
        objective_names = tuple(predictors)
        maximize = maximize or {}
        maximize_flags = [maximize.get(name, name == "ipc") for name in objective_names]

        population = self._random_population()
        objectives = self._evaluate(population, predictors)
        evaluations = population.shape[0]
        front_sizes: list[int] = []

        for _ in range(self.generations):
            minimised = to_minimization(objectives, maximize_flags)
            ranks, crowding = self._rank_and_crowd(minimised)
            front_sizes.append(int(np.sum(ranks == 0)))

            # Offspring generation.
            children = np.empty_like(population)
            for child_index in range(self.population_size):
                parent_a = population[self._tournament(ranks, crowding)]
                parent_b = population[self._tournament(ranks, crowding)]
                children[child_index] = self._mutate(self._crossover(parent_a, parent_b))
            child_objectives = self._evaluate(children, predictors)
            evaluations += children.shape[0]

            # Environmental selection over the combined population.
            combined = np.concatenate([population, children], axis=0)
            combined_objectives = np.concatenate([objectives, child_objectives], axis=0)
            combined_min = to_minimization(combined_objectives, maximize_flags)
            selected: list[int] = []
            for front in fast_non_dominated_sort(combined_min):
                if len(selected) + len(front) <= self.population_size:
                    selected.extend(int(i) for i in front)
                else:
                    remaining = self.population_size - len(selected)
                    spread = crowding_distance(combined_min[front])
                    order = np.argsort(-spread)
                    selected.extend(int(front[i]) for i in order[:remaining])
                if len(selected) >= self.population_size:
                    break
            population = combined[selected]
            objectives = combined_objectives[selected]

        minimised = to_minimization(objectives, maximize_flags)
        configs = [self.space.from_indices(row) for row in population]
        return NSGA2Result(
            configs=configs,
            objectives=objectives,
            objective_names=objective_names,
            pareto_indices=np.nonzero(pareto_mask(minimised))[0],
            front_sizes=front_sizes,
            evaluations=evaluations,
        )
