"""Pre-engine single-workload exploration loops (executable specifications).

Every exploration runs through
:meth:`~repro.dse.engine.CampaignEngine.run_campaign`; a single-workload
exploration is a one-workload campaign.  The two loops it replaced survive
here as plain functions, the reference
``tests/test_dse_engine_equivalence.py`` pins one-workload campaigns
against bitwise — the role ``Simulator.run_scalar`` plays for the batch
simulator and ``meta_step_scalar`` for task-batched MAML:

* :func:`predictor_guided_reference` — screen one random pool with
  per-objective predictor callables and simulate the predicted Pareto
  front, topped up by the first objective (a ``RandomPool`` +
  ``ParetoRankAcquisition`` campaign);
* :func:`active_learning_reference` — simulate initial samples, then each
  round refit one regressor per objective, screen a fresh random pool and
  simulate the predicted front ranked by exploration bonus (a ``rounds=r,
  initial_samples=k, refit=True`` campaign with a ``TreeEnsembleSurrogate``
  and ``ExplorationBonusAcquisition``).

Both draw their pools and initial samples from one
``RandomSampler(space, seed=seed)`` stream, as an engine built with the
same seed does, and return the engine's
:class:`~repro.dse.engine.WorkloadCampaignResult`.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np

from repro.designspace.encoding import OrdinalEncoder
from repro.designspace.sampling import RandomSampler
from repro.designspace.space import Configuration, DesignSpace
from repro.dse.engine import (
    CampaignRound,
    ObjectiveSet,
    WorkloadCampaignResult,
    front_hypervolume,
)
from repro.dse.pareto import pareto_front, to_minimization
from repro.dse.surrogates import (
    PredictorFn,
    RegressorFactory,
    blended_exploration_bonus,
)
from repro.sim.simulator import Simulator
from repro.utils.rng import SeedLike


def _measure(
    simulator: Simulator,
    configs: list[Configuration],
    workload: str,
    names: Sequence[str],
) -> np.ndarray:
    batch = simulator.run_batch(configs, workload)
    return np.stack([batch.objective(name) for name in names], axis=1)


def _round(
    round_index: int, simulated: list, measured: np.ndarray, flags: list[bool]
) -> CampaignRound:
    measured_min = to_minimization(measured, flags)
    return CampaignRound(
        round_index=round_index,
        simulations_total=len(simulated),
        pareto_size=int(len(pareto_front(measured_min))),
        # Only the two-objective indicator is specified here.
        hypervolume=(
            front_hypervolume(measured_min)
            if measured_min.shape[1] == 2
            else float("nan")
        ),
    )


def predictor_guided_reference(
    space: DesignSpace,
    simulator: Simulator,
    workload: str,
    predictors: Mapping[str, PredictorFn],
    *,
    maximize: Optional[Mapping[str, bool]] = None,
    candidate_pool: int = 2000,
    simulation_budget: int = 30,
    seed: SeedLike = 0,
) -> WorkloadCampaignResult:
    """Screen one random pool with *predictors*, simulate the best."""
    objectives = ObjectiveSet.from_names(tuple(predictors), maximize)
    flags = objectives.flags()
    sampler = RandomSampler(space, seed=seed)

    candidates = sampler.sample(candidate_pool)
    features = OrdinalEncoder(space).encode_batch(candidates)
    predicted = np.stack(
        [
            np.asarray(predictors[name](features), dtype=np.float64)
            for name in objectives.names
        ],
        axis=1,
    )
    ranked = to_minimization(predicted, flags)

    # Pick the predicted Pareto front first; fill the remaining budget with
    # the best-ranked points by the first objective.
    front = [int(i) for i in pareto_front(ranked)]
    if len(front) < simulation_budget:
        chosen = set(front)
        remaining = [int(i) for i in np.argsort(ranked[:, 0]) if int(i) not in chosen]
        front.extend(remaining[: simulation_budget - len(front)])
    selected = front[:simulation_budget]

    simulated = [candidates[i] for i in selected]
    measured = _measure(simulator, simulated, workload, objectives.names)
    return WorkloadCampaignResult(
        workload=workload,
        objectives=objectives,
        simulated_configs=simulated,
        measured_objectives=measured,
        pareto_indices=pareto_front(to_minimization(measured, flags)),
        simulations_used=len(simulated),
        candidates_screened=candidate_pool,
        rounds=[_round(0, simulated, measured, flags)],
        selected_indices=list(range(len(simulated))),
        predicted=predicted,
    )


def active_learning_reference(
    space: DesignSpace,
    simulator: Simulator,
    workload: str,
    *,
    surrogate_factory: RegressorFactory,
    objective_names: Sequence[str] = ("ipc", "power"),
    maximize: Optional[Mapping[str, bool]] = None,
    candidate_pool: int = 1000,
    initial_samples: int = 20,
    batch_size: int = 10,
    rounds: int = 5,
    seed: SeedLike = 0,
) -> WorkloadCampaignResult:
    """Simulate, refit, screen a fresh pool, simulate the best; repeat."""
    objectives = ObjectiveSet.from_names(tuple(objective_names), maximize)
    flags = objectives.flags()
    sampler = RandomSampler(space, seed=seed)
    encoder = OrdinalEncoder(space)

    simulated = sampler.sample(initial_samples)
    measured = _measure(simulator, simulated, workload, objectives.names)
    history: list[CampaignRound] = []
    for round_index in range(rounds):
        known_features = encoder.encode_batch(simulated)
        surrogates = []
        for column in range(measured.shape[1]):
            surrogate = surrogate_factory()
            surrogate.fit(known_features, measured[:, column])
            surrogates.append(surrogate)

        candidates = sampler.sample(candidate_pool)
        candidate_features = encoder.encode_batch(candidates)
        predicted = np.stack(
            [surrogate.predict(candidate_features) for surrogate in surrogates], axis=1
        )
        predicted_min = to_minimization(predicted, flags)

        # Rank by predicted Pareto membership, then by exploration bonus.
        front_indices = set(int(i) for i in pareto_front(predicted_min))
        bonus = blended_exploration_bonus(surrogates, candidate_features, known_features)
        order = sorted(
            range(len(candidates)),
            key=lambda i: (0 if i in front_indices else 1, -bonus[i]),
        )
        chosen = [candidates[i] for i in order[:batch_size]]

        simulated.extend(chosen)
        measured = np.concatenate(
            [measured, _measure(simulator, chosen, workload, objectives.names)], axis=0
        )
        history.append(_round(round_index, simulated, measured, flags))

    return WorkloadCampaignResult(
        workload=workload,
        objectives=objectives,
        simulated_configs=simulated,
        measured_objectives=measured,
        pareto_indices=pareto_front(to_minimization(measured, flags)),
        simulations_used=len(simulated),
        candidates_screened=rounds * candidate_pool,
        rounds=history,
        selected_indices=list(range(len(simulated) - len(chosen), len(simulated))),
        predicted=predicted,
    )
