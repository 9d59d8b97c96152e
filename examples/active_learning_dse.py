#!/usr/bin/env python3
"""Budget-constrained design-space exploration of a single workload.

The surrogate models exist to steer exploration.  This example compares
three ways of spending a small simulation budget on an unseen workload;
the two guided ones are one-workload campaigns of the shared
:class:`repro.dse.CampaignEngine` (candidate generator + acquisition +
surrogate):

1. **random search** — simulate random configurations;
2. **active learning** — the simulate/train/refine strategy
   (``rounds + refit`` with a tree-ensemble surrogate and the
   exploration-bonus acquisition, what ``repro explore --method active``
   runs);
3. **NSGA-II screening** — an :class:`repro.dse.NSGA2Evolve` candidate
   generator that evolves the pool against surrogates trained on the
   active-learning measurements before any further simulation is spent.

Quality is reported as the hypervolume of the measured IPC/power Pareto
front and as ADRS against a brute-force reference front.

Run with::

    python examples/active_learning_dse.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro import Simulator
from repro.baselines.trees import GradientBoostingRegressor
from repro.designspace.sampling import RandomSampler
from repro.dse import (
    CampaignEngine,
    ExplorationBonusAcquisition,
    NSGA2Evolve,
    ObjectiveSet,
    ParetoRankAcquisition,
    RandomPool,
    TreeEnsembleSurrogate,
    adrs,
    hypervolume_2d,
    pareto_front,
    to_minimization,
)

WORKLOAD = "620.omnetpp_s"
BUDGET = 60


def measured_front(simulator, configs, workload):
    """Simulate configurations and return their (ipc, power) rows + front."""
    batch = simulator.run_batch(configs, workload)
    rows = np.stack([batch.ipc, batch.power_w], axis=1)
    minimised = to_minimization(rows, [True, False])
    return rows, rows[pareto_front(minimised)]


def hypervolume(rows, reference_rows):
    minimised = to_minimization(rows, [True, False])
    reference_min = to_minimization(reference_rows, [True, False])
    nadir = np.maximum(minimised.max(axis=0), reference_min.max(axis=0))
    span = nadir - np.minimum(minimised.min(axis=0), reference_min.min(axis=0))
    point = nadir + 0.1 * np.maximum(span, 1e-12)
    return hypervolume_2d(minimised[pareto_front(minimised)], point)


def tree_surrogate(objectives):
    return TreeEnsembleSurrogate(
        lambda: GradientBoostingRegressor(n_estimators=60, max_depth=3, seed=0),
        objectives.names,
    )


def main() -> None:
    simulator = Simulator(simpoint_phases=1, seed=11, evaluation_cache=True)
    space = simulator.space
    objectives = ObjectiveSet.from_names(("ipc", "power"))
    engine = CampaignEngine(space, simulator, objectives, seed=1)

    # ---- reference front: brute-force a modest candidate pool -----------------
    print("building the brute-force reference front (this is what the budgeted "
          "explorers try to approximate) ...")
    start = time.time()
    reference_configs = RandomSampler(space, seed=99).sample(400)
    reference_rows, reference_front = measured_front(simulator, reference_configs, WORKLOAD)
    print(f"  400 simulations in {time.time() - start:.1f}s, "
          f"{len(reference_front)} Pareto-optimal points")
    reference_min = to_minimization(reference_front, [True, False])

    results = {}

    # ---- 1. budget-matched random search -------------------------------------
    random_configs = RandomSampler(space, seed=1).sample(BUDGET)
    results["random search"], _ = measured_front(simulator, random_configs, WORKLOAD)

    # ---- 2. active learning: rounds + refit, a one-workload campaign -----------
    active_result = engine.run_campaign(
        [WORKLOAD],
        {WORKLOAD: tree_surrogate(objectives)},
        generator=RandomPool(600),
        acquisition=ExplorationBonusAcquisition(),
        simulation_budget=BUDGET // 6,
        rounds=4,
        initial_samples=BUDGET // 3,
        refit=True,
    )[WORKLOAD]
    results["active learning"] = active_result.measured_objectives
    print("\nactive-learning hypervolume per round: "
          f"{[round(v, 3) for v in active_result.hypervolume_history()]}")

    # ---- 3. NSGA-II generator over surrogates fitted to the measurements -------
    nsga_surrogate = tree_surrogate(objectives)
    nsga_surrogate.fit(
        engine.encoder.encode_batch(active_result.simulated_configs),
        active_result.measured_objectives,
    )
    nsga_result = engine.run_campaign(
        [WORKLOAD],
        {WORKLOAD: nsga_surrogate},
        generator=NSGA2Evolve(population_size=32, generations=15, seed=1),
        acquisition=ParetoRankAcquisition(),
        simulation_budget=20,
    )[WORKLOAD]
    results["NSGA-II + validate"] = np.concatenate(
        [active_result.measured_objectives, nsga_result.measured_objectives], axis=0
    )

    # ---- report ------------------------------------------------------------------
    print(f"\n{WORKLOAD}: simulation budget {BUDGET} "
          f"(+{nsga_result.simulations_used} validation simulations for NSGA-II)")
    print(f"{'method':<20} {'hypervolume':>12} {'ADRS':>8} {'front size':>11}")
    for name, rows in results.items():
        minimised = to_minimization(rows, [True, False])
        front = minimised[pareto_front(minimised)]
        print(f"{name:<20} {hypervolume(rows, reference_front):>12.3f} "
              f"{adrs(front, reference_min):>8.3f} {len(front):>11d}")
    print(f"{'reference (400 sims)':<20} "
          f"{hypervolume(reference_rows, reference_front):>12.3f} "
          f"{adrs(reference_min, reference_min):>8.3f} {len(reference_front):>11d}")

    print("\nbest configurations found by active learning:")
    for config, row in zip(active_result.pareto_configs[:3], active_result.pareto_objectives[:3]):
        summary = ", ".join(
            f"{key}={config[key]}" for key in ("core_frequency_ghz", "pipeline_width", "rob_size")
        )
        print(f"  ipc={row[0]:.3f} power={row[1]:.2f}W  ({summary}, ...)")


if __name__ == "__main__":
    main()
