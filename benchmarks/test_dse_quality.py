"""Extended benchmark — DSE quality under a fixed simulation budget.

Not a paper artefact, but the reason surrogate accuracy matters: a better
predictor finds a better IPC/power Pareto front for the same number of
simulations.  This benchmark compares, on one unseen workload and a matched
simulation budget:

* budget-matched **random search**;
* the **active-learning** simulate/train/refine loop (a one-workload
  refit campaign of :class:`repro.dse.CampaignEngine`);
* **surrogate screening** with a GBRT trained on the active-learning
  measurements followed by NSGA-II search
  (:class:`repro.dse.NSGA2Explorer`), validated in simulation.

Quality is measured as ADRS and hypervolume ratio against a brute-force
reference front, and the regenerated table is written to
``benchmarks/results/dse_quality.json``.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.trees import GradientBoostingRegressor, RandomForestRegressor
from repro.designspace.encoding import OrdinalEncoder
from repro.designspace.sampling import RandomSampler
from repro.dse.acquisition import ExplorationBonusAcquisition
from repro.dse.engine import CampaignEngine, ObjectiveSet, RandomPool
from repro.dse.nsga2 import NSGA2Explorer
from repro.dse.pareto import pareto_front, to_minimization
from repro.dse.quality import adrs, hypervolume_ratio
from repro.dse.surrogates import TreeEnsembleSurrogate
from repro.sim.simulator import Simulator
from repro.core.config import is_full_eval

TARGET_WORKLOAD = "620.omnetpp_s"
BUDGET = 90 if is_full_eval() else 45
REFERENCE_POOL = 1500 if is_full_eval() else 300
MAXIMIZE = [True, False]  # ipc up, power down


def _front(rows: np.ndarray) -> np.ndarray:
    minimised = to_minimization(rows, MAXIMIZE)
    return minimised[pareto_front(minimised)]


def test_dse_quality_under_budget(benchmark, record):
    simulator = Simulator(simpoint_phases=1, seed=13)
    space = simulator.space
    encoder = OrdinalEncoder(space)

    # Brute-force reference front.
    reference_configs = RandomSampler(space, seed=77).sample(REFERENCE_POOL)
    reference_rows = np.array(
        [[r.ipc, r.power_w] for r in simulator.run_batch(reference_configs, TARGET_WORKLOAD)]
    )
    reference_front = _front(reference_rows)

    def run_methods():
        results = {}

        random_batch = simulator.run_batch(
            RandomSampler(space, seed=5).sample(BUDGET), TARGET_WORKLOAD
        )
        random_rows = np.stack([random_batch.ipc, random_batch.power_w], axis=1)
        results["random"] = {"rows": random_rows, "simulations": BUDGET}

        objectives = ObjectiveSet.from_names(("ipc", "power"))
        engine = CampaignEngine(space, simulator, objectives, seed=5)
        forest = TreeEnsembleSurrogate(
            lambda: RandomForestRegressor(n_estimators=30, max_depth=10, seed=0),
            objectives.names,
        )
        active = engine.run_campaign(
            [TARGET_WORKLOAD],
            {TARGET_WORKLOAD: forest},
            generator=RandomPool(400),
            acquisition=ExplorationBonusAcquisition(),
            simulation_budget=max(BUDGET // 6, 1),
            rounds=4,
            initial_samples=BUDGET // 3,
            refit=True,
        )[TARGET_WORKLOAD]
        results["active"] = {
            "rows": active.measured_objectives,
            "simulations": active.simulations_used,
        }

        # NSGA-II over surrogates fitted to the active measurements, validated
        # with a small extra simulation budget.
        features = encoder.encode_batch(active.simulated_configs)
        surrogates = {}
        for column, name in enumerate(("ipc", "power")):
            surrogate = GradientBoostingRegressor(n_estimators=60, max_depth=3, seed=0)
            surrogate.fit(features, active.measured_objectives[:, column])
            surrogates[name] = surrogate.predict
        nsga = NSGA2Explorer(space, population_size=32, generations=10, seed=5)
        predicted = nsga.explore(surrogates)
        validation_configs = predicted.pareto_configs[: max(BUDGET // 5, 5)]
        validated = np.array(
            [[r.ipc, r.power_w] for r in simulator.run_batch(validation_configs, TARGET_WORKLOAD)]
        )
        results["nsga2_screen"] = {
            "rows": np.concatenate([active.measured_objectives, validated], axis=0),
            "simulations": active.simulations_used + len(validation_configs),
        }
        return results

    results = benchmark.pedantic(run_methods, rounds=1, iterations=1)

    table = {}
    for method, entry in results.items():
        front = _front(entry["rows"])
        table[method] = {
            "simulations": int(entry["simulations"]),
            "adrs": adrs(front, reference_front),
            "hypervolume_ratio": hypervolume_ratio(front, reference_front),
            "front_size": int(front.shape[0]),
        }
    record("dse_quality", {
        "workload": TARGET_WORKLOAD,
        "budget": BUDGET,
        "reference_pool": REFERENCE_POOL,
        "reference_front_size": int(reference_front.shape[0]),
        "methods": table,
    })

    print(f"\nDSE quality on {TARGET_WORKLOAD} (budget {BUDGET} simulations)")
    print(f"{'method':<14} {'sims':>5} {'ADRS':>8} {'HV ratio':>9} {'front':>6}")
    for method, row in table.items():
        print(f"{method:<14} {row['simulations']:>5d} {row['adrs']:>8.3f} "
              f"{row['hypervolume_ratio']:>9.3f} {row['front_size']:>6d}")

    for row in table.values():
        assert np.isfinite(row["adrs"]) and row["adrs"] >= 0
        assert 0 <= row["hypervolume_ratio"] <= 1.5
    # Guided exploration must not be substantially worse than random search.
    assert table["active"]["hypervolume_ratio"] >= 0.85 * table["random"]["hypervolume_ratio"]
