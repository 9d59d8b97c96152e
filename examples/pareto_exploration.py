#!/usr/bin/env python3
"""Cross-workload Pareto exploration through the campaign engine.

Shows the downstream use-case that motivates accurate cross-workload
predictors: once MetaDSE is meta-trained, ``MetaDSE.explore`` adapts the
IPC and power predictors to *every* target workload in one stacked graph
per metric (``adapt_many``), screens one shared candidate pool with a
stacked multi-objective surrogate (both objectives in one batched forward
per workload), and measures the union of all selections with a single
``run_sweep`` — one batched campaign instead of one loop per workload.

The script compares, per target workload, the Pareto front (maximise IPC,
minimise power) found by

* random search with a budget of N simulations,
* the MetaDSE campaign's *own* acquisition picks — the budget-matched
  comparison (N simulations per workload, after spending 10 simulations
  per workload per metric on adaptation), and
* the campaign front over the whole measured union: the other workloads'
  picks ride along in the same ``run_sweep``, so every workload gets their
  measurements for free,

and reports the hypervolume of the fronts.

Run with::

    python examples/pareto_exploration.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro import MetaDSE, Simulator, generate_dataset
from repro.core.config import default_config
from repro.datasets.splits import paper_split
from repro.datasets.tasks import holdout_task
from repro.designspace.sampling import RandomSampler
from repro.dse.pareto import hypervolume_2d, pareto_front, to_minimization

TARGETS = ("623.xalancbmk_s", "620.omnetpp_s")
SIMULATION_BUDGET = 25
SUPPORT_SIZE = 10


def main() -> None:
    simulator = Simulator(simpoint_phases=4, seed=7, evaluation_cache=True)
    dataset = generate_dataset(simulator, num_points=300, seed=1)
    split = paper_split(seed=0)

    # Meta-train one predictor per metric on the source workloads.
    models = {}
    for metric in ("ipc", "power"):
        model = MetaDSE(dataset.space.num_parameters, config=default_config(seed=0))
        model.pretrain(dataset, split, metric=metric)
        models[metric] = model
        print(f"meta-trained the {metric} predictor")

    # Few labelled samples per (metric, target) — the adaptation budget.
    supports = {
        metric: {
            target: (task.support_x, task.support_y)
            for target in TARGETS
            for task in [
                holdout_task(dataset[target], metric=metric,
                             support_size=SUPPORT_SIZE, query_size=50, seed=3)
            ]
        }
        for metric in ("ipc", "power")
    }

    # One call: adapt_many per metric, stacked screening, one run_sweep.
    campaign = models["ipc"].explore(
        simulator,
        supports["ipc"],
        objectives={"power": models["power"]},
        objective_supports={"power": supports["power"]},
        candidate_pool=2000,
        simulation_budget=SIMULATION_BUDGET,
        seed=5,
    )

    # One random-search stream across the targets.
    random_sampler = RandomSampler(dataset.space, seed=5)

    def hypervolume(front):
        # Hypervolume in minimisation space (-IPC, power) w.r.t. a fixed point.
        return hypervolume_2d(to_minimization(front, [True, False]), (0.0, 6.0))

    def front_of(rows):
        minimised = to_minimization(rows, [True, False])
        return rows[pareto_front(minimised)]

    for target in TARGETS:
        random_batch = simulator.run_batch(
            random_sampler.sample(SIMULATION_BUDGET), target
        )
        random_rows = np.stack([random_batch.ipc, random_batch.power_w], axis=1)
        result = campaign[target]
        # Budget-matched view: only this workload's own acquisition picks
        # (SIMULATION_BUDGET rows); the union front adds the measurements
        # the other workloads' picks contributed for free.
        own_rows = result.measured_objectives[result.selected_indices]
        print(f"\ntarget workload: {target}, simulation budget: {SIMULATION_BUDGET} "
              f"(union measured: {result.simulations_used})")
        print(f"{'strategy':<24}{'sims':>6}{'front':>7}{'best IPC':>10}{'min power':>11}{'hypervolume':>13}")
        for name, sims, front in (
            ("random search", SIMULATION_BUDGET, front_of(random_rows)),
            ("campaign (own picks)", len(result.selected_indices),
             front_of(own_rows)),
            ("campaign (+shared union)", result.simulations_used,
             result.pareto_objectives),
        ):
            print(f"{name:<24}{sims:>6}{len(front):>7}{front[:, 0].max():>10.3f}"
                  f"{front[:, 1].min():>11.3f}{hypervolume(front):>13.3f}")

        print("MetaDSE campaign Pareto-optimal configurations:")
        for config, objectives in zip(result.pareto_configs, result.pareto_objectives):
            print(f"  IPC {objectives[0]:.3f}  power {objectives[1]:.2f} W  "
                  f"width={config['pipeline_width']} rob={config['rob_size']} "
                  f"freq={config['core_frequency_ghz']}GHz l2={config['l2_size_kb']}KB")


if __name__ == "__main__":
    main()
