"""Outcome invariance of a campaign under its executor.

``executor`` (and the ``jobs`` knob that resolves to it) sets a campaign's
throughput only.  ``CampaignEngine.run_campaign`` always runs the runtime's
round loop, ``executor=None`` meaning the :class:`SerialExecutor`, so every
strategy — shared-stream pools and rank-stable keyed ones alike — must give
the bitwise-identical campaign under every executor.  Each strategy here
runs 2 workloads x 3 rounds with initial samples and refits, on picklable
tree surrogates, and is compared field by field with its serial run.
"""

from functools import partial

import numpy as np
import pytest

from repro.baselines.trees import GradientBoostingRegressor
from repro.dse.engine import (
    CampaignEngine,
    FocusedPool,
    NSGA2Evolve,
    ObjectiveSet,
    RandomPool,
)
from repro.dse.portfolio import StrategyPortfolio
from repro.dse.surrogates import TreeEnsembleSurrogate
from repro.meta.wam import ImportanceProfile
from repro.runtime.executors import ProcessExecutor, SerialExecutor, ThreadExecutor
from repro.sim.simulator import Simulator

WORKLOADS = ("605.mcf_s", "625.x264_s")

CAMPAIGN = dict(simulation_budget=4, rounds=3, initial_samples=5, refit=True)

POOL = 24


def make_engine() -> CampaignEngine:
    simulator = Simulator(simpoint_phases=2, seed=11, evaluation_cache=True)
    return CampaignEngine(
        simulator.space,
        simulator,
        ObjectiveSet.from_names(("ipc", "power")),
        seed=5,
    )


def tree_surrogates():
    factory = partial(GradientBoostingRegressor, n_estimators=6, max_depth=2, seed=0)
    return {
        workload: TreeEnsembleSurrogate(factory, ("ipc", "power"))
        for workload in WORKLOADS
    }


def fixed_profile() -> ImportanceProfile:
    num_parameters = make_engine().space.num_parameters
    return ImportanceProfile(scores=np.random.default_rng(3).random(num_parameters))


def make_nsga2() -> NSGA2Evolve:
    return NSGA2Evolve(population_size=16, generations=3, seed=7)


STRATEGIES = {
    "random": lambda: RandomPool(POOL),
    "focused": lambda: FocusedPool(
        POOL, keep_fraction=0.4, coarse_levels=2, profile=fixed_profile()
    ),
    "nsga2": make_nsga2,
    "portfolio": lambda: StrategyPortfolio(
        {"random": RandomPool(POOL, seed=7), "nsga2": make_nsga2()}
    ),
}

EXECUTORS = {
    "none": lambda: None,
    "serial": SerialExecutor,
    "thread2": partial(ThreadExecutor, 2),
    "thread4": partial(ThreadExecutor, 4),
    "process2": partial(ProcessExecutor, 2),
}


def run(strategy: str, executor_kind: str):
    executor = EXECUTORS[executor_kind]()
    try:
        return make_engine().run_campaign(
            WORKLOADS,
            tree_surrogates(),
            generator=STRATEGIES[strategy](),
            executor=executor,
            **CAMPAIGN,
        )
    finally:
        if executor is not None:
            executor.shutdown()


@pytest.fixture(scope="module")
def serial_runs():
    """The serial campaign per strategy, computed on first use."""
    cache = {}

    def get(strategy):
        if strategy not in cache:
            cache[strategy] = run(strategy, "serial")
        return cache[strategy]

    return get


@pytest.mark.parametrize("executor_kind", sorted(EXECUTORS))
@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_executor_does_not_change_the_campaign(serial_runs, strategy, executor_kind):
    reference = serial_runs(strategy)
    campaign = run(strategy, executor_kind)
    assert campaign.workloads == reference.workloads
    assert campaign.candidates_screened == reference.candidates_screened
    assert [result.hypervolume_history() for result in campaign] == [
        result.hypervolume_history() for result in reference
    ]
    for workload in WORKLOADS:
        ref, got = reference[workload], campaign[workload]
        assert got.simulated_configs == ref.simulated_configs
        np.testing.assert_array_equal(got.measured_objectives, ref.measured_objectives)
        np.testing.assert_array_equal(got.pareto_indices, ref.pareto_indices)
        assert got.selected_indices == ref.selected_indices
        assert got.candidates_screened == ref.candidates_screened
