"""Bitwise equivalence of the parallel runtime against the serial reference.

The runtime's determinism contract (``docs/runtime.md``): for noise-free
simulators, every executor path — sharded ``run_batch``/``run_sweep``,
parallel dataset generation, and thread/process campaigns — produces
results **bitwise identical** to the :class:`SerialExecutor` reference.
These tests pin that contract for every executor kind, and pin a
single-round campaign against an independent spec,
``PredictorGuidedExplorer.explore_reference`` (the same idiom as
``tests/test_sim_batch_equivalence.py`` pinning ``run_batch`` against
``run_scalar``).
"""

from functools import partial

import numpy as np
import pytest

from repro.baselines.trees import GradientBoostingRegressor
from repro.datasets.generation import generate_dataset
from repro.designspace.sampling import RandomSampler
from repro.dse.engine import CampaignEngine, NSGA2Evolve, ObjectiveSet
from repro.dse.explorer import PredictorGuidedExplorer
from repro.dse.surrogates import CallableSurrogate, TreeEnsembleSurrogate
from repro.runtime.executors import ProcessExecutor, SerialExecutor, ThreadExecutor
from repro.sim.simulator import Simulator

WORKLOADS = ("605.mcf_s", "625.x264_s", "602.gcc_s")

METRICS = ("ipc", "power_w", "area_mm2", "bips", "energy_per_instruction_nj")


def _executor_factories():
    return [
        pytest.param(SerialExecutor, id="serial"),
        pytest.param(lambda: ThreadExecutor(2), id="thread"),
        pytest.param(lambda: ProcessExecutor(2), id="process"),
    ]


def make_simulator(cache: bool = False) -> Simulator:
    return Simulator(simpoint_phases=3, seed=17, evaluation_cache=cache)


@pytest.fixture(scope="module")
def configs():
    return RandomSampler(make_simulator().space, seed=9).sample(23)


# -- simulator sweeps ---------------------------------------------------------------
class TestSimulatorEquivalence:
    @pytest.mark.parametrize("make_executor", _executor_factories())
    def test_run_batch_bitwise(self, configs, make_executor):
        reference = make_simulator().run_batch(configs, WORKLOADS[0])
        with make_executor() as executor:
            parallel = make_simulator().run_batch(
                configs, WORKLOADS[0], executor=executor
            )
        for metric in METRICS:
            np.testing.assert_array_equal(
                getattr(reference, metric), getattr(parallel, metric), err_msg=metric
            )

    @pytest.mark.parametrize("make_executor", _executor_factories())
    @pytest.mark.parametrize("cache", [False, True])
    def test_run_sweep_bitwise(self, configs, make_executor, cache):
        reference = make_simulator(cache).run_sweep(configs, WORKLOADS)
        with make_executor() as executor:
            parallel = make_simulator(cache).run_sweep(
                configs, WORKLOADS, executor=executor
            )
        for workload in WORKLOADS:
            for metric in METRICS:
                np.testing.assert_array_equal(
                    getattr(reference[workload], metric),
                    getattr(parallel[workload], metric),
                    err_msg=f"{workload}/{metric}",
                )

    def test_single_config_sweep_parallelises_over_workloads(self, configs):
        # One configuration still fans out across the workload axis; the
        # result must stay bitwise identical to serial.
        reference = make_simulator().run_sweep(configs[:1], WORKLOADS)
        with ThreadExecutor(2) as executor:
            parallel = make_simulator().run_sweep(
                configs[:1], WORKLOADS, executor=executor
            )
        for workload in WORKLOADS:
            np.testing.assert_array_equal(
                reference[workload].ipc, parallel[workload].ipc
            )

    def test_parallel_fills_the_parent_cache(self, configs):
        # After a parallel sweep, repeats are served entirely from the
        # parent's merged cache: same arrays, no new evaluations.
        simulator = make_simulator(cache=True)
        with ThreadExecutor(2) as executor:
            first = simulator.run_sweep(configs, WORKLOADS, executor=executor)
            count = simulator.evaluation_count
            again = simulator.run_sweep(configs, WORKLOADS, executor=executor)
        assert simulator.evaluation_count == count
        for workload in WORKLOADS:
            np.testing.assert_array_equal(first[workload].ipc, again[workload].ipc)

    def test_warm_parent_cache_is_read_by_thread_workers(self, configs):
        simulator = make_simulator(cache=True)
        serial = simulator.run_sweep(configs[:10], WORKLOADS)
        count = simulator.evaluation_count
        with ThreadExecutor(2) as executor:
            parallel = simulator.run_sweep(configs, WORKLOADS, executor=executor)
        # The first 10 configurations were cache hits inside the workers.
        expected_fresh = (len(configs) - 10) * 3 * len(WORKLOADS)
        assert simulator.evaluation_count == count + expected_fresh
        for workload in WORKLOADS:
            np.testing.assert_array_equal(
                serial[workload].ipc, parallel[workload].ipc[:10]
            )

    def test_noisy_simulator_rejects_parallel_evaluation(self, configs):
        noisy = Simulator(simpoint_phases=2, noise_std=0.05, seed=1)
        with ThreadExecutor(2) as executor:
            with pytest.raises(ValueError, match="noise-free"):
                noisy.run_batch(configs, WORKLOADS[0], executor=executor)
            with pytest.raises(ValueError, match="noise-free"):
                noisy.run_sweep(configs, WORKLOADS, executor=executor)

    def test_pickled_simulator_ships_an_empty_cache(self, configs):
        import pickle

        simulator = make_simulator(cache=True)
        simulator.run_sweep(configs, WORKLOADS)
        clone = pickle.loads(pickle.dumps(simulator))
        assert clone._evaluation_cache == {}
        # ... but the warm phase tables travel with it.
        assert set(clone._phase_table_cache) == set(simulator._phase_table_cache)
        np.testing.assert_array_equal(
            clone.run_batch(configs[:3], WORKLOADS[0]).ipc,
            simulator.run_batch(configs[:3], WORKLOADS[0]).ipc,
        )


# -- dataset generation --------------------------------------------------------------
class TestDatasetGenerationEquivalence:
    @pytest.mark.parametrize("make_executor", _executor_factories())
    def test_generate_dataset_bitwise(self, make_executor):
        reference = generate_dataset(
            make_simulator(), workloads=list(WORKLOADS), num_points=30, seed=5
        )
        with make_executor() as executor:
            parallel = generate_dataset(
                make_simulator(),
                workloads=list(WORKLOADS),
                num_points=30,
                seed=5,
                executor=executor,
            )
        for workload in WORKLOADS:
            np.testing.assert_array_equal(
                reference[workload].features, parallel[workload].features
            )
            for metric in ("ipc", "power"):
                np.testing.assert_array_equal(
                    reference[workload].metric(metric),
                    parallel[workload].metric(metric),
                    err_msg=f"{workload}/{metric}",
                )


# -- campaigns -----------------------------------------------------------------------
def _linear_ipc(offset, features):
    return features.sum(axis=1) + offset


def _linear_power(offset, features):
    return (features ** 2).sum(axis=1) - offset


def callable_surrogates():
    return {
        workload: CallableSurrogate(
            {
                "ipc": partial(_linear_ipc, 0.1 * index),
                "power": partial(_linear_power, 0.05 * index),
            }
        )
        for index, workload in enumerate(WORKLOADS)
    }


def tree_surrogates(seed=3):
    factory = partial(GradientBoostingRegressor, n_estimators=6, max_depth=2, seed=seed)
    return {
        workload: TreeEnsembleSurrogate(factory, ("ipc", "power"))
        for workload in WORKLOADS
    }


def make_engine() -> CampaignEngine:
    simulator = Simulator(simpoint_phases=2, seed=11, evaluation_cache=True)
    return CampaignEngine(
        simulator.space,
        simulator,
        ObjectiveSet.from_names(("ipc", "power")),
        seed=5,
    )


def _assert_campaigns_bitwise_equal(reference, candidate):
    assert reference.workloads == candidate.workloads
    assert reference.candidates_screened == candidate.candidates_screened
    assert reference.total_simulations == candidate.total_simulations
    for workload in reference.workloads:
        ref, got = reference[workload], candidate[workload]
        np.testing.assert_array_equal(ref.measured_objectives, got.measured_objectives)
        np.testing.assert_array_equal(ref.pareto_indices, got.pareto_indices)
        assert ref.selected_indices == got.selected_indices
        assert ref.simulated_configs == got.simulated_configs
        assert ref.hypervolume_history() == got.hypervolume_history()


def _sorted_by_config(configs, rows):
    order = sorted(range(len(configs)), key=lambda i: tuple(sorted(configs[i].items())))
    return [configs[i] for i in order], rows[order]


class TestCampaignEquivalence:
    @pytest.mark.parametrize("pool, budget", [(80, 12), (60, 40)])
    @pytest.mark.parametrize("make_executor", _executor_factories())
    def test_single_round_matches_explorer_reference(self, make_executor, pool, budget):
        # The independent spec of a one-workload, one-round shared-pool
        # campaign: PredictorGuidedExplorer's pre-engine loop over the same
        # sampler seed, simulator and predictors.
        workload = WORKLOADS[0]
        predictors = {
            "ipc": partial(_linear_ipc, 0.0),
            "power": partial(_linear_power, 0.0),
        }
        simulator = Simulator(simpoint_phases=2, seed=11)
        reference = PredictorGuidedExplorer(
            simulator.space, simulator, seed=5
        ).explore_reference(
            workload, predictors, candidate_pool=pool, simulation_budget=budget
        )
        kwargs = dict(candidate_pool=pool, simulation_budget=budget)
        surrogates = {workload: CallableSurrogate(predictors)}
        with make_executor() as executor:
            campaign = make_engine().run_campaign(
                [workload], surrogates, executor=executor, **kwargs
            )
        result = campaign[workload]
        configs, rows = _sorted_by_config(
            result.simulated_configs, result.measured_objectives
        )
        expected_configs, expected_rows = _sorted_by_config(
            reference.simulated_configs, reference.measured_objectives
        )
        assert configs == expected_configs
        np.testing.assert_array_equal(rows, expected_rows)
        np.testing.assert_array_equal(result.predicted, reference.extras["predicted"])
        serial = make_engine().run_campaign([workload], surrogates, **kwargs)
        _assert_campaigns_bitwise_equal(serial, campaign)

    @pytest.mark.parametrize("make_executor", _executor_factories()[1:])
    def test_multi_round_refit_campaign_bitwise(self, make_executor):
        kwargs = dict(
            candidate_pool=40,
            simulation_budget=4,
            rounds=3,
            initial_samples=5,
            refit=True,
        )
        reference = make_engine().run_campaign(
            WORKLOADS, tree_surrogates(), executor=SerialExecutor(), **kwargs
        )
        with make_executor() as executor:
            parallel = make_engine().run_campaign(
                WORKLOADS, tree_surrogates(), executor=executor, **kwargs
            )
        _assert_campaigns_bitwise_equal(reference, parallel)

    def test_shared_stream_surrogate_dependent_generator_is_rejected(self):
        # Int-seeded NSGA2Evolve is rank-stable and accepted (pinned by
        # tests/test_dse_portfolio_equivalence.py); seeding with an existing
        # Generator keeps the legacy shared mutable stream, which the
        # runtime cannot shard or resume deterministically.
        # The default executor (None) is the serial one, so it refuses too;
        # single-workload CampaignEngine.run still drives such generators.
        shared_stream = NSGA2Evolve(
            population_size=8, generations=2, seed=np.random.default_rng(0)
        )
        assert not shared_stream.rank_stable
        for executor in (None, SerialExecutor()):
            with pytest.raises(ValueError, match="rank-stable") as info:
                make_engine().run_campaign(
                    WORKLOADS,
                    callable_surrogates(),
                    generator=shared_stream,
                    simulation_budget=4,
                    executor=executor,
                )
            assert "CampaignEngine.run" in str(info.value)

    def test_refit_requires_refittable_surrogates(self):
        with pytest.raises(ValueError, match="refittable"):
            make_engine().run_campaign(
                WORKLOADS,
                callable_surrogates(),
                candidate_pool=20,
                simulation_budget=3,
                rounds=2,
                initial_samples=4,
                refit=True,
                executor=SerialExecutor(),
            )
