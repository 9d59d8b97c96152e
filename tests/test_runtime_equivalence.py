"""Bitwise equivalence of the parallel runtime against the serial reference.

The runtime's determinism contract (``docs/runtime.md``): every executor
path — sharded ``run_batch``/``run_sweep``,
parallel dataset generation, and thread/process campaigns — produces
results **bitwise identical** to the :class:`SerialExecutor` reference.
These tests pin that contract for every executor kind, and pin a
single-round campaign against an independent spec,
``repro.dse.reference.predictor_guided_reference`` (the same idiom as
``tests/test_sim_batch_equivalence.py`` pinning ``run_batch`` against
``run_scalar``).
"""

import json
from functools import partial

import numpy as np
import pytest

from repro.baselines.trees import GradientBoostingRegressor
from repro.datasets.generation import generate_dataset
from repro.designspace.encoding import OrdinalEncoder
from repro.designspace.sampling import RandomSampler
from repro.dse.acquisition import AcquisitionContext, ParetoRankAcquisition
from repro.dse.engine import CampaignEngine, CandidateGenerator, ObjectiveSet
from repro.dse.reference import predictor_guided_reference
from repro.dse.surrogates import CallableSurrogate, TreeEnsembleSurrogate
from repro.runtime.checkpoint import CampaignCheckpoint
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
        def sweep(executor=None):
            simulator = make_simulator(cache)
            result = simulator.run_sweep(configs, WORKLOADS, executor=executor)
            return result, (simulator.evaluation_count, simulator.store_hit_count)

        reference, serial_counts = sweep()
        with make_executor() as executor:
            parallel, counts = sweep(executor)
        assert counts == serial_counts
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


class TestCampaignEquivalence:
    @pytest.mark.parametrize("pool, budget", [(80, 12), (60, 40)])
    @pytest.mark.parametrize("make_executor", _executor_factories())
    def test_single_round_matches_explorer_reference(self, make_executor, pool, budget):
        # The independent spec of a one-workload, one-round shared-pool
        # campaign: the pre-engine screening loop over the same sampler
        # seed, simulator and predictors.
        workload = WORKLOADS[0]
        predictors = {
            "ipc": partial(_linear_ipc, 0.0),
            "power": partial(_linear_power, 0.0),
        }
        simulator = Simulator(simpoint_phases=2, seed=11)
        reference = predictor_guided_reference(
            simulator.space,
            simulator,
            workload,
            predictors,
            candidate_pool=pool,
            simulation_budget=budget,
            seed=5,
        )
        kwargs = dict(candidate_pool=pool, simulation_budget=budget)
        surrogates = {workload: CallableSurrogate(predictors)}
        with make_executor() as executor:
            campaign = make_engine().run_campaign(
                [workload], surrogates, executor=executor, **kwargs
            )
        result = campaign[workload]
        # Measured in acquisition order: configurations and rows in order.
        assert result.simulated_configs == reference.simulated_configs
        np.testing.assert_array_equal(
            result.measured_objectives, reference.measured_objectives
        )
        np.testing.assert_array_equal(result.predicted, reference.predicted)
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

    def test_shared_pool_union_is_picks_in_workload_then_acquisition_order(
        self, tmp_path
    ):
        workloads = WORKLOADS[:2]
        pool, budget = 60, 8
        engine = make_engine()
        surrogates = callable_surrogates()
        checkpoint = tmp_path / "campaign.json"
        campaign = engine.run_campaign(
            workloads,
            surrogates,
            candidate_pool=pool,
            simulation_budget=budget,
            checkpoint=checkpoint,
        )
        # The independent expectation: replay the shared pool, select per
        # workload, union the picks in workload order then acquisition
        # order, first occurrence wins.
        candidates = RandomSampler(engine.space, seed=5).sample(pool)
        features = OrdinalEncoder(engine.space).encode_batch(candidates)
        picks = {}
        for workload in workloads:
            predicted = surrogates[workload].predict(features)
            picks[workload] = ParetoRankAcquisition().select(
                engine.objectives.to_minimization(predicted),
                budget,
                AcquisitionContext(
                    features=features,
                    known_features=None,
                    surrogate=surrogates[workload],
                    objectives=engine.objectives,
                ),
            )
        expected, expected_indices = [], []
        for workload in workloads:
            for index in picks[workload]:
                if candidates[index] not in expected:
                    expected.append(candidates[index])
                    expected_indices.append(index)
        # The case exercises both deduplication and a non-sorted union.
        assert len(expected) < sum(len(p) for p in picks.values())
        assert expected_indices != sorted(expected_indices)

        (record,) = CampaignCheckpoint.resume_or_start(
            checkpoint, json.loads(checkpoint.read_text())["fingerprint"]
        ).rounds
        assert record.union_configs == expected
        assert record.union_pool_indices == expected_indices
        assert [candidates[i] for i in record.union_pool_indices] == record.union_configs
        for workload in workloads:
            result = campaign[workload]
            assert result.simulated_configs == expected
            assert [result.simulated_configs[i] for i in result.selected_indices] == [
                candidates[i] for i in picks[workload]
            ]

    def test_shared_stream_surrogate_dependent_generator_is_rejected(self):
        # A surrogate-dependent generator that draws from one shared
        # mutable stream (not rank-stable) can neither propose a shared
        # pool nor shard deterministically; the default executor (None)
        # is the serial one, so it refuses too.
        class SharedStreamEvolve(CandidateGenerator):
            surrogate_dependent = True

            def propose_for(self, engine, surrogate, workload, round_index):
                return engine.sampler.sample(8)

        for executor in (None, SerialExecutor()):
            with pytest.raises(ValueError, match="rank-stable") as info:
                make_engine().run_campaign(
                    WORKLOADS,
                    callable_surrogates(),
                    generator=SharedStreamEvolve(),
                    simulation_budget=4,
                    executor=executor,
                )
            assert "CampaignEngine.run" not in str(info.value)

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
