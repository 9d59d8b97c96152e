"""Tests for the unified DSE campaign engine, surrogates and acquisition."""

import numpy as np
import pytest

from repro.baselines.trees import GradientBoostingRegressor
from repro.designspace.sampling import RandomSampler
from repro.dse.acquisition import (
    AcquisitionContext,
    ExplorationBonusAcquisition,
    GreedyTopK,
    ParetoRankAcquisition,
)
from repro.dse.engine import (
    CampaignEngine,
    NSGA2Evolve,
    ObjectiveSet,
    RandomPool,
)
from repro.dse.pareto import pareto_mask
from repro.dse.surrogates import (
    CallableSurrogate,
    StackedPredictorSurrogate,
    TreeEnsembleSurrogate,
)
from repro.nn.transformer import TransformerPredictor

WORKLOADS = ("605.mcf_s", "602.gcc_s")


class TestObjectiveSet:
    def test_default_senses(self):
        objectives = ObjectiveSet.from_names(("ipc", "power"))
        assert objectives.maximize == (True, False)
        assert objectives.num_objectives == 2

    def test_explicit_override(self):
        objectives = ObjectiveSet.from_names(("ipc",), {"ipc": False})
        assert objectives.maximize == (False,)

    def test_to_minimization_negates_maximised(self):
        objectives = ObjectiveSet.from_names(("ipc", "power"))
        out = objectives.to_minimization(np.array([[2.0, 3.0]]))
        np.testing.assert_allclose(out, [[-2.0, 3.0]])

    @pytest.mark.parametrize(
        "names,maximize",
        [((), ()), (("a", "a"), (True, True)), (("a", "b"), (True,))],
    )
    def test_invalid_declarations(self, names, maximize):
        with pytest.raises(ValueError):
            ObjectiveSet(names=names, maximize=maximize)


class TestAcquisitionStrategies:
    def _context(self, n, surrogate=None):
        objectives = ObjectiveSet.from_names(("a", "b"), {"a": False})
        return AcquisitionContext(
            features=np.zeros((n, 3)),
            known_features=None,
            surrogate=surrogate,
            objectives=objectives,
        )

    def test_pareto_rank_prefers_front_then_fills(self):
        # Rows 0 and 3 are the front; fill ranks by the first column.
        predicted_min = np.array([[0.0, 1.0], [2.0, 2.0], [3.0, 3.0], [1.0, 0.0]])
        selected = ParetoRankAcquisition().select(predicted_min, 3, self._context(4))
        assert selected[:2] == [0, 3]
        assert selected[2] == 1  # best remaining first objective
        assert all(type(i) is int for i in selected)

    def test_greedy_topk_default_and_weighted(self):
        predicted_min = np.array([[3.0, 0.0], [1.0, 5.0], [2.0, 1.0]])
        assert GreedyTopK().select(predicted_min, 2, self._context(3)) == [1, 2]
        weighted = GreedyTopK(weights=(0.0, 1.0)).select(
            predicted_min, 2, self._context(3)
        )
        assert weighted == [0, 2]

    def test_exploration_bonus_breaks_ties_by_uncertainty(self):
        class _Surrogate:
            def exploration_bonus(self, features, known):
                return np.array([0.0, 5.0, 1.0, 9.0])

        # All rows mutually non-dominated -> the bonus decides the order.
        predicted_min = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
        selected = ExplorationBonusAcquisition().select(
            predicted_min, 2, self._context(4, _Surrogate())
        )
        assert selected == [3, 1]


class TestSurrogates:
    def test_callable_surrogate_column_order(self):
        surrogate = CallableSurrogate(
            {"a": lambda x: x[:, 0], "b": lambda x: x[:, 1] * 2}
        )
        out = surrogate.predict(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_allclose(out, [[1.0, 4.0], [3.0, 8.0]])
        assert surrogate.objective_names == ("a", "b")

    def test_tree_surrogate_fit_predict_and_bonus(self):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(40, 4))
        targets = np.stack([features[:, 0], -features[:, 1]], axis=1)
        surrogate = TreeEnsembleSurrogate(
            lambda: GradientBoostingRegressor(n_estimators=10, max_depth=2, seed=0),
            ("a", "b"),
        )
        assert surrogate.supports_fit
        surrogate.fit(features, targets)
        assert surrogate.predict(features).shape == (40, 2)
        bonus = surrogate.exploration_bonus(features, features[:5])
        assert bonus.shape == (40,) and np.all(bonus >= 0)

    def test_exploration_bonus_without_known_set_is_zero(self):
        # A non-ensemble regressor has only the distance fallback; with an
        # empty (or absent) known set every candidate is equally unexplored,
        # so the bonus must be zero, not a zero-size reduction crash.
        class _Plain:
            trees_ = None

            def fit(self, x, y):
                return self

            def predict(self, x):
                return np.zeros(len(x))

        surrogate = TreeEnsembleSurrogate(_Plain, ("a", "b"))
        surrogate.fit(np.zeros((3, 4)), np.zeros((3, 2)))
        features = np.ones((5, 4))
        np.testing.assert_array_equal(
            surrogate.exploration_bonus(features, None), np.zeros(5)
        )
        np.testing.assert_array_equal(
            surrogate.exploration_bonus(features, np.empty((0, 4))), np.zeros(5)
        )

    def test_tree_surrogate_requires_fit_before_predict(self):
        surrogate = TreeEnsembleSurrogate(
            lambda: GradientBoostingRegressor(n_estimators=5, max_depth=2, seed=0),
            ("a",),
        )
        with pytest.raises(RuntimeError):
            surrogate.predict(np.zeros((2, 3)))

    def test_stacked_predictor_matches_per_model_predicts(self):
        predictors = [
            TransformerPredictor(6, embed_dim=8, num_heads=2, num_layers=1,
                                 head_hidden=8, seed=s)
            for s in (0, 1)
        ]
        surrogate = StackedPredictorSurrogate(predictors, ("ipc", "power"))
        assert surrogate.is_stacked
        features = np.random.default_rng(3).uniform(size=(17, 6))
        stacked = surrogate.predict(features)
        reference = np.stack([p.predict(features) for p in predictors], axis=1)
        np.testing.assert_allclose(stacked, reference, rtol=0, atol=1e-9)

    def test_stacked_predictor_unscales_labels(self):
        predictor = TransformerPredictor(4, embed_dim=8, num_heads=2, num_layers=1,
                                         head_hidden=8, seed=0)
        surrogate = StackedPredictorSurrogate(
            [predictor], ("ipc",), label_means=[2.0], label_stds=[3.0]
        )
        features = np.random.default_rng(1).uniform(size=(5, 4))
        np.testing.assert_allclose(
            surrogate.predict(features)[:, 0],
            predictor.predict(features) * 3.0 + 2.0,
            rtol=0,
            atol=1e-12,
        )

    def test_stacked_predictor_falls_back_on_mismatched_models(self):
        masked = TransformerPredictor(4, embed_dim=8, num_heads=2, num_layers=1,
                                      head_hidden=8, seed=0)
        masked.install_mask(np.zeros((4, 4)), learnable=True)
        plain = TransformerPredictor(4, embed_dim=8, num_heads=2, num_layers=1,
                                     head_hidden=8, seed=1)
        surrogate = StackedPredictorSurrogate([masked, plain], ("ipc", "power"))
        assert not surrogate.is_stacked
        features = np.random.default_rng(2).uniform(size=(6, 4))
        reference = np.stack([masked.predict(features), plain.predict(features)], axis=1)
        np.testing.assert_allclose(surrogate.predict(features), reference)

    def test_stacked_predictor_falls_back_on_differing_nonlearnable_masks(self):
        # Non-learnable masks are plain Tensor attributes, invisible to
        # state_dict(); stacking regardless would silently run every
        # objective's forward under predictor[0]'s mask.
        rng = np.random.default_rng(4)
        predictors = []
        for seed in (0, 1):
            predictor = TransformerPredictor(4, embed_dim=8, num_heads=2,
                                             num_layers=1, head_hidden=8, seed=seed)
            predictor.install_mask(rng.normal(size=(4, 4)), learnable=False)
            predictors.append(predictor)
        surrogate = StackedPredictorSurrogate(predictors, ("ipc", "power"))
        assert not surrogate.is_stacked
        features = rng.uniform(size=(6, 4))
        reference = np.stack([p.predict(features) for p in predictors], axis=1)
        np.testing.assert_allclose(surrogate.predict(features), reference)

    def test_stacked_predictor_stacks_identical_nonlearnable_masks(self):
        mask = np.random.default_rng(5).normal(size=(4, 4))
        predictors = []
        for seed in (0, 1):
            predictor = TransformerPredictor(4, embed_dim=8, num_heads=2,
                                             num_layers=1, head_hidden=8, seed=seed)
            predictor.install_mask(mask, learnable=False)
            predictors.append(predictor)
        surrogate = StackedPredictorSurrogate(predictors, ("ipc", "power"))
        assert surrogate.is_stacked
        features = np.random.default_rng(6).uniform(size=(6, 4))
        reference = np.stack([p.predict(features) for p in predictors], axis=1)
        np.testing.assert_allclose(surrogate.predict(features), reference,
                                   rtol=0, atol=1e-9)


class TestCampaignEngine:
    @pytest.fixture()
    def engine(self, table1_space, fast_simulator):
        return CampaignEngine(
            table1_space,
            fast_simulator,
            ObjectiveSet.from_names(("ipc", "power")),
            seed=0,
        )

    def _tree_surrogates(self, engine, workloads, points=50):
        surrogates = {}
        sampler = RandomSampler(engine.space, seed=42)
        configs = sampler.sample(points)
        features = engine.encoder.encode_batch(configs)
        for workload in workloads:
            batch = engine.simulator.run_batch(configs, workload)
            targets = np.stack(
                [batch.objective(name) for name in engine.objectives.names], axis=1
            )
            surrogate = TreeEnsembleSurrogate(
                lambda: GradientBoostingRegressor(n_estimators=15, max_depth=2, seed=0),
                engine.objectives.names,
            )
            surrogate.fit(features, targets)
            surrogates[workload] = surrogate
        return surrogates

    def test_one_workload_campaign_validations(self, engine):
        surrogates = {
            "605.mcf_s": CallableSurrogate(
                {"ipc": lambda x: x[:, 0], "power": lambda x: x[:, 1]}
            )
        }
        with pytest.raises(ValueError):
            engine.run_campaign(["605.mcf_s"], surrogates, generator=RandomPool(10),
                                simulation_budget=0)
        with pytest.raises(ValueError):
            engine.run_campaign(["605.mcf_s"], surrogates, generator=RandomPool(10),
                                simulation_budget=5, rounds=0)
        with pytest.raises(ValueError):  # refit without a refittable surrogate
            engine.run_campaign(["605.mcf_s"], surrogates, generator=RandomPool(10),
                                simulation_budget=5, refit=True, initial_samples=4)

    def test_shared_pool_campaign(self, engine):
        surrogates = self._tree_surrogates(engine, WORKLOADS)
        campaign = engine.run_campaign(
            WORKLOADS, surrogates, candidate_pool=60, simulation_budget=8
        )
        assert campaign.workloads == list(WORKLOADS)
        union_size = next(iter(campaign)).simulations_used
        assert campaign.total_simulations == union_size * len(WORKLOADS)
        for result in campaign:
            # Every workload measures the same shared selection union.
            assert len(result.simulated_configs) == union_size
            assert result.measured_objectives.shape == (union_size, 2)
            assert result.candidates_screened == 60
            # Its own picks index into the union.
            assert len(result.selected_indices) == 8
            assert all(0 <= i < union_size for i in result.selected_indices)
            # Fronts are non-dominated and quality was tracked.
            minimised = result.objectives.to_minimization(result.measured_objectives)
            mask = pareto_mask(minimised)
            assert set(result.pareto_indices.tolist()) == set(
                np.nonzero(mask)[0].tolist()
            )
            assert len(result.hypervolume_history()) == 1
            assert np.isfinite(result.hypervolume_history()[0])

    def test_shared_pool_reuses_evaluation_cache(self, table1_space, suite):
        from repro.sim.simulator import Simulator

        simulator = Simulator(
            table1_space, suite, simpoint_phases=1, seed=7, evaluation_cache=True
        )
        engine = CampaignEngine(
            table1_space, simulator, ObjectiveSet.from_names(("ipc", "power")), seed=0
        )
        surrogates = self._tree_surrogates(engine, WORKLOADS, points=30)
        # Identical pools via identically seeded generators -> identical
        # unions; the second campaign must be served from the cache.
        pool_a = RandomPool(40, sampler=RandomSampler(table1_space, seed=5))
        pool_b = RandomPool(40, sampler=RandomSampler(table1_space, seed=5))
        first = engine.run_campaign(
            WORKLOADS, surrogates, generator=pool_a, simulation_budget=6
        )
        count = simulator.evaluation_count
        second = engine.run_campaign(
            WORKLOADS, surrogates, generator=pool_b, simulation_budget=6
        )
        assert simulator.evaluation_count == count
        for workload in WORKLOADS:
            np.testing.assert_array_equal(
                first[workload].measured_objectives,
                second[workload].measured_objectives,
            )

    def test_multi_round_campaign_measures_each_union_on_every_workload(self, engine):
        budget = 3
        campaign = engine.run_campaign(
            WORKLOADS,
            lambda workload: TreeEnsembleSurrogate(
                lambda: GradientBoostingRegressor(n_estimators=10, max_depth=2, seed=0),
                engine.objectives.names,
            ),
            acquisition=ExplorationBonusAcquisition(),
            candidate_pool=40,
            simulation_budget=budget,
            rounds=2,
            initial_samples=4,
            refit=True,
        )
        first, second = campaign
        # Every round's selection union is measured on every workload, so
        # both workloads hold the same configurations and round totals.
        assert first.simulated_configs == second.simulated_configs
        totals = [entry.simulations_total for entry in first.rounds]
        assert totals == [entry.simulations_total for entry in second.rounds]
        assert totals[-1] == first.simulations_used
        # A union holds at least one workload's picks and at most all of them.
        unions = np.diff([4] + totals)
        assert all(budget <= size <= budget * len(WORKLOADS) for size in unions)
        assert campaign.total_simulations == len(WORKLOADS) * first.simulations_used
        for result in campaign:
            assert result.measured_objectives.shape == (result.simulations_used, 2)
            # The last round's picks index into the last round's union.
            assert len(set(result.selected_indices)) == budget
            assert all(
                totals[-2] <= index < totals[-1] for index in result.selected_indices
            )
            assert result.candidates_screened == 2 * 40
        assert campaign.candidates_screened == len(WORKLOADS) * 2 * 40

    @pytest.mark.parametrize(
        "generator",
        [
            pytest.param(lambda: RandomPool(16), id="shared-pool"),
            pytest.param(
                lambda: NSGA2Evolve(population_size=16, generations=2, seed=0),
                id="keyed-pools",
            ),
        ],
    )
    def test_candidates_screened_totals_the_workloads(self, engine, generator):
        workloads = ("605.mcf_s", "602.gcc_s", "625.x264_s")
        surrogates = self._tree_surrogates(engine, workloads, points=30)
        campaign = engine.run_campaign(
            workloads, surrogates, generator=generator(), simulation_budget=4
        )
        for result in campaign:
            assert result.candidates_screened == 16
        assert campaign.candidates_screened == 3 * 16
        assert campaign.summary()["candidates_screened"] == 3 * 16

    def test_campaign_summary_is_json_serialisable(self, engine):
        import json

        surrogates = self._tree_surrogates(engine, WORKLOADS, points=30)
        campaign = engine.run_campaign(
            WORKLOADS, surrogates, candidate_pool=30, simulation_budget=4
        )
        summary = json.loads(json.dumps(campaign.summary()))
        assert set(summary["workloads"]) == set(WORKLOADS)
        for entry in summary["workloads"].values():
            assert entry["front_size"] >= 1
            assert len(entry["pareto_front"][0]) == 2


class TestNSGA2Strategies:
    def test_nsga2_one_workload_campaign(self, table1_space, fast_simulator):
        engine = CampaignEngine(
            table1_space, fast_simulator, ObjectiveSet.from_names(("ipc", "power")), seed=0
        )
        surrogate = CallableSurrogate(
            {"ipc": lambda x: x.sum(axis=1), "power": lambda x: x[:, 0]}
        )
        result = engine.run_campaign(
            ["605.mcf_s"],
            {"605.mcf_s": surrogate},
            generator=NSGA2Evolve(population_size=16, generations=3, seed=0),
            simulation_budget=6,
        )["605.mcf_s"]
        assert result.simulations_used <= 6
        assert result.candidates_screened == 16  # final population
        for config in result.simulated_configs:
            assert table1_space.is_valid(config)

    def test_nsga2_evolve_rejects_a_generator_seed(self):
        # A Generator is a shared mutable stream, not a keyed stream family.
        with pytest.raises(TypeError, match="Generator"):
            NSGA2Evolve(seed=np.random.default_rng(0))

    def test_nsga2_evolve_requires_surrogate(self, table1_space, fast_simulator):
        engine = CampaignEngine(
            table1_space, fast_simulator, ObjectiveSet.from_names(("ipc",)), seed=0
        )
        with pytest.raises(ValueError):
            NSGA2Evolve(population_size=8, generations=1).propose_for(
                engine, None, None, 0
            )
