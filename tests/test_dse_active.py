"""Tests for the active-learning exploration: a one-workload refit campaign."""

import numpy as np
import pytest

from repro.baselines.trees import GradientBoostingRegressor, RandomForestRegressor
from repro.dse.acquisition import ExplorationBonusAcquisition
from repro.dse.engine import CampaignEngine, ObjectiveSet, RandomPool
from repro.dse.pareto import pareto_mask, to_minimization
from repro.dse.surrogates import TreeEnsembleSurrogate, regressor_exploration_bonus


def _forest():
    return RandomForestRegressor(n_estimators=30, max_depth=10, seed=0)


def active_campaign(
    space,
    simulator,
    workload,
    *,
    seed=0,
    candidate_pool=60,
    surrogate_factory=_forest,
    objective_names=("ipc", "power"),
    initial_samples=6,
    batch_size=3,
    rounds=3,
):
    """The simulate/refit/refine loop ``repro explore --method active`` runs."""
    objectives = ObjectiveSet.from_names(objective_names)
    engine = CampaignEngine(space, simulator, objectives, seed=seed)
    return engine.run_campaign(
        [workload],
        {workload: TreeEnsembleSurrogate(surrogate_factory, objectives.names)},
        generator=RandomPool(candidate_pool),
        acquisition=ExplorationBonusAcquisition(),
        simulation_budget=batch_size,
        rounds=rounds,
        initial_samples=initial_samples,
        refit=True,
    )[workload]


@pytest.fixture(scope="module")
def result(table1_space, fast_simulator):
    return active_campaign(table1_space, fast_simulator, "605.mcf_s")


class TestActiveLearningCampaign:
    def test_budget_accounting(self, result):
        assert result.simulations_used == 6 + 3 * 3
        assert [entry.simulations_total for entry in result.rounds] == [9, 12, 15]
        assert [entry.round_index for entry in result.rounds] == [0, 1, 2]

    def test_measured_objectives_shape_and_names(self, result):
        assert result.measured_objectives.shape == (result.simulations_used, 2)
        assert result.objective_names == ("ipc", "power")
        assert np.all(np.isfinite(result.measured_objectives))

    def test_configs_are_valid_members_of_the_space(self, result, table1_space):
        assert len(result.simulated_configs) == result.simulations_used
        for config in result.simulated_configs:
            assert table1_space.is_valid(config)

    def test_pareto_indices_are_non_dominated(self, result):
        minimised = to_minimization(result.measured_objectives, [True, False])
        mask = pareto_mask(minimised)
        assert set(result.pareto_indices.tolist()) == set(np.nonzero(mask)[0].tolist())
        assert len(result.pareto_configs) == len(result.pareto_indices)

    def test_hypervolume_history_recorded_per_round(self, result):
        history = result.hypervolume_history()
        assert len(history) == 3
        assert all(np.isfinite(v) and v >= 0 for v in history)
        assert all(entry.pareto_size >= 1 for entry in result.rounds)

    def test_measurements_match_the_simulator(self, result, fast_simulator):
        """Every recorded row is the simulator's ground truth for that config."""
        batch = fast_simulator.run_batch(result.simulated_configs, "605.mcf_s")
        np.testing.assert_allclose(result.measured_objectives[:, 0], batch.ipc, rtol=1e-12)
        np.testing.assert_allclose(result.measured_objectives[:, 1], batch.power_w, rtol=1e-12)

    def test_custom_surrogate_factory(self, table1_space, fast_simulator):
        result = active_campaign(
            table1_space,
            fast_simulator,
            "625.x264_s",
            seed=1,
            candidate_pool=40,
            surrogate_factory=lambda: GradientBoostingRegressor(
                n_estimators=20, max_depth=2, seed=0
            ),
            initial_samples=5,
            batch_size=2,
            rounds=2,
        )
        assert result.simulations_used == 9

    def test_exploration_bonus_forest_vs_distance(self):
        features = np.random.default_rng(0).normal(size=(10, 4))
        known = features[:3]
        forest = RandomForestRegressor(n_estimators=5, max_depth=3, seed=0)
        forest.fit(known, np.array([1.0, 2.0, 3.0]))
        forest_bonus = regressor_exploration_bonus(forest, features, known)
        assert forest_bonus.shape == (10,)
        assert np.all(forest_bonus >= 0)

        # A bare object implementing only predict (no usable trees) falls
        # back to the distance to the known set.
        class _Plain:
            trees_ = None

            def predict(self, x):
                return np.zeros(len(x))

        distance_bonus = regressor_exploration_bonus(_Plain(), features, known)
        assert np.allclose(distance_bonus[:3], 0.0, atol=1e-9)
        assert np.all(distance_bonus[3:] >= 0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"initial_samples": 1},
            {"batch_size": 0},
            {"rounds": 0},
        ],
    )
    def test_invalid_arguments(self, table1_space, fast_simulator, kwargs):
        arguments = dict(initial_samples=4, batch_size=2, rounds=1)
        arguments.update(kwargs)
        with pytest.raises(ValueError):
            active_campaign(table1_space, fast_simulator, "605.mcf_s", **arguments)

    def test_invalid_candidate_pool(self, table1_space, fast_simulator):
        with pytest.raises(ValueError):
            active_campaign(table1_space, fast_simulator, "605.mcf_s", candidate_pool=0)

    def test_power_alias_and_custom_objectives(self, table1_space, fast_simulator):
        result = active_campaign(
            table1_space,
            fast_simulator,
            "605.mcf_s",
            seed=2,
            candidate_pool=40,
            objective_names=("ipc", "energy_per_instruction_nj"),
            initial_samples=4,
            batch_size=2,
            rounds=1,
        )
        assert result.objective_names == ("ipc", "energy_per_instruction_nj")
        assert np.all(result.measured_objectives[:, 1] > 0)
