"""Tests for the from-scratch CART / RF / GBRT implementations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.trees import (
    DecisionTreeRegressor,
    GradientBoostingRegressor,
    RandomForestRegressor,
)
from repro.metrics.regression import rmse


def make_regression(n=200, noise=0.05, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, size=(n, 5))
    y = (
        2.0 * x[:, 0]
        + np.sin(4 * x[:, 1])
        + (x[:, 2] > 0.5).astype(float)
        + noise * rng.normal(size=n)
    )
    return x, y


class TestDecisionTree:
    def test_fits_piecewise_constant_function(self):
        x = np.linspace(0, 1, 100).reshape(-1, 1)
        y = (x[:, 0] > 0.5).astype(float)
        tree = DecisionTreeRegressor(max_depth=2).fit(x, y)
        predictions = tree.predict(x)
        assert rmse(y, predictions) < 0.05

    def test_improves_over_mean_prediction(self):
        x, y = make_regression()
        tree = DecisionTreeRegressor(max_depth=6).fit(x, y)
        assert rmse(y, tree.predict(x)) < 0.5 * y.std()

    def test_depth_respects_limit(self):
        x, y = make_regression(n=300)
        tree = DecisionTreeRegressor(max_depth=3).fit(x, y)
        assert tree.depth() <= 3

    def test_min_samples_leaf(self):
        x, y = make_regression(n=50)
        tree = DecisionTreeRegressor(max_depth=10, min_samples_leaf=25).fit(x, y)
        assert tree.depth() <= 1

    def test_constant_target_yields_single_leaf(self):
        x = np.random.default_rng(0).random((30, 3))
        tree = DecisionTreeRegressor().fit(x, np.full(30, 2.5))
        assert tree.depth() == 0
        np.testing.assert_allclose(tree.predict(x), 2.5)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            DecisionTreeRegressor().predict(np.zeros((1, 3)))

    def test_feature_count_mismatch(self):
        x, y = make_regression(n=40)
        tree = DecisionTreeRegressor().fit(x, y)
        with pytest.raises(ValueError):
            tree.predict(np.zeros((2, 3)))

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_depth=0)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_split=1)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_features=1.5)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(np.zeros((0, 2)), np.zeros(0))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(10, 60), st.integers(0, 1000))
    def test_predictions_within_target_range(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.random((n, 3))
        y = rng.random(n)
        tree = DecisionTreeRegressor(max_depth=4).fit(x, y)
        predictions = tree.predict(x)
        assert predictions.min() >= y.min() - 1e-9
        assert predictions.max() <= y.max() + 1e-9


class TestRandomForest:
    def test_beats_single_stump_on_noisy_data(self):
        x, y = make_regression(noise=0.3, seed=1)
        x_test, y_test = make_regression(noise=0.0, seed=2)
        stump = DecisionTreeRegressor(max_depth=2).fit(x, y)
        forest = RandomForestRegressor(n_estimators=30, max_depth=6, seed=0).fit(x, y)
        assert rmse(y_test, forest.predict(x_test)) < rmse(y_test, stump.predict(x_test))

    def test_deterministic_given_seed(self):
        x, y = make_regression(n=80)
        a = RandomForestRegressor(n_estimators=5, seed=3).fit(x, y).predict(x)
        b = RandomForestRegressor(n_estimators=5, seed=3).fit(x, y).predict(x)
        np.testing.assert_allclose(a, b)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            RandomForestRegressor().predict(np.zeros((1, 3)))

    def test_invalid_estimator_count(self):
        with pytest.raises(ValueError):
            RandomForestRegressor(n_estimators=0)


class TestGradientBoosting:
    def test_training_error_decreases_with_stages(self):
        x, y = make_regression(seed=4)
        first, last = (
            rmse(y, GradientBoostingRegressor(n_estimators=stages, seed=0).fit(x, y).predict(x))
            for stages in (1, 60)
        )
        assert last < first

    def test_outperforms_random_forest_on_smooth_target(self):
        x, y = make_regression(noise=0.02, seed=5)
        gbrt = GradientBoostingRegressor(n_estimators=120, seed=0).fit(x, y)
        forest = RandomForestRegressor(n_estimators=20, max_depth=4, seed=0).fit(x, y)
        assert rmse(y, gbrt.predict(x)) < rmse(y, forest.predict(x))

    def test_ranks_unseen_substrate_points_far_better_than_chance(self, small_dataset):
        data = small_dataset["625.x264_s"]
        ipc = data.metric("ipc")
        model = GradientBoostingRegressor(n_estimators=60, max_depth=3, seed=0)
        predictions = model.fit(data.features[:80], ipc[:80]).predict(data.features[80:])
        truth = ipc[80:]
        true_order = np.argsort(-truth, kind="mergesort")
        predicted_order = np.argsort(-predictions, kind="mergesort")
        # Spearman's rho: the correlation of the two rankings.
        rho = np.corrcoef(np.argsort(true_order), np.argsort(predicted_order))[0, 1]
        assert rho > 0.7
        # At least 3 of the true top 10 are in the predicted top 10.
        assert len(set(true_order[:10]) & set(predicted_order[:10])) >= 3
        # Screening view: simulating the predicted top 5 loses little IPC
        # relative to the true optimum of the held-out pool.
        regret = truth.max() - truth[predicted_order[:5]].max()
        assert regret <= 0.25 * (truth.max() - truth.min())

    def test_subsample_variant_runs(self):
        x, y = make_regression(n=100)
        model = GradientBoostingRegressor(n_estimators=20, subsample=0.5, seed=0).fit(x, y)
        assert model.predict(x).shape == (100,)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            GradientBoostingRegressor().predict(np.zeros((1, 3)))

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            GradientBoostingRegressor(learning_rate=0.0)
        with pytest.raises(ValueError):
            GradientBoostingRegressor(subsample=0.0)
        with pytest.raises(ValueError):
            GradientBoostingRegressor(n_estimators=0)
