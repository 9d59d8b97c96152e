"""Tests for the cross-workload baseline models."""

import numpy as np
import pytest

from repro.baselines.linear_fit import LinearFittingTransfer
from repro.baselines.target_only import gbrt_baseline, random_forest_baseline
from repro.baselines.transformer_regressor import TransformerRegressor
from repro.baselines.trendse import TrEnDSE, TrEnDSETransformer
from repro.datasets.tasks import holdout_task
from repro.metrics.regression import rmse

#: Whole-protocol baseline runs dominate the suite's wall clock; the
#: fast tier (`make test-fast`) skips them.
pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def target_task(small_dataset):
    return holdout_task(small_dataset["605.mcf_s"], metric="ipc",
                        support_size=10, query_size=60, seed=1)


class TestPooledTreeBaselines:
    @pytest.mark.parametrize("factory", [random_forest_baseline, gbrt_baseline])
    def test_protocol(self, factory, small_dataset, small_split, target_task):
        model = factory(seed=0)
        model.pretrain(small_dataset, small_split, metric="ipc")
        model.adapt(target_task.support_x, target_task.support_y)
        predictions = model.predict(target_task.query_x)
        assert predictions.shape == (target_task.query_size,)
        assert np.all(np.isfinite(predictions))

    def test_adapt_before_pretrain(self, target_task):
        with pytest.raises(RuntimeError):
            random_forest_baseline().adapt(target_task.support_x, target_task.support_y)

    def test_predict_before_adapt(self, small_dataset, small_split):
        model = gbrt_baseline().pretrain(small_dataset, small_split)
        with pytest.raises(RuntimeError):
            model.predict(np.zeros((2, 22)))

    def test_pooled_models_are_biased_by_source_scale(self, small_dataset, small_split, target_task):
        """The Table III phenomenon: K target samples barely move a pooled RF."""
        model = random_forest_baseline(seed=0).pretrain(small_dataset, small_split)
        model.adapt(target_task.support_x, target_task.support_y)
        predictions = model.predict(target_task.query_x)
        # mcf IPC is ~0.2; the pooled sources are much faster, so the pooled
        # model overpredicts on average.
        assert predictions.mean() > target_task.query_y.mean()


class TestTrEnDSE:
    def test_full_protocol_and_source_selection(self, small_dataset, small_split, target_task):
        model = TrEnDSE(top_k_sources=2, seed=0)
        model.pretrain(small_dataset, small_split, metric="ipc")
        model.adapt(target_task.support_x, target_task.support_y)
        assert len(model.selected_sources_) == 2
        assert set(model.selected_sources_) <= set(
            small_split.train + small_split.validation
        )
        predictions = model.predict(target_task.query_x)
        assert np.all(np.isfinite(predictions))

    def test_selects_memory_bound_source_for_memory_bound_target(
        self, small_dataset, small_split, target_task
    ):
        model = TrEnDSE(top_k_sources=1, seed=0)
        model.pretrain(small_dataset, small_split, metric="ipc")
        model.adapt(target_task.support_x, target_task.support_y)
        # Among the available sources (x264, exchange2, gcc, imagick) the
        # slowest one — gcc — is the closest match for a memory-bound mcf
        # target; the Wasserstein selection must not pick a fast FP workload.
        assert model.selected_sources_ == ["602.gcc_s"]

    def test_competitive_with_pooled_rf_on_dissimilar_targets(
        self, small_dataset, small_split
    ):
        """Sanity bound at unit-test scale.

        The small fixture only has four (mostly compute-bound) source
        workloads, so similarity selection has little to choose from; the
        full ordering of Fig. 5 / Table II is asserted by the benchmark
        harness on the complete 17-workload dataset.  Here we only require
        that TrEnDSE stays in the same error regime as the pooled RF.
        """
        trendse = TrEnDSE(seed=0).pretrain(small_dataset, small_split)
        rf = random_forest_baseline(seed=0).pretrain(small_dataset, small_split)
        trendse_errors, rf_errors = [], []
        for target in small_split.test:
            task = holdout_task(small_dataset[target], metric="ipc",
                                support_size=10, query_size=60, seed=1)
            trendse.adapt(task.support_x, task.support_y)
            trendse_errors.append(rmse(task.query_y, trendse.predict(task.query_x)))
            rf.adapt(task.support_x, task.support_y)
            rf_errors.append(rmse(task.query_y, rf.predict(task.query_x)))
        assert np.mean(trendse_errors) < 1.6 * np.mean(rf_errors)

    def test_adapt_before_pretrain(self, target_task):
        with pytest.raises(RuntimeError):
            TrEnDSE().adapt(target_task.support_x, target_task.support_y)

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            TrEnDSE(top_k_sources=0)
        with pytest.raises(ValueError):
            TrEnDSE(ensemble_size=0)


class TestTrEnDSETransformer:
    def test_protocol(self, small_dataset, small_split, target_task):
        model = TrEnDSETransformer(22, pretrain_epochs=2, finetune_steps=3, seed=0)
        model.pretrain(small_dataset, small_split, metric="ipc")
        model.adapt(target_task.support_x, target_task.support_y)
        predictions = model.predict(target_task.query_x)
        assert predictions.shape == (target_task.query_size,)
        assert np.all(np.isfinite(predictions))

    def test_repeated_adaptation_starts_from_pretrained_weights(
        self, small_dataset, small_split, target_task
    ):
        model = TrEnDSETransformer(22, pretrain_epochs=2, finetune_steps=3, seed=0)
        model.pretrain(small_dataset, small_split, metric="ipc")
        model.adapt(target_task.support_x, target_task.support_y)
        first = model.predict(target_task.query_x)
        model.adapt(target_task.support_x, target_task.support_y)
        second = model.predict(target_task.query_x)
        np.testing.assert_allclose(first, second)

    def test_adapt_before_pretrain(self, target_task):
        model = TrEnDSETransformer(22)
        with pytest.raises(RuntimeError):
            model.adapt(target_task.support_x, target_task.support_y)


class TestLinearFitting:
    def test_protocol(self, small_dataset, small_split, target_task):
        model = LinearFittingTransfer(seed=0)
        model.pretrain(small_dataset, small_split, metric="ipc")
        model.adapt(target_task.support_x, target_task.support_y)
        predictions = model.predict(target_task.query_x)
        assert np.all(np.isfinite(predictions))

    def test_recovers_exact_linear_relation(self, small_dataset, small_split):
        model = LinearFittingTransfer(ridge=1e-8, seed=0)
        model.pretrain(small_dataset, small_split, metric="ipc")
        # Construct a synthetic target that IS a linear mix of one source model.
        source_model = next(iter(model._source_models.values()))
        features = small_dataset["605.mcf_s"].features[:50]
        synthetic = 0.5 * source_model.predict(features) + 1.0
        model.adapt(features[:20], synthetic[:20])
        predictions = model.predict(features[20:])
        assert rmse(synthetic[20:], predictions) < 0.05

    def test_adapt_before_pretrain(self, target_task):
        with pytest.raises(RuntimeError):
            LinearFittingTransfer().adapt(target_task.support_x, target_task.support_y)


class TestTransformerRegressor:
    def test_fit_predict_shapes(self):
        rng = np.random.default_rng(0)
        x = rng.random((40, 22))
        y = x.sum(axis=1)
        model = TransformerRegressor(22, epochs=3, seed=0).fit(x, y)
        assert model.predict(x).shape == (40,)

    def test_label_standardisation_roundtrip(self):
        rng = np.random.default_rng(1)
        x = rng.random((60, 22))
        y = 100.0 + 10.0 * x[:, 0]
        model = TransformerRegressor(22, epochs=20, seed=0).fit(x, y)
        predictions = model.predict(x)
        assert abs(predictions.mean() - y.mean()) < 5.0

    def test_labels_are_standardised_with_the_training_statistics(self):
        rng = np.random.default_rng(3)
        x = rng.random((30, 22))
        y = 50.0 + 4.0 * x[:, 1]
        model = TransformerRegressor(22, epochs=1, seed=0).fit(x, y)
        assert model._label_mean == float(y.mean())
        assert model._label_std == float(y.std())
        # Fine-tuning maps new labels with the fitted scaling, not its own.
        model.fine_tune(x, y + 1.0, steps=1)
        assert model._label_mean == float(y.mean())

    def test_fine_tune_moves_predictions(self):
        rng = np.random.default_rng(2)
        x = rng.random((40, 22))
        y = x[:, 0]
        model = TransformerRegressor(22, epochs=2, seed=0).fit(x, y)
        before = model.predict(x)
        model.fine_tune(x, y + 5.0, steps=30)
        after = model.predict(x)
        assert after.mean() > before.mean() + 1.0

    def test_invalid_epochs(self):
        with pytest.raises(ValueError):
            TransformerRegressor(22, epochs=0)
