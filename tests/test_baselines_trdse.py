"""Tests for the TrDSE and TrEE transfer baselines."""

import numpy as np
import pytest

from repro.baselines.trdse import TrDSE, TrEE
from repro.datasets.tasks import holdout_task
from repro.metrics.regression import rmse

#: Whole-protocol baseline runs dominate the suite's wall clock; the
#: fast tier (`make test-fast`) skips them.
pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def target_task(small_dataset):
    return holdout_task(
        small_dataset["605.mcf_s"], metric="ipc", support_size=10, query_size=60, seed=1
    )


class TestTrDSE:
    def test_full_protocol(self, small_dataset, small_split, target_task):
        model = TrDSE(num_clusters=2, seed=0)
        model.pretrain(small_dataset, small_split, metric="ipc")
        model.adapt(target_task.support_x, target_task.support_y)
        predictions = model.predict(target_task.query_x)
        assert predictions.shape == (target_task.query_size,)
        assert np.all(np.isfinite(predictions))
        assert 0 <= model.selected_cluster_ < 2
        assert set(model.selected_sources_) <= set(
            small_split.train + small_split.validation
        )

    def test_clusters_partition_the_sources(self, small_dataset, small_split):
        model = TrDSE(num_clusters=2, seed=0)
        model.pretrain(small_dataset, small_split, metric="ipc")
        sources = set(small_split.train + small_split.validation)
        clustered = set(model.cluster_members(0)) | set(model.cluster_members(1))
        assert clustered == sources
        assert not set(model.cluster_members(0)) & set(model.cluster_members(1))

    def test_more_clusters_than_sources_is_handled(self, small_dataset, small_split, target_task):
        model = TrDSE(num_clusters=10, seed=0)
        model.pretrain(small_dataset, small_split, metric="ipc")
        model.adapt(target_task.support_x, target_task.support_y)
        assert np.all(np.isfinite(model.predict(target_task.query_x)))

    def test_beats_predicting_the_source_mean(self, small_dataset, small_split, target_task):
        model = TrDSE(num_clusters=2, seed=0)
        model.pretrain(small_dataset, small_split, metric="ipc")
        model.adapt(target_task.support_x, target_task.support_y)
        model_rmse = rmse(target_task.query_y, model.predict(target_task.query_x))
        source_mean = np.mean(
            [small_dataset[w].metric("ipc").mean() for w in small_split.train]
        )
        constant_rmse = rmse(target_task.query_y, np.full_like(target_task.query_y, source_mean))
        assert model_rmse < constant_rmse

    def test_adapt_before_pretrain_raises(self, target_task):
        with pytest.raises(RuntimeError):
            TrDSE().adapt(target_task.support_x, target_task.support_y)

    def test_predict_before_adapt_raises(self, small_dataset, small_split):
        model = TrDSE(seed=0).pretrain(small_dataset, small_split)
        with pytest.raises(RuntimeError):
            model.predict(np.zeros((2, 22)))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_clusters": 0},
            {"probe_points": 2},
            {"target_weight": 0.5},
        ],
    )
    def test_invalid_constructor_arguments(self, kwargs):
        with pytest.raises(ValueError):
            TrDSE(**kwargs)


class TestTrEE:
    def test_full_protocol_and_member_weights(self, small_dataset, small_split, target_task):
        model = TrEE(oa_samples=48, seed=0)
        model.pretrain(small_dataset, small_split, metric="ipc")
        model.adapt(target_task.support_x, target_task.support_y)
        predictions = model.predict(target_task.query_x)
        assert predictions.shape == (target_task.query_size,)
        assert np.all(np.isfinite(predictions))
        assert model._weights is not None
        assert model._weights.sum() == pytest.approx(1.0)
        assert np.all(model._weights >= 0)
        assert set(model.member_errors_) == set(
            small_split.train + small_split.validation
        )

    def test_accurate_members_get_larger_weights(self, small_dataset, small_split, target_task):
        model = TrEE(oa_samples=48, seed=0)
        model.pretrain(small_dataset, small_split, metric="ipc")
        model.adapt(target_task.support_x, target_task.support_y)
        errors = np.array([model.member_errors_[name] for name in model._member_order])
        weights = model._weights
        # The lowest-error member must not receive the smallest weight.
        assert weights[np.argmin(errors)] >= weights[np.argmax(errors)]

    def test_oa_foldover_indices_are_valid_and_spread(self):
        model = TrEE(oa_samples=16, seed=0)
        indices = model._oa_foldover_indices(100)
        assert indices.min() >= 0 and indices.max() < 100
        assert len(np.unique(indices)) == len(indices)
        # The foldover adds the mirrored half-stride to the 16 strided points.
        assert len(indices) > 16

    def test_small_population_subsumes_everything(self):
        indices = TrEE(oa_samples=64, seed=0)._oa_foldover_indices(10)
        assert set(indices.tolist()) <= set(range(10))

    def test_adapt_before_pretrain_raises(self, target_task):
        with pytest.raises(RuntimeError):
            TrEE().adapt(target_task.support_x, target_task.support_y)

    def test_predict_before_adapt_raises(self, small_dataset, small_split):
        model = TrEE(oa_samples=32, seed=0).pretrain(small_dataset, small_split)
        with pytest.raises(RuntimeError):
            model.predict(np.zeros((2, 22)))

    @pytest.mark.parametrize(
        "kwargs",
        [{"oa_samples": 4}, {"weight_temperature": 0.0}],
    )
    def test_invalid_constructor_arguments(self, kwargs):
        with pytest.raises(ValueError):
            TrEE(**kwargs)
