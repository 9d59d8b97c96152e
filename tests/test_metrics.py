"""Tests for the evaluation metrics of Section V."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

from repro.metrics.regression import (
    confidence_interval,
    evaluate_predictions,
    explained_variance,
    geometric_mean,
    mape,
    rmse,
)


class TestRMSE:
    def test_perfect_prediction(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_known_value(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rmse([1.0], [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rmse([], [])

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            rmse([np.nan], [1.0])

    @settings(max_examples=40, deadline=None)
    @given(
        hnp.arrays(np.float64, st.integers(1, 50), elements=st.floats(-100, 100)),
    )
    def test_non_negative_and_zero_on_self(self, values):
        assert rmse(values, values) == 0.0
        noise = values + 1.0
        assert rmse(values, noise) >= 0.0


class TestMAPE:
    def test_known_value(self):
        # |1-1.1|/1 + |2-1.8|/2 = 0.1 + 0.1 -> mean 0.1
        assert mape([1.0, 2.0], [1.1, 1.8]) == pytest.approx(0.1)

    def test_zero_label_guard(self):
        value = mape([0.0, 1.0], [1.0, 1.0])
        assert np.isfinite(value)

    def test_scale_invariance(self):
        a = mape([1.0, 2.0], [1.2, 1.9])
        b = mape([10.0, 20.0], [12.0, 19.0])
        assert a == pytest.approx(b)


class TestExplainedVariance:
    def test_perfect_prediction(self):
        assert explained_variance([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0)

    def test_mean_prediction_is_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        assert explained_variance(y, np.full(3, y.mean())) == pytest.approx(0.0)

    def test_bad_model_is_negative(self):
        y = np.array([1.0, 2.0, 3.0])
        assert explained_variance(y, [3.0, 1.0, -2.0]) < 0.0

    def test_constant_labels(self):
        assert explained_variance([2.0, 2.0], [1.0, 3.0]) == 0.0


class TestGeometricMean:
    def test_known_value(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    @settings(max_examples=30, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(1, 20), elements=st.floats(0.01, 1e3)))
    def test_bounded_by_min_and_max(self, values):
        gm = geometric_mean(values)
        assert values.min() - 1e-9 <= gm <= values.max() + 1e-9


class TestConfidenceInterval:
    def test_single_sample_is_zero(self):
        assert confidence_interval([1.0]) == 0.0

    def test_wider_for_noisier_data(self):
        rng = np.random.default_rng(0)
        tight = confidence_interval(rng.normal(0, 0.1, size=50))
        wide = confidence_interval(rng.normal(0, 2.0, size=50))
        assert wide > tight

    def test_positive(self):
        assert confidence_interval([1.0, 2.0, 3.0]) > 0.0

    def test_is_scipys_student_t_half_width(self):
        for size in (2, 5, 30):
            values = np.random.default_rng(size).normal(1.0, 0.4, size=size)
            expected = stats.sem(values) * stats.t.ppf(0.975, size - 1)
            assert np.float64(confidence_interval(values)).tobytes() == expected.tobytes()


class TestEvaluatePredictions:
    def test_report_fields(self):
        report = evaluate_predictions([1.0, 2.0, 3.0], [1.1, 2.1, 2.9])
        assert report.num_samples == 3
        assert report.rmse == pytest.approx(0.1, abs=1e-9)
        assert 0.9 < report.explained_variance <= 1.0
        as_dict = report.as_dict()
        assert set(as_dict) == {"rmse", "mape", "explained_variance", "num_samples"}
