"""Tests for the distributional workload features."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.stats.features import DISTRIBUTION_FEATURE_NAMES, distribution_features


class TestDistributionFeatures:
    def test_feature_vector_matches_names(self):
        features = distribution_features(np.arange(100, dtype=float))
        assert features.shape == (len(DISTRIBUTION_FEATURE_NAMES),)

    def test_known_values_for_uniform_ramp(self):
        values = np.arange(101, dtype=float)  # 0..100
        features = dict(zip(DISTRIBUTION_FEATURE_NAMES, distribution_features(values)))
        assert features["mean"] == pytest.approx(50.0)
        assert features["median"] == pytest.approx(50.0)
        assert features["q25"] == pytest.approx(25.0)
        assert features["q75"] == pytest.approx(75.0)
        assert features["iqr"] == pytest.approx(50.0)
        assert features["skewness"] == pytest.approx(0.0, abs=1e-9)

    def test_constant_sample_has_zero_shape_terms(self):
        features = dict(
            zip(DISTRIBUTION_FEATURE_NAMES, distribution_features(np.full(20, 3.5)))
        )
        assert features["std"] == 0.0
        assert features["skewness"] == 0.0
        assert features["kurtosis"] == 0.0
        assert features["iqr"] == 0.0

    def test_right_skewed_sample_has_positive_skewness(self):
        rng = np.random.default_rng(0)
        values = rng.exponential(scale=1.0, size=2000)
        features = dict(zip(DISTRIBUTION_FEATURE_NAMES, distribution_features(values)))
        assert features["skewness"] > 1.0

    def test_empty_input_raises(self):
        with pytest.raises(ValueError):
            distribution_features(np.array([]))

    @settings(max_examples=40, deadline=None)
    @given(
        values=npst.arrays(
            dtype=np.float64,
            shape=st.integers(min_value=1, max_value=200),
            elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        )
    )
    def test_invariants(self, values):
        """Finite output, ordered quantiles, non-negative spread terms."""
        features = dict(zip(DISTRIBUTION_FEATURE_NAMES, distribution_features(values)))
        assert all(np.isfinite(v) for v in features.values())
        assert features["q10"] <= features["q25"] <= features["median"]
        assert features["median"] <= features["q75"] <= features["q90"]
        assert features["std"] >= 0
        assert features["iqr"] >= 0


    def test_order_of_the_sample_does_not_matter(self):
        values = np.random.default_rng(1).gamma(2.0, size=300)
        np.testing.assert_allclose(
            distribution_features(values),
            distribution_features(np.random.default_rng(2).permutation(values)),
            rtol=1e-12,
            atol=1e-12,
        )

    def test_affine_map_moves_location_and_scales_spread(self):
        values = np.random.default_rng(3).lognormal(size=400)
        base = dict(zip(DISTRIBUTION_FEATURE_NAMES, distribution_features(values)))
        moved = dict(zip(DISTRIBUTION_FEATURE_NAMES, distribution_features(-2.0 * values + 5.0)))
        assert moved["mean"] == pytest.approx(-2.0 * base["mean"] + 5.0)
        assert moved["median"] == pytest.approx(-2.0 * base["median"] + 5.0)
        assert moved["std"] == pytest.approx(2.0 * base["std"])
        assert moved["iqr"] == pytest.approx(2.0 * base["iqr"])
        # A reflection flips the skew; the tail weight is unchanged.
        assert moved["skewness"] == pytest.approx(-base["skewness"])
        assert moved["kurtosis"] == pytest.approx(base["kurtosis"])
        assert moved["q10"] == pytest.approx(-2.0 * base["q90"] + 5.0)


class TestWorkloadFeatures:
    def test_distinguishes_memory_bound_from_compute_bound(self, small_dataset):
        mcf, exchange2 = (
            distribution_features(small_dataset[name].metric("ipc"))
            for name in ("605.mcf_s", "648.exchange2_s")
        )
        # mcf (memory bound) has a clearly lower mean IPC than exchange2.
        assert mcf[0] < exchange2[0]
