"""Tests for the DSE quality metrics (ADRS, coverage, hypervolume ratio)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.dse.pareto import hypervolume_2d
from repro.dse.quality import (
    adrs,
    hypervolume_ratio,
    hypervolume_slope,
    monte_carlo_hypervolume,
    normalize_objectives,
)

REFERENCE = np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]])


class TestNormalizeObjectives:
    def test_reference_spans_unit_box(self):
        points, reference = normalize_objectives(REFERENCE.copy(), REFERENCE)
        assert reference.min(axis=0) == pytest.approx([0.0, 0.0])
        assert reference.max(axis=0) == pytest.approx([1.0, 1.0])
        assert np.allclose(points, reference)

    def test_constant_objective_does_not_divide_by_zero(self):
        reference = np.array([[1.0, 5.0], [2.0, 5.0]])
        points, scaled_reference = normalize_objectives(reference.copy(), reference)
        assert np.all(np.isfinite(points))
        assert np.allclose(scaled_reference[:, 1], 0.0)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            normalize_objectives(np.zeros((2, 3)), REFERENCE)

    def test_empty_input_raises(self):
        with pytest.raises(ValueError):
            normalize_objectives(np.zeros((0, 2)), REFERENCE)


class TestADRS:
    def test_zero_when_reference_is_recovered(self):
        assert adrs(REFERENCE.copy(), REFERENCE) == pytest.approx(0.0)

    def test_zero_when_found_dominates_the_reference(self):
        better = REFERENCE - 0.5
        assert adrs(better, REFERENCE) == pytest.approx(0.0)

    def test_positive_when_found_falls_short(self):
        worse = REFERENCE + 0.5
        assert adrs(worse, REFERENCE) > 0.0

    def test_known_value_single_reference_point(self):
        reference = np.array([[0.0, 0.0], [2.0, 2.0]])
        found = np.array([[1.0, 1.0]])
        # Normalised ranges are 2; shortfall to [0,0] is 0.5, to [2,2] is 0.
        assert adrs(found, reference) == pytest.approx(0.25)

    def test_closer_fronts_score_lower(self):
        near = REFERENCE + 0.1
        far = REFERENCE + 1.0
        assert adrs(near, REFERENCE) < adrs(far, REFERENCE)

    @settings(max_examples=30, deadline=None)
    @given(
        found=npst.arrays(
            np.float64,
            shape=st.tuples(st.integers(1, 10), st.just(2)),
            elements=st.floats(-100, 100, allow_nan=False),
        )
    )
    def test_non_negative_and_finite(self, found):
        value = adrs(found, REFERENCE)
        assert value >= 0.0
        assert np.isfinite(value)


class TestMonteCarloHypervolume:
    """The seeded estimator behind 3+-objective quality tracking."""

    def test_matches_exact_2d_sweep_on_2_objective_fronts(self):
        # The unit contract the tracker relies on: on two objectives the
        # estimate converges to the exact sweep.  64k samples put the
        # standard error well under the asserted 2 % band.
        rng = np.random.default_rng(7)
        for trial in range(3):
            points = rng.random((12, 2)) * 4.0
            reference = points.max(axis=0) + 0.5
            exact = hypervolume_2d(points, reference)
            estimate = monte_carlo_hypervolume(
                points, reference, num_samples=65536, seed=trial
            )
            assert estimate == pytest.approx(exact, rel=0.02)

    def test_single_point_3d_front_has_analytic_volume(self):
        front = np.array([[1.0, 2.0, 3.0]])
        reference = np.array([3.0, 4.0, 4.0])
        exact = (3 - 1) * (4 - 2) * (4 - 3)
        estimate = monte_carlo_hypervolume(front, reference, num_samples=50000, seed=0)
        # A single dominating point covers the whole sampling box exactly.
        assert estimate == pytest.approx(exact)

    def test_seeded_and_deterministic(self):
        front = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 2.0], [2.0, 2.0, 0.0]])
        reference = np.array([3.0, 3.0, 3.0])
        first = monte_carlo_hypervolume(front, reference, seed=42)
        second = monte_carlo_hypervolume(front, reference, seed=42)
        other_seed = monte_carlo_hypervolume(front, reference, seed=43)
        assert first == second
        assert first != other_seed  # different stream, different estimate

    def test_points_beyond_the_reference_contribute_nothing(self):
        inside = np.array([[1.0, 1.0]])
        with_outlier = np.array([[1.0, 1.0], [5.0, 0.5]])
        reference = np.array([2.0, 2.0])
        assert monte_carlo_hypervolume(
            with_outlier, reference, seed=1
        ) == monte_carlo_hypervolume(inside, reference, seed=1)

    def test_degenerate_front_is_zero(self):
        reference = np.array([1.0, 1.0])
        assert monte_carlo_hypervolume(np.array([[1.0, 1.0]]), reference) == 0.0
        assert monte_carlo_hypervolume(np.array([[2.0, 2.0]]), reference) == 0.0

    def test_monotone_in_front_quality(self):
        reference = np.array([4.0, 4.0, 4.0])
        worse = np.array([[2.0, 2.0, 2.0]])
        better = np.array([[1.0, 1.0, 1.0]])
        assert monte_carlo_hypervolume(better, reference, seed=0) > (
            monte_carlo_hypervolume(worse, reference, seed=0)
        )

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            monte_carlo_hypervolume(np.zeros((2, 2)), np.zeros(3))
        with pytest.raises(ValueError):
            monte_carlo_hypervolume(np.zeros((0, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            monte_carlo_hypervolume(np.ones((2, 2)), np.full(2, 2.0), num_samples=0)


class TestHypervolumeRatio:
    def test_identical_fronts_have_ratio_one(self):
        assert hypervolume_ratio(REFERENCE.copy(), REFERENCE) == pytest.approx(1.0)

    def test_dominating_front_exceeds_one(self):
        assert hypervolume_ratio(REFERENCE - 0.5, REFERENCE) > 1.0

    def test_reference_point_is_the_joint_nadir_plus_a_tenth_of_the_span(self):
        found = REFERENCE + np.array([0.5, -0.25])
        nadir = np.maximum(found.max(axis=0), REFERENCE.max(axis=0))
        span = nadir - np.minimum(found.min(axis=0), REFERENCE.min(axis=0))
        point = nadir + 0.1 * span
        expected = hypervolume_2d(found, point) / hypervolume_2d(REFERENCE, point)
        assert hypervolume_ratio(found, REFERENCE) == expected

    def test_dominated_front_below_one(self):
        assert hypervolume_ratio(REFERENCE + 0.5, REFERENCE) < 1.0

    def test_requires_two_objectives(self):
        with pytest.raises(ValueError):
            hypervolume_ratio(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_bounded_below_by_zero(self):
        ratio = hypervolume_ratio(REFERENCE + 100.0, REFERENCE)
        assert ratio >= 0.0


class TestQualitySlopes:
    """The bandit reward signal (``repro.dse.portfolio``): per-round
    improvement rate of a quality history, NaN-safe and never NaN itself."""

    def test_monotone_hypervolume_growth_scores_the_mean_delta(self):
        assert hypervolume_slope([1.0, 1.5, 2.5]) == pytest.approx(0.75)
        assert hypervolume_slope([1.0, 1.5, 2.5], window=1) == pytest.approx(1.0)
        assert hypervolume_slope([1.0, 1.5, 2.5], window=2) == pytest.approx(0.75)

    def test_flat_history_has_zero_slope(self):
        assert hypervolume_slope([2.0, 2.0, 2.0]) == 0.0

    def test_single_round_campaign_is_neutral(self):
        # One recorded round has no delta to measure — neutral, not NaN.
        assert hypervolume_slope([3.0]) == 0.0
        assert hypervolume_slope([3.0], window=1) == 0.0
        assert hypervolume_slope([]) == 0.0

    def test_nan_rounds_void_only_the_deltas_they_touch(self):
        # A NaN hypervolume (single-point front) voids its two adjacent
        # deltas; the finite deltas still average.
        assert hypervolume_slope([1.0, np.nan, 2.0, 2.5]) == pytest.approx(0.5)
        assert hypervolume_slope([np.nan, 1.0, 1.4]) == pytest.approx(0.4)

    def test_all_nan_history_is_neutral(self):
        assert hypervolume_slope([np.nan, np.nan, np.nan]) == 0.0
        assert hypervolume_slope([np.nan, 1.0]) == 0.0
        assert hypervolume_slope([1.0, np.nan]) == 0.0

    def test_window_restricts_to_trailing_rounds(self):
        # Early collapse outside the window must not drag the slope down.
        history = [10.0, 0.0, 1.0, 2.0]
        assert hypervolume_slope(history, window=2) == pytest.approx(1.0)
        assert hypervolume_slope(history) == pytest.approx(-8.0 / 3.0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="window"):
            hypervolume_slope([1.0, 2.0], window=0)
        with pytest.raises(ValueError, match="1-D"):
            hypervolume_slope(np.zeros((2, 2)))
