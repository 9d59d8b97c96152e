"""Tests for the k-means clustering substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.kmeans import KMeans


def _blobs(rng, centers, points_per_blob=20, scale=0.05):
    data = []
    for center in centers:
        data.append(rng.normal(loc=center, scale=scale, size=(points_per_blob, len(center))))
    return np.concatenate(data, axis=0)


class TestKMeans:
    def test_recovers_well_separated_blobs(self):
        rng = np.random.default_rng(0)
        centers = [(0.0, 0.0), (5.0, 5.0), (-5.0, 5.0)]
        data = _blobs(rng, centers)
        result = KMeans(3, seed=1).fit(data)
        # Every blob maps to exactly one cluster: 3 clusters of 20 points.
        assert sorted(np.bincount(result.labels, minlength=3).tolist()) == [20, 20, 20]
        # Recovered centres are close to the true ones (in some order).
        for true_center in centers:
            distances = np.linalg.norm(result.centers - np.asarray(true_center), axis=1)
            assert distances.min() < 0.5

    def test_predict_assigns_to_nearest_center(self):
        rng = np.random.default_rng(1)
        data = _blobs(rng, [(0.0, 0.0), (10.0, 10.0)])
        model = KMeans(2, seed=0)
        result = model.fit(data)
        near_origin = model.predict(np.array([[0.1, -0.2]]))[0]
        near_far = model.predict(np.array([[9.8, 10.1]]))[0]
        assert near_origin != near_far
        origin_cluster = int(
            np.argmin(np.linalg.norm(result.centers - np.zeros(2), axis=1))
        )
        assert near_origin == origin_cluster

    def test_single_cluster_center_is_mean(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(40, 3))
        result = KMeans(1, seed=0).fit(data)
        assert np.allclose(result.centers[0], data.mean(axis=0))
        assert np.all(result.labels == 0)

    def test_inertia_decreases_with_more_clusters(self):
        rng = np.random.default_rng(3)
        data = _blobs(rng, [(0, 0), (4, 4), (8, 0)], points_per_blob=15, scale=0.5)
        inertia_2 = KMeans(2, seed=0).fit(data).inertia
        inertia_3 = KMeans(3, seed=0).fit(data).inertia
        assert inertia_3 < inertia_2

    def test_duplicate_points_do_not_crash(self):
        data = np.tile(np.array([[1.0, 2.0]]), (10, 1))
        result = KMeans(2, seed=0).fit(data)
        assert result.inertia == pytest.approx(0.0)

    def test_same_seed_gives_the_same_clustering(self):
        data = _blobs(np.random.default_rng(4), [(0, 0), (3, 3), (6, 0)], scale=0.8)
        first, second = KMeans(3, seed=9).fit(data), KMeans(3, seed=9).fit(data)
        np.testing.assert_array_equal(first.labels, second.labels)
        np.testing.assert_array_equal(first.centers, second.centers)
        assert first.num_clusters == 3 and first.iterations >= 1

    def test_centres_are_the_means_of_their_clusters(self):
        data = _blobs(np.random.default_rng(5), [(0, 0), (4, 0)], scale=0.3)
        result = KMeans(2, seed=0).fit(data)
        for cluster in range(result.num_clusters):
            np.testing.assert_allclose(
                result.centers[cluster], data[result.labels == cluster].mean(axis=0)
            )

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            KMeans(2).predict(np.zeros((3, 2)))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_clusters": 0},
            {"num_clusters": 2, "max_iterations": 0},
            {"num_clusters": 2, "restarts": 0},
        ],
    )
    def test_invalid_constructor_arguments(self, kwargs):
        with pytest.raises(ValueError):
            KMeans(**kwargs)

    def test_too_few_rows_raises(self):
        with pytest.raises(ValueError):
            KMeans(5).fit(np.zeros((3, 2)))

    def test_non_2d_input_raises(self):
        with pytest.raises(ValueError):
            KMeans(2).fit(np.zeros(10))

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=6, max_value=40),
        d=st.integers(min_value=1, max_value=5),
        k=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_invariants_on_random_data(self, n, d, k, seed):
        """Labels are in range, every point is assigned, inertia matches labels."""
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(n, d))
        result = KMeans(k, seed=seed, restarts=1).fit(data)
        assert result.labels.shape == (n,)
        assert result.labels.min() >= 0 and result.labels.max() < k
        assert result.centers.shape == (k, d)
        recomputed = float(
            np.sum((data - result.centers[result.labels]) ** 2)
        )
        assert result.inertia == pytest.approx(recomputed, rel=1e-9, abs=1e-9)
