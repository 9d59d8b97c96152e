"""Tests for repro.datasets.similarity (Fig. 2 machinery)."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import wasserstein_distance

from repro.datasets.similarity import (
    SimilarityMatrix,
    _wasserstein_distance,
    select_similar_sources,
    similarity_matrix,
    standardized_wasserstein,
)

_VALUES = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def _sample_pairs(draw):
    """Two float64 samples of 1-300 values each: free values, values drawn
    from a few shared atoms (ties within and across the samples), or one
    sample twice."""
    kind = draw(st.sampled_from(("free", "tied", "identical")))
    elements = _VALUES
    if kind == "tied":
        elements = st.sampled_from(draw(st.lists(_VALUES, min_size=1, max_size=8)))
    sizes = st.integers(1, 300)
    u = draw(hnp.arrays(np.float64, sizes, elements=elements))
    v = u.copy() if kind == "identical" else draw(hnp.arrays(np.float64, sizes, elements=elements))
    return u, v


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


class TestWassersteinPort:
    """The NumPy distance returns SciPy's bits (SciPy is the test oracle)."""

    @settings(max_examples=300, deadline=None)
    @given(_sample_pairs())
    @example((np.array([0.5]), np.array([-1.0, 0.5, 0.5, 2.0])))
    @example((np.array([3.0]), np.array([3.0])))
    def test_bitwise_equal_to_scipy(self, pair):
        u, v = pair
        assert _bits(_wasserstein_distance(u, v)) == _bits(wasserstein_distance(u, v))

    @settings(max_examples=50, deadline=None)
    @given(_sample_pairs())
    def test_standardized_distance_is_scipys(self, pair):
        a, b = pair
        pooled = np.concatenate([a, b])
        scale = pooled.std()
        if scale < 1e-12:
            expected = 0.0
        else:
            mean = pooled.mean()
            expected = float(wasserstein_distance((a - mean) / scale, (b - mean) / scale))
        assert _bits(standardized_wasserstein(a, b)) == _bits(expected)


class TestStandardizedWasserstein:
    def test_identical_distributions_are_zero(self):
        rng = np.random.default_rng(0)
        sample = rng.normal(size=200)
        assert standardized_wasserstein(sample, sample) == pytest.approx(0.0)

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=100), rng.normal(2.0, 1.0, size=100)
        assert standardized_wasserstein(a, b) == pytest.approx(
            standardized_wasserstein(b, a)
        )

    def test_constant_samples(self):
        assert standardized_wasserstein(np.ones(10), np.ones(10)) == 0.0

    @pytest.mark.parametrize("empty_first", [True, False])
    def test_empty_sample_is_rejected(self, empty_first):
        samples = (np.array([]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="empty"):
            standardized_wasserstein(*(samples if empty_first else samples[::-1]))

    def test_zero_spread_returns_zero(self):
        # The pooled spread is about 1e-15, below the 1e-12 cut-off.
        distance = standardized_wasserstein(np.full(3, 5.0), np.full(7, 5.0 + 4e-15))
        assert type(distance) is float and distance == 0.0

    def test_shifted_distributions_have_positive_distance(self):
        rng = np.random.default_rng(2)
        a = rng.normal(0.0, 1.0, size=300)
        b = rng.normal(3.0, 1.0, size=300)
        assert standardized_wasserstein(a, b) > 0.5

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.floats(-100, 100), min_size=5, max_size=40),
        st.lists(st.floats(-100, 100), min_size=5, max_size=40),
    )
    def test_non_negative(self, a, b):
        assert standardized_wasserstein(np.array(a), np.array(b)) >= 0.0


class TestSimilarityMatrix:
    def test_shape_and_symmetry(self, small_dataset):
        matrix = similarity_matrix(small_dataset, metric="ipc")
        n = len(small_dataset.workloads)
        assert matrix.distances.shape == (n, n)
        np.testing.assert_allclose(matrix.distances, matrix.distances.T)
        np.testing.assert_allclose(np.diag(matrix.distances), 0.0)

    def test_normalized_to_unit_maximum(self, small_dataset):
        matrix = similarity_matrix(small_dataset, metric="ipc")
        assert matrix.distances.max() == pytest.approx(1.0)

    def test_workloads_are_dissimilar(self, small_dataset):
        """The Fig. 2 motivation: many workload pairs are far apart."""
        matrix = similarity_matrix(small_dataset, metric="ipc")
        assert matrix.mean_offdiagonal() > 0.1

    def test_distance_lookup(self, small_dataset):
        matrix = similarity_matrix(small_dataset, metric="ipc")
        value = matrix.distance("605.mcf_s", "625.x264_s")
        assert value == matrix.distance("625.x264_s", "605.mcf_s")

    def test_most_similar_excludes_self(self, small_dataset):
        matrix = similarity_matrix(small_dataset, metric="ipc")
        nearest = matrix.most_similar("605.mcf_s", count=3)
        assert "605.mcf_s" not in nearest
        assert len(nearest) == 3

    def test_memory_bound_pair_is_closer_than_opposites(self, small_dataset):
        matrix = similarity_matrix(small_dataset, metric="ipc")
        similar = matrix.distance("605.mcf_s", "620.omnetpp_s")
        dissimilar = matrix.distance("605.mcf_s", "638.imagick_s")
        assert similar < dissimilar

    def test_matrix_shape_must_match_the_workloads(self):
        with pytest.raises(ValueError, match="does not match 3 workloads"):
            SimilarityMatrix(workloads=("a", "b", "c"), metric="ipc", distances=np.zeros((2, 2)))

    def test_to_rows(self, small_dataset):
        matrix = similarity_matrix(small_dataset, metric="power")
        rows = matrix.to_rows()
        assert len(rows) == len(small_dataset.workloads)
        assert rows[0]["workload"] in small_dataset.workloads


class TestSelectSimilarSources:
    def test_selects_most_similar_source(self, small_dataset):
        # Support labels drawn from omnetpp should rank mcf (another
        # memory-bound workload) above imagick (compute-bound).
        support = small_dataset["620.omnetpp_s"].metric("ipc")[:20]
        ranked = select_similar_sources(
            small_dataset,
            support,
            source_workloads=["605.mcf_s", "638.imagick_s", "625.x264_s"],
            top_k=3,
        )
        assert ranked[0] == "605.mcf_s"

    def test_top_k_limits_output(self, small_dataset):
        support = small_dataset["602.gcc_s"].metric("ipc")[:10]
        ranked = select_similar_sources(
            small_dataset, support,
            source_workloads=["605.mcf_s", "625.x264_s"], top_k=1,
        )
        assert len(ranked) == 1

    def test_invalid_top_k(self, small_dataset):
        with pytest.raises(ValueError):
            select_similar_sources(
                small_dataset, np.ones(5),
                source_workloads=["605.mcf_s"], top_k=0,
            )
