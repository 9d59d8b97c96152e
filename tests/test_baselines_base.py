"""Tests for the shared baseline helpers in repro.baselines.base."""

import numpy as np
import pytest

from repro.baselines.base import as_1d, as_2d, pooled_source_data


class TestAs2d:
    def test_matrix_passes_through_as_float64(self):
        out = as_2d(np.arange(6, dtype=np.int32).reshape(2, 3))
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, [[0, 1, 2], [3, 4, 5]])

    def test_vector_becomes_one_row(self):
        assert as_2d([1.0, 2.0, 3.0]).shape == (1, 3)

    @pytest.mark.parametrize("shape", [(), (2, 2, 2)])
    def test_other_ranks_rejected(self, shape):
        with pytest.raises(ValueError, match="2-D feature matrix"):
            as_2d(np.zeros(shape))


class TestAs1d:
    def test_column_is_flattened(self):
        out = as_1d(np.array([[1], [2], [3]], dtype=np.int64))
        assert out.dtype == np.float64 and out.shape == (3,)

    def test_length_checked_when_given(self):
        np.testing.assert_array_equal(as_1d([1.0, 2.0], length=2), [1.0, 2.0])
        with pytest.raises(ValueError, match="expected 3 targets, got 2"):
            as_1d([1.0, 2.0], length=3)


class TestPooledSourceData:
    def test_stacks_workloads_in_the_given_order(self, small_dataset):
        workloads = ["605.mcf_s", "625.x264_s"]
        features, labels = pooled_source_data(small_dataset, workloads, "power")
        first, second = (small_dataset[w] for w in workloads)
        np.testing.assert_array_equal(features, np.concatenate([first.features, second.features]))
        np.testing.assert_array_equal(
            labels, np.concatenate([first.metric("power"), second.metric("power")])
        )

    def test_needs_a_workload(self, small_dataset):
        with pytest.raises(ValueError, match="at least one workload"):
            pooled_source_data(small_dataset, [], "ipc")
