"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.utils.validation import (
    check_finite,
    check_in_range,
    check_positive,
    check_same_length,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive("x", 3.5) == 3.5

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="x"):
            check_positive("x", 0.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_positive("x", -1.0)


class TestCheckInRange:
    def test_accepts_inside(self):
        assert check_in_range("x", 0.5, 0.0, 1.0) == 0.5

    def test_accepts_boundaries(self):
        assert check_in_range("x", 0.0, 0.0, 1.0) == 0.0
        assert check_in_range("x", 1.0, 0.0, 1.0) == 1.0

    def test_rejects_outside(self):
        with pytest.raises(ValueError, match="x"):
            check_in_range("x", 1.5, 0.0, 1.0)


class TestCheckFinite:
    def test_accepts_finite(self):
        arr = np.array([1.0, 2.0])
        assert check_finite("x", arr) is not None

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="x"):
            check_finite("x", np.array([1.0, bad]))


class TestCheckSameLength:
    def test_accepts_equal(self):
        check_same_length("a", [1, 2], "b", [3, 4])

    def test_rejects_unequal(self):
        with pytest.raises(ValueError, match="a"):
            check_same_length("a", [1], "b", [1, 2])
