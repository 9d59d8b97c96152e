"""Tests for repro.designspace.parameters."""

import pytest
from hypothesis import given, strategies as st

from repro.designspace.parameters import (
    Parameter,
    ParameterError,
    categorical,
    ranged,
    strided_range,
)


class TestStridedRange:
    def test_table1_rob_range(self):
        values = strided_range(32, 256, 16)
        assert values[0] == 32
        assert values[-1] == 256
        assert len(values) == 15

    def test_single_value(self):
        assert strided_range(4, 4, 1) == (4,)

    def test_end_not_included_when_off_stride(self):
        assert strided_range(1, 10, 4) == (1, 5, 9)

    def test_bad_stride(self):
        with pytest.raises(ValueError):
            strided_range(1, 10, 0)

    def test_end_before_start(self):
        with pytest.raises(ValueError):
            strided_range(10, 1, 1)


class TestParameter:
    def test_cardinality(self):
        assert categorical("p", "", (1, 2, 3)).cardinality == 3

    def test_duplicate_values_rejected(self):
        with pytest.raises(ValueError):
            Parameter("p", "", (1, 1, 2))

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            Parameter("p", "", ())

    def test_index_roundtrip(self):
        parameter = ranged("p", "", 8, 48, 4)
        for index, value in enumerate(parameter.values):
            assert parameter.index_of(value) == index
            assert parameter.value_at(index) == value

    def test_unknown_value_raises(self):
        parameter = categorical("p", "", ("a", "b"))
        with pytest.raises(ParameterError, match="candidate"):
            parameter.index_of("c")

    def test_value_at_out_of_range(self):
        parameter = categorical("p", "", (1, 2))
        with pytest.raises(ParameterError):
            parameter.value_at(5)

    def test_contains(self):
        parameter = categorical("p", "", ("BiModeBP", "TournamentBP"))
        assert parameter.contains("BiModeBP")
        assert not parameter.contains("gshare")

    def test_normalized_endpoints(self):
        parameter = ranged("p", "", 0, 10, 1)
        assert parameter.normalized(0) == 0.0
        assert parameter.normalized(10) == 1.0

    def test_normalized_single_candidate(self):
        assert categorical("p", "", (5,)).normalized(5) == 0.0

    def test_denormalize_clips(self):
        parameter = ranged("p", "", 0, 4, 1)
        assert parameter.denormalize(-0.3) == 0
        assert parameter.denormalize(1.7) == 4


class TestNormalizationRoundtrip:
    @given(st.integers(min_value=2, max_value=40), st.data())
    def test_roundtrip_through_normalized(self, cardinality, data):
        parameter = Parameter("p", "", tuple(range(cardinality)))
        value = data.draw(st.sampled_from(parameter.values))
        assert parameter.denormalize(parameter.normalized(value)) == value
