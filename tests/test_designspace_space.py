"""Tests for repro.designspace.space and the Table I specification."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.designspace.parameters import ParameterError, categorical, ranged
from repro.designspace.space import DesignSpace
from repro.designspace.spec import build_table1_space, table1_parameters


@pytest.fixture()
def tiny_space():
    return DesignSpace(
        [
            categorical("freq", "", (1.0, 2.0, 3.0)),
            ranged("width", "", 1, 4, 1),
            categorical("bp", "", ("BiModeBP", "TournamentBP")),
        ],
        name="tiny",
    )


class TestDesignSpaceBasics:
    def test_len_and_names(self, tiny_space):
        assert len(tiny_space) == 3
        assert tiny_space.parameter_names == ["freq", "width", "bp"]

    def test_size(self, tiny_space):
        assert tiny_space.size() == 3 * 4 * 2

    def test_cardinalities(self, tiny_space):
        np.testing.assert_array_equal(tiny_space.cardinalities(), [3, 4, 2])

    def test_getitem_unknown(self, tiny_space):
        with pytest.raises(KeyError):
            tiny_space["nope"]

    def test_contains(self, tiny_space):
        assert "freq" in tiny_space
        assert "nope" not in tiny_space

    def test_duplicate_parameter_names_rejected(self):
        with pytest.raises(ValueError):
            DesignSpace([categorical("a", "", (1,)), categorical("a", "", (2,))])

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError):
            DesignSpace([])

    def test_describe_mentions_every_parameter(self, tiny_space):
        text = tiny_space.describe()
        for name in tiny_space.parameter_names:
            assert name in text


class TestValidation:
    def test_valid_config(self, tiny_space):
        config = {"freq": 2.0, "width": 3, "bp": "BiModeBP"}
        assert tiny_space.validate(config) == config

    def test_missing_parameter(self, tiny_space):
        with pytest.raises(ParameterError, match="missing"):
            tiny_space.validate({"freq": 2.0, "width": 3})

    def test_unknown_parameter(self, tiny_space):
        with pytest.raises(ParameterError, match="unknown"):
            tiny_space.validate(
                {"freq": 2.0, "width": 3, "bp": "BiModeBP", "extra": 1}
            )

    def test_bad_value(self, tiny_space):
        with pytest.raises(ParameterError):
            tiny_space.validate({"freq": 2.0, "width": 99, "bp": "BiModeBP"})


class TestConversions:
    def test_indices_roundtrip(self, tiny_space):
        config = {"freq": 3.0, "width": 2, "bp": "TournamentBP"}
        indices = tiny_space.to_indices(config)
        assert tiny_space.from_indices(indices) == config

    def test_features_roundtrip(self, tiny_space):
        config = {"freq": 1.0, "width": 4, "bp": "BiModeBP"}
        features = tiny_space.to_features(config)
        assert features.min() >= 0.0 and features.max() <= 1.0
        assert tiny_space.from_features(features) == config

    def test_batch_to_features_shape(self, tiny_space):
        configs = [tiny_space.from_indices([0, 1, 1]) for _ in range(5)]
        assert tiny_space.batch_to_features(configs).shape == (5, 3)

    def test_batch_to_features_empty(self, tiny_space):
        assert tiny_space.batch_to_features([]).shape == (0, 3)

    def test_from_indices_wrong_shape(self, tiny_space):
        with pytest.raises(ValueError):
            tiny_space.from_indices([0, 1])

    def test_from_indices_rejects_non_integer_vectors(self, tiny_space):
        # A float vector used to truncate silently: [2.7, 1.2, 1.9] decoded
        # to the configuration of [2, 1, 1].
        with pytest.raises(ValueError, match="integer"):
            tiny_space.from_indices([2.7, 1.2, 1.9])
        with pytest.raises(ValueError, match="integer"):
            tiny_space.from_indices(np.array([2.0, 1.0, 1.0]))
        expected = {"freq": 3.0, "width": 2, "bp": "TournamentBP"}
        assert tiny_space.from_indices([2, 1, 1]) == expected
        for dtype in (np.int64, np.int32, np.uint8):
            assert tiny_space.from_indices(np.array([2, 1, 1], dtype=dtype)) == expected


class TestTable1Space:
    def test_has_22_parameters(self):
        assert len(table1_parameters()) == 22

    def test_size_is_astronomical(self):
        # The point of surrogate-model DSE: the space cannot be enumerated.
        assert build_table1_space().size() > 1e15

    def test_key_parameters_present(self):
        space = build_table1_space()
        for name in ("core_frequency_ghz", "pipeline_width", "rob_size",
                     "branch_predictor", "l2_size_kb"):
            assert name in space

    def test_rob_candidates_match_table(self):
        space = build_table1_space()
        assert space["rob_size"].values[0] == 32
        assert space["rob_size"].values[-1] == 256

    def test_pipeline_width_range(self):
        space = build_table1_space()
        assert space["pipeline_width"].values == tuple(range(1, 13))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_random_feature_roundtrip(self, seed):
        space = build_table1_space()
        rng = np.random.default_rng(seed)
        indices = [int(rng.integers(0, p.cardinality)) for p in space.parameters]
        config = space.from_indices(indices)
        assert space.from_features(space.to_features(config)) == config
