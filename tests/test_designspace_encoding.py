"""Tests for repro.designspace.encoding."""

import numpy as np
import pytest

from repro.designspace.encoding import OrdinalEncoder
from repro.designspace.parameters import ParameterError
from repro.designspace.sampling import RandomSampler
from repro.designspace.spec import build_table1_space


@pytest.fixture(scope="module")
def space():
    return build_table1_space()


class TestOrdinalEncoder:
    def test_encode_bounds(self, space):
        encoder = OrdinalEncoder(space)
        configs = RandomSampler(space, seed=0).sample(20)
        features = encoder.encode_batch(configs)
        assert features.shape == (20, space.num_parameters)
        assert features.min() >= 0.0 and features.max() <= 1.0

    def test_roundtrip(self, space):
        encoder = OrdinalEncoder(space)
        for config in RandomSampler(space, seed=1).sample(10):
            assert encoder.decode(encoder.encode(config)) == config

    def test_encode_is_the_space_feature_map(self, space):
        encoder = OrdinalEncoder(space)
        configs = RandomSampler(space, seed=2).sample(8)
        np.testing.assert_array_equal(
            encoder.encode_batch(configs), np.stack([space.to_features(c) for c in configs])
        )

    def test_empty_batch_keeps_the_feature_width(self, space):
        assert OrdinalEncoder(space).encode_batch([]).shape == (0, space.num_parameters)

    def test_decode_snaps_to_the_nearest_candidate(self, space):
        encoder = OrdinalEncoder(space)
        config = RandomSampler(space, seed=3).sample(1)[0]
        # Half a step between two candidates is the widest nudge that still
        # snaps back; a quarter of the narrowest step is safely inside it.
        step = 1.0 / (space.cardinalities().max() - 1)
        nudged = np.clip(encoder.encode(config) + 0.25 * step, 0.0, 1.0)
        assert encoder.decode(nudged) == config

    def test_encode_rejects_a_value_outside_the_space(self, space):
        config = RandomSampler(space, seed=4).sample(1)[0]
        config["rob_size"] = 7
        with pytest.raises(ParameterError):
            OrdinalEncoder(space).encode(config)

