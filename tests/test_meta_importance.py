"""Tests for the parameter-importance profile API (repro.meta.wam).

The profiles are the acquisition signal of the attention-guided pruning
layer (``docs/pruning.md``): everything downstream — FocusedSampler grids,
FocusedPool pools, campaign reproducibility — inherits their determinism,
so these tests pin normalization, seeding, tie-breaking and the PR 6
thread-count bitwise contract.
"""

import numpy as np
import pytest

from repro.designspace.encoding import OrdinalEncoder
from repro.designspace.sampling import RandomSampler
from repro.designspace.spec import build_table1_space
from repro.meta.wam import (
    ImportanceProfile,
    attention_importance,
    importance_profile,
    merge_profiles,
    profile_from_predictors,
)
from repro.nn import parallel as nn_parallel
from repro.nn.transformer import TransformerPredictor

PREDICTOR_KWARGS = dict(embed_dim=16, num_heads=2, num_layers=2, head_hidden=16)


@pytest.fixture(scope="module")
def space():
    return build_table1_space()


@pytest.fixture(scope="module")
def features(space):
    sampler = RandomSampler(space, seed=11)
    return OrdinalEncoder(space).encode_batch(sampler.sample(16))


@pytest.fixture(scope="module")
def predictor(space):
    return TransformerPredictor(space.num_parameters, seed=3, **PREDICTOR_KWARGS)


class TestImportanceProfile:
    def test_normalized_and_non_negative(self):
        profile = ImportanceProfile(scores=np.array([3.0, 1.0, 0.0, 4.0]))
        assert profile.scores.min() >= 0.0
        assert profile.scores.sum() == pytest.approx(1.0)
        assert profile.num_parameters == 4

    def test_rejects_bad_scores(self):
        with pytest.raises(ValueError, match="non-negative"):
            ImportanceProfile(scores=np.array([1.0, -0.5]))
        with pytest.raises(ValueError, match="positive mass"):
            ImportanceProfile(scores=np.zeros(3))
        with pytest.raises(ValueError, match="finite"):
            ImportanceProfile(scores=np.array([1.0, np.nan]))
        with pytest.raises(ValueError, match="1-D"):
            ImportanceProfile(scores=np.ones((2, 2)))


class TestAttentionImportance:
    def test_reduces_to_key_axis(self):
        attention = np.zeros((2, 3, 4, 4))
        attention[..., 1] = 1.0  # every query attends to key 1
        scores = attention_importance(attention)
        assert scores.shape == (4,)
        np.testing.assert_allclose(scores, [0.0, 1.0, 0.0, 0.0])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            attention_importance(np.ones((2, 3, 4)))

    def test_rejects_zero_mass(self):
        with pytest.raises(ValueError, match="positive finite mass"):
            attention_importance(np.zeros((2, 2)))


class TestImportanceProfileHarvest:
    def test_same_seed_identical_profile(self, space, features):
        first = importance_profile(
            TransformerPredictor(space.num_parameters, seed=7, **PREDICTOR_KWARGS),
            features,
            workload="w",
        )
        second = importance_profile(
            TransformerPredictor(space.num_parameters, seed=7, **PREDICTOR_KWARGS),
            features,
            workload="w",
        )
        np.testing.assert_array_equal(first.scores, second.scores)
        assert first.workload == "w"

    def test_normalized_per_parameter(self, space, predictor, features):
        profile = importance_profile(predictor, features)
        assert profile.num_parameters == space.num_parameters
        assert profile.scores.dtype == np.float64
        assert (profile.scores >= 0.0).all()
        assert profile.scores.sum() == pytest.approx(1.0)

    def test_bitwise_stable_across_thread_counts(self, predictor, features):
        # Profile harvesting runs the autodiff forward, which does not read
        # the worker count, so the distilled scores carry identical bits
        # for every thread setting.
        with nn_parallel.threads(1):
            serial = importance_profile(predictor, features)
        with nn_parallel.threads(4):
            threaded = importance_profile(predictor, features)
        np.testing.assert_array_equal(serial.scores, threaded.scores)

    def test_harvest_restores_the_recorded_attention(self, predictor, features):
        layer = predictor.last_attention_layer
        layer.last_attention = None
        importance_profile(predictor, features)
        assert layer.last_attention is None

    def test_masked_predictor_profiles_deterministically(self, space, features):
        masked = TransformerPredictor(
            space.num_parameters, seed=5, **PREDICTOR_KWARGS
        )
        bias = np.linspace(0.0, 1.0, space.num_parameters)
        masked.install_mask(np.outer(bias, bias))
        with nn_parallel.threads(1):
            serial = importance_profile(masked, features)
        with nn_parallel.threads(4):
            threaded = importance_profile(masked, features)
        np.testing.assert_array_equal(serial.scores, threaded.scores)


class TestSurrogateAttentionProfile:
    def test_stacked_surrogate_profile_merges_its_predictors(self, space, features):
        from repro.dse.surrogates import StackedPredictorSurrogate

        predictors = [
            TransformerPredictor(space.num_parameters, seed=seed, **PREDICTOR_KWARGS)
            for seed in (1, 2)
        ]
        surrogate = StackedPredictorSurrogate(predictors, ("ipc", "power"))
        profile = surrogate.attention_profile(features)
        expected = profile_from_predictors(predictors, features)
        np.testing.assert_array_equal(profile.scores, expected.scores)
        merged = merge_profiles([importance_profile(p, features) for p in predictors])
        np.testing.assert_array_equal(profile.scores, merged.scores)


class TestMergeProfiles:
    def test_mean_and_renormalize(self):
        a = ImportanceProfile(scores=np.array([1.0, 0.0]))
        b = ImportanceProfile(scores=np.array([0.0, 1.0]))
        merged = merge_profiles([a, b])
        np.testing.assert_allclose(merged.scores, [0.5, 0.5])
        assert merged.workload is None

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(ValueError, match="at least one"):
            merge_profiles([])
        a = ImportanceProfile(scores=np.ones(3))
        b = ImportanceProfile(scores=np.ones(4))
        with pytest.raises(ValueError, match="different numbers"):
            merge_profiles([a, b])

    def test_profile_from_predictors_merges(self, space, features):
        models = [
            TransformerPredictor(space.num_parameters, seed=s, **PREDICTOR_KWARGS)
            for s in (1, 2)
        ]
        merged = profile_from_predictors(models, features, workload="w")
        individually = merge_profiles(
            [importance_profile(m, features, workload="w") for m in models],
            workload="w",
        )
        np.testing.assert_array_equal(merged.scores, individually.scores)
        assert merged.workload == "w"
        with pytest.raises(ValueError, match="at least one"):
            profile_from_predictors([], features)
