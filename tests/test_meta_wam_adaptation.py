"""Tests for WAM generation (Fig. 4) and the adaptation stage (Algorithm 2)."""

import numpy as np
import pytest

from repro.datasets.tasks import TaskSampler
from repro.meta.adaptation import (
    PAPER_ADAPTATION_CONFIG,
    AdaptationConfig,
    adapt_predictor,
    adapt_predictor_batch,
)
from repro.meta.wam import ArchitecturalMask, WAMBuilder, WAMConfig, generate_wam
from repro.nn.transformer import TransformerPredictor


NUM_PARAMETERS = 22


@pytest.fixture()
def model():
    return TransformerPredictor(
        NUM_PARAMETERS, embed_dim=8, num_heads=2, num_layers=1, head_hidden=8, seed=0
    )


class TestWAMBuilder:
    def test_accumulate_and_frequency(self):
        builder = WAMBuilder(4)
        attention = np.full((4, 4), 0.25)
        builder.accumulate(attention)
        builder.accumulate(np.eye(4))
        np.testing.assert_allclose(builder.frequency, (np.full((4, 4), 0.25) + np.eye(4)) / 2)

    def test_accumulate_averages_batch_and_heads(self):
        builder = WAMBuilder(3)
        attention = np.random.default_rng(0).dirichlet(np.ones(3), size=(2, 4, 3))
        builder.accumulate(attention)
        assert builder.frequency.shape == (3, 3)

    def test_wrong_shape_rejected(self):
        builder = WAMBuilder(4)
        with pytest.raises(ValueError):
            builder.accumulate(np.zeros((3, 3)))

    def test_frequency_requires_data(self):
        with pytest.raises(RuntimeError):
            WAMBuilder(4).frequency

    def test_build_mask_properties(self):
        builder = WAMBuilder(5, WAMConfig(keep_quantile=0.5, penalty=2.0))
        rng = np.random.default_rng(0)
        builder.accumulate(rng.dirichlet(np.ones(5), size=5))
        mask = builder.build()
        assert mask.bias.shape == (5, 5)
        assert set(np.unique(mask.bias)) <= {0.0, -2.0}
        assert np.all(np.diag(mask.bias) == 0.0)  # diagonal always kept
        assert 0.0 <= mask.sparsity <= 1.0

    def test_top_interactions_sorted(self):
        builder = WAMBuilder(4)
        frequency = np.arange(16, dtype=float).reshape(4, 4) / 16
        builder.accumulate(frequency)
        mask = builder.build()
        top = mask.top_interactions(3)
        assert top[0][2] >= top[1][2] >= top[2][2]

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            WAMConfig(keep_quantile=1.5)
        with pytest.raises(ValueError):
            WAMConfig(penalty=-1.0)


class TestGenerateWAM:
    def test_generate_from_model(self, model, small_dataset, small_split):
        sampler = TaskSampler(small_dataset, support_size=5, query_size=10, seed=0)
        mask = generate_wam(
            model, sampler, list(small_split.train),
            config=WAMConfig(episodes_per_workload=2),
        )
        assert mask.num_parameters == NUM_PARAMETERS
        assert mask.frequency.shape == (NUM_PARAMETERS, NUM_PARAMETERS)
        # Attention rows are distributions, so the average frequency per row
        # must itself sum to one.
        np.testing.assert_allclose(mask.frequency.sum(axis=-1), 1.0, rtol=1e-6)

    def test_harvests_in_the_model_dtype(self, model, small_dataset, small_split):
        # The episode arrays are float64; a float32 model must still be
        # harvested in float32 (the statistics accumulate in float64).
        model.to_dtype("float32")
        sampler = TaskSampler(small_dataset, support_size=5, query_size=10, seed=0)
        builder = WAMBuilder(NUM_PARAMETERS, WAMConfig(episodes_per_workload=2))
        builder.collect_from_model(model, sampler, list(small_split.train[:1]))
        assert model.last_attention_layer.last_attention.dtype == np.float32
        assert builder.frequency.dtype == np.float64

    def test_requires_source_workloads(self, model, small_dataset):
        sampler = TaskSampler(small_dataset, seed=0)
        builder = WAMBuilder(NUM_PARAMETERS)
        with pytest.raises(ValueError):
            builder.collect_from_model(model, sampler, [])


class TestAdaptation:
    def test_paper_config_values(self):
        assert PAPER_ADAPTATION_CONFIG.steps == 10
        assert PAPER_ADAPTATION_CONFIG.lr == pytest.approx(1e-5)

    def test_adaptation_reduces_support_loss(self, model, small_dataset):
        sampler = TaskSampler(small_dataset, support_size=20, query_size=10, seed=0)
        task = sampler.sample_task("648.exchange2_s")
        result = adapt_predictor(
            model, task.support_x, task.support_y,
            config=AdaptationConfig(steps=15, lr=0.05),
        )
        assert result.support_losses[-1] < result.support_losses[0]
        assert not result.used_mask

    def test_single_target_is_a_batch_of_one(self, model, small_dataset):
        sampler = TaskSampler(small_dataset, support_size=6, query_size=10, seed=0)
        task = sampler.sample_task("605.mcf_s")
        config = AdaptationConfig(steps=4, lr=0.05)
        single = adapt_predictor(model, task.support_x, task.support_y, config=config)
        (batched,) = adapt_predictor_batch(
            model, [(task.support_x, task.support_y)], config=config
        )
        assert single.support_losses == batched.support_losses
        for name, value in single.predictor.state_dict().items():
            np.testing.assert_array_equal(value, batched.predictor.state_dict()[name])

    def test_original_model_untouched(self, model, small_dataset):
        sampler = TaskSampler(small_dataset, support_size=10, query_size=10, seed=0)
        task = sampler.sample_task("625.x264_s")
        before = model.state_dict()
        adapt_predictor(model, task.support_x, task.support_y,
                        config=AdaptationConfig(steps=3, lr=0.05))
        for name, value in model.state_dict().items():
            np.testing.assert_allclose(before[name], value)

    def test_mask_installed_and_learnable(self, model, small_dataset):
        sampler = TaskSampler(small_dataset, support_size=10, query_size=10, seed=0)
        task = sampler.sample_task("625.x264_s")
        mask = ArchitecturalMask(
            bias=np.zeros((NUM_PARAMETERS, NUM_PARAMETERS)),
            frequency=np.ones((NUM_PARAMETERS, NUM_PARAMETERS)) / NUM_PARAMETERS,
            kept=np.ones((NUM_PARAMETERS, NUM_PARAMETERS), dtype=bool),
            config=WAMConfig(),
        )
        result = adapt_predictor(
            model, task.support_x, task.support_y, mask=mask,
            config=AdaptationConfig(steps=5, lr=0.05, mask_lr_multiplier=10.0),
        )
        assert result.used_mask
        adapted_mask = result.predictor.last_attention_layer.mask
        assert adapted_mask is not None
        # The learnable mask should have moved away from its initial zeros.
        assert not np.allclose(adapted_mask.data, 0.0)

    def test_batch_rejects_support_sets_of_different_shapes(self, model, small_dataset):
        small = TaskSampler(small_dataset, support_size=5, query_size=10, seed=0)
        large = TaskSampler(small_dataset, support_size=8, query_size=10, seed=0)
        supports = [
            (task.support_x, task.support_y)
            for task in (small.sample_task("602.gcc_s"), large.sample_task("602.gcc_s"))
        ]
        with pytest.raises(ValueError, match="one shape"):
            adapt_predictor_batch(model, supports, config=AdaptationConfig(steps=2))

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            AdaptationConfig(steps=0)
        with pytest.raises(ValueError):
            AdaptationConfig(mask_lr_multiplier=0.0)
