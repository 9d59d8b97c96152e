"""Tests for the ANIL and Meta-SGD meta-learning variants."""

import numpy as np
import pytest

from repro.datasets.tasks import TaskSampler
from repro.meta.maml import MAMLConfig, MAMLTrainer
from repro.meta.variants import (
    META_TRAINER_VARIANTS,
    ANILTrainer,
    MetaSGDTrainer,
    make_meta_trainer,
)
from repro.nn.layers import MLP
from repro.nn.transformer import TransformerPredictor


def _tiny_predictor(num_parameters=22, seed=0):
    return TransformerPredictor(
        num_parameters, embed_dim=16, num_heads=2, num_layers=1, head_hidden=16, seed=seed
    )


def _tiny_config(**overrides):
    defaults = dict(
        inner_lr=0.02,
        outer_lr=2e-3,
        inner_steps=2,
        meta_epochs=1,
        tasks_per_workload=3,
        meta_batch_size=2,
        support_size=5,
        query_size=10,
        seed=0,
    )
    defaults.update(overrides)
    return MAMLConfig(**defaults)


@pytest.fixture(scope="module")
def sampler(small_dataset):
    return TaskSampler(small_dataset, metric="ipc", support_size=5, query_size=10, seed=0)


@pytest.fixture(scope="module")
def one_task(sampler):
    return sampler.sample_task("625.x264_s")


class TestANIL:
    def test_inner_loop_only_touches_the_head(self, one_task):
        model = _tiny_predictor()
        trainer = ANILTrainer(model, _tiny_config())
        before = model.state_dict()
        adapted = trainer.adapt(one_task.support_x, one_task.support_y)
        after = adapted.state_dict()
        body_changed = [
            name
            for name in before
            if not name.startswith("head.") and not np.allclose(before[name], after[name])
        ]
        head_changed = [
            name
            for name in before
            if name.startswith("head.") and not np.allclose(before[name], after[name])
        ]
        assert not body_changed
        assert head_changed  # the head did move

    def test_outer_loop_still_updates_the_body(self, sampler):
        model = _tiny_predictor()
        trainer = ANILTrainer(model, _tiny_config())
        before = model.state_dict()
        trainer.meta_step(sampler.sample_batch(["625.x264_s", "602.gcc_s"]))
        after = model.state_dict()
        body_changed = [
            name
            for name in before
            if not name.startswith("head.") and not np.allclose(before[name], after[name])
        ]
        assert body_changed

    def test_model_without_head_is_rejected(self):
        headless = MLP(4, [8], 1, seed=0)
        with pytest.raises(ValueError):
            ANILTrainer(headless, _tiny_config())

    def test_meta_train_records_history(self, small_dataset, sampler):
        model = _tiny_predictor()
        trainer = ANILTrainer(model, _tiny_config())
        history = trainer.meta_train(
            sampler, ["625.x264_s", "602.gcc_s"], ["638.imagick_s"]
        )
        assert history.num_epochs == 1
        assert len(history.validation_losses) == 1
        assert np.isfinite(history.train_losses[0])


class TestMetaSGD:
    def test_alphas_start_at_inner_lr_and_stay_within_bounds(self, sampler):
        model = _tiny_predictor()
        config = _tiny_config(inner_lr=0.05)
        trainer = MetaSGDTrainer(model, config, alpha_bounds=(1e-4, 0.1))
        for value in trainer.alphas.values():
            np.testing.assert_allclose(value, 0.05)
        trainer.meta_step(sampler.sample_batch(["625.x264_s", "602.gcc_s"]))
        for value in trainer.alphas.values():
            assert np.all(value >= 1e-4) and np.all(value <= 0.1)

    def test_alphas_change_after_a_meta_step(self, sampler):
        model = _tiny_predictor()
        trainer = MetaSGDTrainer(model, _tiny_config(), alpha_lr=1e-2)
        before = {name: value.copy() for name, value in trainer.alphas.items()}
        trainer.meta_step(sampler.sample_batch(["625.x264_s", "602.gcc_s"]))
        changed = any(
            not np.allclose(before[name], after) for name, after in trainer.alphas.items()
        )
        assert changed

    def test_adapt_reduces_support_loss(self, one_task):
        model = _tiny_predictor()
        trainer = MetaSGDTrainer(model, _tiny_config(inner_steps=5, inner_lr=0.02))
        from repro.nn.losses import mse_loss
        from repro.nn.tensor import Tensor

        before = mse_loss(model(Tensor(one_task.support_x)), one_task.support_y).item()
        adapted = trainer.adapt(one_task.support_x, one_task.support_y)
        after = mse_loss(adapted(Tensor(one_task.support_x)), one_task.support_y).item()
        assert after < before

    def test_lr_override_scales_the_update(self, one_task):
        model = _tiny_predictor()
        trainer = MetaSGDTrainer(model, _tiny_config(inner_steps=1))
        base = trainer.adapt(one_task.support_x, one_task.support_y)
        frozen = trainer.adapt(one_task.support_x, one_task.support_y, lr=0.0)
        # lr=0 scales every per-parameter rate to zero: nothing moves.
        for name, parameter in frozen.named_parameters():
            assert np.allclose(parameter.data, dict(model.named_parameters())[name].data)
        moved = any(
            not np.allclose(p.data, dict(model.named_parameters())[name].data)
            for name, p in base.named_parameters()
        )
        assert moved

    def test_invalid_constructor_arguments(self):
        with pytest.raises(ValueError):
            MetaSGDTrainer(_tiny_predictor(), _tiny_config(), alpha_lr=0.0)
        with pytest.raises(ValueError):
            MetaSGDTrainer(_tiny_predictor(), _tiny_config(), alpha_bounds=(0.1, 0.01))


class TestFactory:
    def test_registry_lists_all_variants(self):
        assert set(META_TRAINER_VARIANTS) == {"fomaml", "reptile", "anil", "metasgd"}

    @pytest.mark.parametrize("variant", META_TRAINER_VARIANTS)
    def test_factory_builds_every_variant(self, variant):
        trainer = make_meta_trainer(variant, _tiny_predictor(), _tiny_config())
        assert isinstance(trainer, MAMLTrainer)
        if variant == "anil":
            assert isinstance(trainer, ANILTrainer)
        if variant == "metasgd":
            assert isinstance(trainer, MetaSGDTrainer)
        if variant in ("fomaml", "reptile"):
            assert trainer.config.algorithm == variant

    def test_factory_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            make_meta_trainer("protonet", _tiny_predictor())

    def test_factory_default_config(self):
        trainer = make_meta_trainer("fomaml", _tiny_predictor())
        assert trainer.config.algorithm == "fomaml"

    @pytest.mark.parametrize("variant", ["anil", "metasgd"])
    def test_variants_complete_one_meta_training_epoch(self, variant, sampler):
        model = _tiny_predictor()
        trainer = make_meta_trainer(variant, model, _tiny_config())
        history = trainer.meta_train(sampler, ["625.x264_s", "602.gcc_s"])
        assert history.num_epochs == 1
        assert np.isfinite(history.train_losses[0])
