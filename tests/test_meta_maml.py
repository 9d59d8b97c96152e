"""Tests for the MAML pre-training stage (Algorithm 1)."""

import numpy as np
import pytest

from repro.datasets.tasks import TaskSampler
from repro.meta.maml import PAPER_MAML_CONFIG, MAMLConfig, MAMLTrainer
from repro.nn.transformer import TransformerPredictor


def tiny_model(num_parameters=22):
    return TransformerPredictor(
        num_parameters, embed_dim=8, num_heads=2, num_layers=1, head_hidden=8, seed=0
    )


def tiny_config(**overrides):
    defaults = dict(
        inner_lr=0.05, outer_lr=5e-3, inner_steps=2, meta_epochs=1,
        tasks_per_workload=3, meta_batch_size=2, support_size=5, query_size=10,
        seed=0,
    )
    defaults.update(overrides)
    return MAMLConfig(**defaults)


class TestMAMLConfig:
    def test_paper_config_matches_section_vi(self):
        assert PAPER_MAML_CONFIG.inner_lr == pytest.approx(1e-5)
        assert PAPER_MAML_CONFIG.outer_lr == pytest.approx(1e-4)
        assert PAPER_MAML_CONFIG.inner_steps == 5
        assert PAPER_MAML_CONFIG.meta_epochs == 15
        assert PAPER_MAML_CONFIG.tasks_per_workload == 200
        assert PAPER_MAML_CONFIG.support_size == 5
        assert PAPER_MAML_CONFIG.query_size == 45

    def test_invalid_algorithm(self):
        with pytest.raises(ValueError):
            MAMLConfig(algorithm="full-hessian")

    def test_invalid_rates(self):
        with pytest.raises(ValueError):
            MAMLConfig(inner_lr=0.0)


class TestInnerLoop:
    def test_adapt_returns_new_model(self, small_dataset):
        trainer = MAMLTrainer(tiny_model(), tiny_config())
        sampler = TaskSampler(small_dataset, support_size=5, query_size=10, seed=0)
        task = sampler.sample_task("625.x264_s")
        adapted = trainer.adapt(task.support_x, task.support_y)
        assert adapted is not trainer.model

    def test_adapt_does_not_touch_original(self, small_dataset):
        trainer = MAMLTrainer(tiny_model(), tiny_config())
        sampler = TaskSampler(small_dataset, support_size=5, query_size=10, seed=0)
        task = sampler.sample_task("625.x264_s")
        before = trainer.model.state_dict()
        trainer.adapt(task.support_x, task.support_y)
        after = trainer.model.state_dict()
        for name in before:
            np.testing.assert_allclose(before[name], after[name])

    def test_adapt_reduces_support_loss(self, small_dataset):
        from repro.metrics.regression import rmse

        trainer = MAMLTrainer(tiny_model(), tiny_config(inner_steps=10, inner_lr=0.05))
        sampler = TaskSampler(small_dataset, support_size=20, query_size=10, seed=0)
        task = sampler.sample_task("648.exchange2_s")
        before = rmse(task.support_y, trainer.model.predict(task.support_x))
        adapted = trainer.adapt(task.support_x, task.support_y)
        after = rmse(task.support_y, adapted.predict(task.support_x))
        assert after < before


class TestOuterLoop:
    def test_meta_step_changes_parameters(self, small_dataset):
        trainer = MAMLTrainer(tiny_model(), tiny_config())
        sampler = TaskSampler(small_dataset, support_size=5, query_size=10, seed=0)
        before = trainer.model.state_dict()
        tasks = sampler.sample_batch(["625.x264_s", "602.gcc_s"], tasks_per_workload=1)
        loss = trainer.meta_step(tasks)
        assert loss > 0
        after = trainer.model.state_dict()
        changed = any(
            not np.allclose(before[name], after[name]) for name in before
        )
        assert changed

    def test_meta_step_requires_tasks(self, small_dataset):
        trainer = MAMLTrainer(tiny_model(), tiny_config())
        with pytest.raises(ValueError):
            trainer.meta_step([])

    def test_reptile_variant_runs(self, small_dataset):
        trainer = MAMLTrainer(tiny_model(), tiny_config(algorithm="reptile"))
        sampler = TaskSampler(small_dataset, support_size=5, query_size=10, seed=0)
        tasks = sampler.sample_batch(["625.x264_s"], tasks_per_workload=2)
        assert trainer.meta_step(tasks) > 0


class TestMetaTrain:
    def test_history_and_validation_tracking(self, small_dataset, small_split):
        trainer = MAMLTrainer(tiny_model(), tiny_config(meta_epochs=2))
        sampler = TaskSampler(small_dataset, support_size=5, query_size=10, seed=0)
        history = trainer.meta_train(
            sampler, list(small_split.train), list(small_split.validation)
        )
        assert history.num_epochs == 2
        assert len(history.validation_losses) == 2
        assert history.best_epoch in (0, 1)
        assert history.total_tasks == 2 * 3 * len(small_split.train)

    def test_training_reduces_meta_loss(self, small_dataset, small_split):
        trainer = MAMLTrainer(
            tiny_model(), tiny_config(meta_epochs=5, tasks_per_workload=10, outer_lr=5e-3)
        )
        sampler = TaskSampler(small_dataset, support_size=5, query_size=10, seed=0)
        history = trainer.meta_train(sampler, list(small_split.train))
        # Per-epoch losses are noisy at this miniature scale, so compare the
        # best later epoch against the starting point.
        assert min(history.train_losses[1:]) < history.train_losses[0]

    def test_requires_train_workloads(self, small_dataset):
        trainer = MAMLTrainer(tiny_model(), tiny_config())
        sampler = TaskSampler(small_dataset, seed=0)
        with pytest.raises(ValueError):
            trainer.meta_train(sampler, [])

    def test_meta_validate_requires_workloads(self, small_dataset):
        trainer = MAMLTrainer(tiny_model(), tiny_config())
        sampler = TaskSampler(small_dataset, seed=0)
        with pytest.raises(ValueError):
            trainer.meta_validate(sampler, [])
