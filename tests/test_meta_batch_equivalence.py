"""Batched-vs-scalar meta-training equivalence (the PR 2 contract).

The task-batched ``meta_step`` must reproduce the scalar reference
``meta_step_scalar`` exactly (≤1e-9 on every parameter after several outer
steps, for both meta-gradient flavours), and every new or extended tensor
primitive the batched engine leans on must pass gradcheck — including the
regimes PR 2 added: stacked (3-D) affine weights, 5-D attention inputs,
task-stacked masks, and broadcast arithmetic with leading task axes.
"""

import numpy as np
import pytest

from repro.datasets.tasks import TaskSampler
from repro.meta.maml import MAMLConfig, MAMLTrainer
from repro.meta.variants import ANILTrainer, MetaSGDTrainer
from repro.nn.gradcheck import check_module_gradients, check_tensor_gradient
from repro.nn.layers import LayerNorm, Linear
from repro.nn.optim import StackedSGD, stacked_sgd_step
from repro.nn.tensor import (
    Tensor,
    affine,
    scaled_dot_product_attention,
)
from repro.nn.transformer import TransformerPredictor

#: Required agreement between the batched path and the scalar reference.
TOLERANCE = 1e-9


def tiny_model(seed=0):
    return TransformerPredictor(
        22, embed_dim=16, num_heads=2, num_layers=2, head_hidden=16, seed=seed
    )


def tiny_config(**overrides):
    defaults = dict(
        inner_lr=0.05, outer_lr=5e-3, inner_steps=3, meta_epochs=1,
        tasks_per_workload=3, meta_batch_size=4, support_size=5, query_size=10,
        seed=0,
    )
    defaults.update(overrides)
    return MAMLConfig(**defaults)


@pytest.fixture(scope="module")
def sampler(small_dataset):
    return TaskSampler(small_dataset, metric="ipc", support_size=5, query_size=10, seed=0)


@pytest.fixture(scope="module")
def task_batch(sampler):
    return sampler.sample_batch(["625.x264_s", "602.gcc_s", "648.exchange2_s"],
                                tasks_per_workload=2)


def _max_param_deviation(model_a, model_b):
    state_b = model_b.state_dict()
    return max(
        float(np.abs(value - state_b[name]).max())
        for name, value in model_a.state_dict().items()
    )


class TestMetaStepEquivalence:
    @pytest.mark.parametrize("algorithm", ["fomaml", "reptile"])
    def test_meta_step_matches_scalar_reference(self, task_batch, algorithm):
        """Three outer steps through each path leave identical parameters."""
        config = tiny_config(algorithm=algorithm)
        batched_model, scalar_model = tiny_model(), tiny_model()
        batched = MAMLTrainer(batched_model, config)
        scalar = MAMLTrainer(scalar_model, config)
        for _ in range(3):
            loss_batched = batched.meta_step(task_batch)
            loss_scalar = scalar.meta_step_scalar(task_batch)
            assert abs(loss_batched - loss_scalar) <= TOLERANCE
        assert _max_param_deviation(batched_model, scalar_model) <= TOLERANCE

    def test_adapt_matches_adapt_scalar(self, task_batch):
        trainer = MAMLTrainer(tiny_model(), tiny_config())
        task = task_batch[0]
        via_batch = trainer.adapt(task.support_x, task.support_y)
        via_scalar = trainer.adapt_scalar(task.support_x, task.support_y)
        assert _max_param_deviation(via_batch, via_scalar) <= TOLERANCE

    def test_adapt_batch_slices_match_individual_adaptation(self, task_batch):
        """Every task slice of the stacked bank equals its solo adaptation."""
        trainer = MAMLTrainer(tiny_model(), tiny_config())
        support_x = np.stack([t.support_x for t in task_batch])
        support_y = np.stack([t.support_y for t in task_batch])
        bank = trainer.adapt_batch(support_x, support_y)
        for index, task in enumerate(task_batch):
            solo = dict(
                trainer.adapt_scalar(task.support_x, task.support_y).named_parameters()
            )
            for name, stacked_tensor in bank.items():
                np.testing.assert_allclose(
                    stacked_tensor.data[index], solo[name].data,
                    rtol=0, atol=TOLERANCE,
                )

    def test_ragged_batches_are_rejected(self, sampler):
        """Mixed episode sizes raise before any parameter moves."""
        wide = TaskSampler(
            sampler.dataset, metric="ipc", support_size=7, query_size=10, seed=1
        )
        mixed = [sampler.sample_task("625.x264_s"), wide.sample_task("602.gcc_s")]
        model, untouched = tiny_model(), tiny_model()
        with pytest.raises(ValueError, match="one shape"):
            MAMLTrainer(model, tiny_config()).meta_step(mixed)
        assert _max_param_deviation(model, untouched) == 0.0

    def test_meta_validate_matches_per_task_losses(self, sampler):
        """Batched validation equals the mean of per-task reference losses."""
        from repro.nn.losses import mse_loss

        trainer = MAMLTrainer(tiny_model(), tiny_config())
        probe = TaskSampler(
            sampler.dataset, metric="ipc", support_size=5, query_size=10, seed=3
        )
        batched = trainer.meta_validate(probe, ["605.mcf_s"], tasks_per_workload=3)
        probe_again = TaskSampler(
            sampler.dataset, metric="ipc", support_size=5, query_size=10, seed=3
        )
        losses = []
        for task in probe_again.sample_batch(["605.mcf_s"], tasks_per_workload=3):
            adapted = trainer.adapt_scalar(task.support_x, task.support_y)
            losses.append(
                mse_loss(adapted(Tensor(task.query_x)), task.query_y).item()
            )
        assert abs(batched - float(np.mean(losses))) <= TOLERANCE


class TestVariantEquivalence:
    def test_anil_batched_inner_loop_matches_scalar(self, task_batch):
        trainer = ANILTrainer(tiny_model(), tiny_config())
        task = task_batch[0]
        via_batch = trainer.adapt(task.support_x, task.support_y)
        via_scalar = trainer.adapt_scalar(task.support_x, task.support_y)
        assert _max_param_deviation(via_batch, via_scalar) <= TOLERANCE

    def test_metasgd_batched_meta_step_matches_scalar(self, task_batch):
        batched_model, scalar_model = tiny_model(), tiny_model()
        batched = MetaSGDTrainer(batched_model, tiny_config(), alpha_lr=1e-2)
        scalar = MetaSGDTrainer(scalar_model, tiny_config(), alpha_lr=1e-2)
        for _ in range(2):
            loss_a = batched.meta_step(task_batch)
            loss_b = scalar.meta_step_scalar(task_batch)
            assert abs(loss_a - loss_b) <= TOLERANCE
        assert _max_param_deviation(batched_model, scalar_model) <= TOLERANCE
        for name, alpha in batched.alphas.items():
            np.testing.assert_allclose(
                alpha, scalar.alphas[name], rtol=0, atol=TOLERANCE
            )


class TestNewTensorOpGradients:
    """Gradcheck coverage for the primitives PR 2 added or extended."""

    def test_affine_plain_gradients(self):
        rng = np.random.default_rng(1)
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        check_tensor_gradient(lambda t: affine(t, w, b), rng.normal(size=(5, 4)))

    def test_affine_stacked_gradients(self):
        """Task-stacked weight (T, in, out) against (T, rows, in) inputs."""
        rng = np.random.default_rng(2)
        w = Tensor(rng.normal(size=(3, 4, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        x = rng.normal(size=(3, 5, 4))
        check_tensor_gradient(lambda t: affine(t, w, b), x)

        # Parameter-side gradients against finite differences.
        def loss_for(weight_values):
            return float(
                affine(Tensor(x), Tensor(weight_values), b).sum().data
            )

        out = affine(Tensor(x), w, b)
        w.zero_grad(); b.zero_grad()
        out.sum().backward()
        from repro.nn.gradcheck import numerical_gradient

        numeric = numerical_gradient(loss_for, w.data.copy())
        np.testing.assert_allclose(w.grad, numeric, rtol=1e-4, atol=1e-6)

    def test_affine_stacked_middle_axes(self):
        """Stacked weights under (T, batch, tokens, in) attention inputs."""
        rng = np.random.default_rng(3)
        w = Tensor(rng.normal(size=(2, 4, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        x = rng.normal(size=(2, 3, 5, 4))
        check_tensor_gradient(lambda t: affine(t, w, b), x)

    def test_scaled_dot_product_attention_gradients(self):
        rng = np.random.default_rng(4)
        k = Tensor(rng.normal(size=(2, 5, 8)), requires_grad=True)
        v = Tensor(rng.normal(size=(2, 5, 8)), requires_grad=True)

        def op(q):
            out, _ = scaled_dot_product_attention(q, k, v, 2, scale=0.5)
            return out

        check_tensor_gradient(op, rng.normal(size=(2, 5, 8)))

    def test_scaled_dot_product_attention_task_batched_with_mask(self):
        """5-D inputs plus a task-stacked additive mask, mask grads included."""
        rng = np.random.default_rng(5)
        q = Tensor(rng.normal(size=(3, 2, 4, 8)), requires_grad=True)
        k = Tensor(rng.normal(size=(3, 2, 4, 8)), requires_grad=True)
        v = Tensor(rng.normal(size=(3, 2, 4, 8)), requires_grad=True)

        def op(mask):
            aligned = mask.reshape(3, 1, 1, 4, 4)
            out, _ = scaled_dot_product_attention(
                q, k, v, 2, scale=0.5, mask=aligned
            )
            return out

        check_tensor_gradient(op, rng.normal(size=(3, 4, 4)))

    def test_layer_norm_gradients(self):
        rng = np.random.default_rng(6)
        gamma = Tensor(rng.normal(size=5), requires_grad=True)
        beta = Tensor(rng.normal(size=5), requires_grad=True)
        check_tensor_gradient(
            lambda t: t.layer_norm(gamma, beta), rng.normal(size=(4, 5))
        )

    def test_layer_norm_stacked_parameters(self):
        """Stacked gamma/beta (T, 1, d) over (T, rows, d) inputs."""
        rng = np.random.default_rng(7)
        gamma = Tensor(rng.normal(size=(3, 1, 5)), requires_grad=True)
        beta = Tensor(rng.normal(size=(3, 1, 5)), requires_grad=True)
        x = rng.normal(size=(3, 4, 5))
        check_tensor_gradient(lambda t: t.layer_norm(gamma, beta), x)

        def loss_for(gamma_values):
            return float(
                Tensor(x).layer_norm(Tensor(gamma_values), beta).sum().data
            )

        gamma.zero_grad()
        Tensor(x).layer_norm(gamma, beta).sum().backward()
        from repro.nn.gradcheck import numerical_gradient

        numeric = numerical_gradient(loss_for, gamma.data.copy())
        np.testing.assert_allclose(gamma.grad, numeric, rtol=1e-4, atol=1e-6)

    def test_gelu_and_square_fast_paths(self):
        rng = np.random.default_rng(8)
        check_tensor_gradient(lambda t: t.gelu(), rng.normal(size=(3, 7)))
        check_tensor_gradient(lambda t: t ** 2, rng.normal(size=(3, 7)))

    def test_broadcast_arithmetic_with_leading_task_axes(self):
        """mul/add with (T, 1, ...) operands — the stacked-embedding pattern."""
        rng = np.random.default_rng(9)
        scale = Tensor(rng.normal(size=(3, 1, 4, 2)), requires_grad=True)
        x = rng.normal(size=(3, 5, 4, 1))
        check_tensor_gradient(lambda t: t * scale + scale, x)

    def test_batched_functional_module_gradients(self):
        """check_module_gradients over the full predictor (fused op stack)."""
        model = TransformerPredictor(
            6, embed_dim=8, num_heads=2, num_layers=1, head_hidden=8, seed=0
        )
        check_module_gradients(model, np.random.default_rng(10).random((3, 6)))


class TestStackedLayersAgainstPlain:
    """Stacked-parameter forwards reproduce per-slice plain forwards."""

    def test_linear_stacked_slices(self):
        rng = np.random.default_rng(0)
        layer = Linear(4, 3, seed=0)
        stacked = {
            "weight": Tensor(np.stack([layer.weight.data, layer.weight.data * 2.0])),
            "bias": Tensor(np.stack([layer.bias.data, layer.bias.data + 1.0])),
        }
        x = rng.normal(size=(2, 5, 4))
        out = layer.functional_call(stacked, Tensor(x))
        np.testing.assert_allclose(out.data[0], (x[0] @ layer.weight.data) + layer.bias.data)
        np.testing.assert_allclose(
            out.data[1], (x[1] @ (layer.weight.data * 2.0)) + layer.bias.data + 1.0
        )

    def test_layer_norm_stacked_slices(self):
        rng = np.random.default_rng(1)
        layer = LayerNorm(6)
        gamma = rng.normal(size=(3, 6))
        beta = rng.normal(size=(3, 6))
        x = rng.normal(size=(3, 4, 6))
        out = layer.functional_call(
            {"gamma": Tensor(gamma), "beta": Tensor(beta)}, Tensor(x)
        )
        for t in range(3):
            plain = LayerNorm(6)
            plain.gamma.data = gamma[t].copy()
            plain.beta.data = beta[t].copy()
            np.testing.assert_allclose(
                out.data[t], plain(Tensor(x[t])).data, rtol=0, atol=1e-12
            )

    def test_predictor_stacked_slices_match_clones(self):
        model = tiny_model()
        rng = np.random.default_rng(2)
        x = rng.random((4, 22))
        bank = model.stack_parameters(3)
        bank["head.fc0.weight"].data[1] += rng.normal(0, 0.1, size=(16, 16))
        out = model.functional_call(bank, Tensor(np.stack([x] * 3)))
        for t in range(3):
            clone = model.clone()
            clone.load_state_dict(
                {name: tensor.data[t] for name, tensor in bank.items()}
            )
            np.testing.assert_allclose(out.data[t], clone.predict(x), rtol=0, atol=1e-12)


class TestAdaptManyEquivalence:
    def test_adapt_many_matches_sequential_adapt(self, small_dataset, small_split):
        """Multi-target stacked adaptation == per-target Algorithm 2 runs."""
        from repro.core.config import default_config
        from repro.core.metadse import MetaDSE
        from repro.datasets.tasks import holdout_task

        config = default_config(seed=0)
        config.maml = tiny_config(meta_epochs=1, tasks_per_workload=2)
        model = MetaDSE(22, config=config)
        model.pretrain(small_dataset, small_split, metric="ipc")

        tasks = [
            holdout_task(small_dataset[w], metric="ipc", support_size=8,
                         query_size=20, seed=11)
            for w in small_split.test
        ]
        results = model.adapt_many(
            [(t.support_x, t.support_y) for t in tasks]
        )
        assert len(results) == len(tasks)
        # The facade state points at the last target, in physical units.
        many_last = model.predict(tasks[-1].query_x)

        for task, result in zip(tasks, results):
            model.adapt(task.support_x, task.support_y)
            sequential = model.predict(task.query_x)
            model.adapted = result.predictor
            np.testing.assert_allclose(
                model.predict(task.query_x), sequential, rtol=0, atol=1e-9
            )
        np.testing.assert_allclose(
            many_last,
            model.predict(tasks[-1].query_x),
            rtol=0, atol=1e-9,
        )


class TestStackedSGD:
    def test_step_matches_manual_update(self):
        rng = np.random.default_rng(0)
        p = Tensor(rng.normal(size=(3, 2, 2)), requires_grad=True)
        p.grad = rng.normal(size=(3, 2, 2))
        frozen = Tensor(np.zeros((4,)))
        updated = stacked_sgd_step({"p": p, "frozen": frozen}, 0.1)
        np.testing.assert_allclose(updated["p"].data, p.data - 0.1 * p.grad)
        assert updated["frozen"] is frozen
        assert updated["p"].requires_grad and updated["p"].grad is None

    def test_lr_scales(self):
        p = Tensor(np.ones((2, 2)), requires_grad=True)
        optimizer = StackedSGD(0.1, lr_scales={"p": 2.0})
        p.grad = np.ones((2, 2))
        step1 = optimizer.step({"p": p})
        np.testing.assert_allclose(step1["p"].data, 1.0 - 0.2)

    def test_invalid_learning_rate(self):
        p = Tensor(np.ones(2), requires_grad=True)
        p.grad = np.ones(2)
        with pytest.raises(ValueError):
            stacked_sgd_step({"p": p}, 0.0)
