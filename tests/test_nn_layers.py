"""Tests for repro.nn.layers and repro.nn.module."""

import numpy as np
import pytest

from repro.nn.layers import MLP, LayerNorm, Linear, ParameterEmbedding, xavier_uniform
from repro.nn.module import Module, has_task_axis
from repro.nn.precision import precision
from repro.nn.tensor import Tensor


class TestXavierUniform:
    def test_draws_within_the_glorot_bound(self):
        weights = xavier_uniform((30, 10), np.random.default_rng(0))
        limit = np.sqrt(6.0 / (30 + 10))
        assert weights.shape == (30, 10)
        assert np.abs(weights).max() <= limit
        assert np.abs(weights).max() > 0.9 * limit

    def test_float32_is_the_rounding_of_the_float64_draw(self):
        wide = xavier_uniform((8, 4), np.random.default_rng(1))
        with precision(np.float32):
            narrow = xavier_uniform((8, 4), np.random.default_rng(1))
        assert (wide.dtype, narrow.dtype) == (np.float64, np.float32)
        np.testing.assert_array_equal(narrow, wide.astype(np.float32))


class TestLinear:
    def test_output_shape(self):
        layer = Linear(4, 3, seed=0)
        assert layer(Tensor(np.zeros((5, 4)))).shape == (5, 3)

    def test_bias_is_always_a_zero_initialised_parameter(self):
        layer = Linear(4, 3, seed=0)
        assert [name for name, _ in layer.named_parameters()] == ["weight", "bias"]
        np.testing.assert_array_equal(layer.bias.data, np.zeros(3))

    def test_deterministic_initialisation(self):
        a, b = Linear(4, 3, seed=7), Linear(4, 3, seed=7)
        np.testing.assert_allclose(a.weight.data, b.weight.data)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            Linear(0, 3)

    def test_gradients_flow_to_parameters(self):
        layer = Linear(3, 2, seed=0)
        out = layer(Tensor(np.ones((4, 3)))).sum()
        out.backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None


class TestLayerNorm:
    def test_normalises_last_axis(self):
        layer = LayerNorm(8)
        rng = np.random.default_rng(0)
        out = layer(Tensor(rng.normal(3.0, 5.0, size=(6, 8))))
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-7)
        np.testing.assert_allclose(out.data.std(axis=-1), 1.0, atol=1e-2)

    def test_learned_scale_and_shift(self):
        layer = LayerNorm(4)
        layer.gamma.data[:] = 2.0
        layer.beta.data[:] = 1.0
        out = layer(Tensor(np.random.default_rng(1).normal(size=(3, 4))))
        np.testing.assert_allclose(out.data.mean(axis=-1), 1.0, atol=1e-6)

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            LayerNorm(0)


class TestMLP:
    def test_mlp_shapes(self):
        model = MLP(6, [16, 16], 1, seed=0)
        assert model(Tensor(np.zeros((5, 6)))).shape == (5, 1)

    def test_gelu_between_layers_and_none_after_the_last(self):
        model = MLP(3, [5], 2, seed=0)
        x = Tensor(np.random.default_rng(4).normal(size=(6, 3)))
        hidden = model._modules["fc0"](x).gelu()
        expected = model._modules["fc1"](hidden)
        np.testing.assert_array_equal(model(x).data, expected.data)

    def test_mlp_can_fit_linear_function(self):
        from repro.nn.losses import mse_loss
        from repro.nn.optim import Adam

        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=(128, 3))
        y = x @ np.array([1.0, -2.0, 0.5])
        model = MLP(3, [32], 1, seed=0)
        optimizer = Adam(model.parameters(), 1e-2)
        for _ in range(150):
            optimizer.zero_grad()
            loss = mse_loss(model(Tensor(x)).reshape(128), y)
            loss.backward()
            optimizer.step()
        assert loss.item() < 0.01


class TestParameterEmbedding:
    def test_token_shape(self):
        embed = ParameterEmbedding(22, 16, seed=0)
        tokens = embed(Tensor(np.random.default_rng(0).random((4, 22))))
        assert tokens.shape == (4, 22, 16)

    def test_wrong_input_shape(self):
        embed = ParameterEmbedding(5, 8, seed=0)
        with pytest.raises(ValueError):
            embed(Tensor(np.zeros((2, 7))))

    def test_positional_component_differs_per_parameter(self):
        embed = ParameterEmbedding(6, 8, seed=0)
        tokens = embed(Tensor(np.zeros((1, 6))))
        # With a zero value input, tokens equal the positional embeddings.
        assert not np.allclose(tokens.data[0, 0], tokens.data[0, 1])


class TestModuleInfrastructure:
    def test_state_dict_roundtrip(self):
        model = MLP(4, [8], 2, seed=0)
        state = model.state_dict()
        other = MLP(4, [8], 2, seed=99)
        other.load_state_dict(state)
        x = Tensor(np.random.default_rng(0).random((3, 4)))
        np.testing.assert_allclose(model(x).data, other(x).data)

    def test_state_dict_mismatch_rejected(self):
        model = MLP(4, [8], 2, seed=0)
        with pytest.raises(ValueError):
            model.load_state_dict({"bogus": np.zeros(3)})

    def test_clone_is_independent(self):
        model = Linear(3, 3, seed=0)
        duplicate = model.clone()
        duplicate.weight.data += 10.0
        assert not np.allclose(model.weight.data, duplicate.weight.data)

    def test_named_parameters_are_prefixed(self):
        model = MLP(2, [2], 1, seed=0)
        names = [name for name, _ in model.named_parameters()]
        assert any(name.startswith("fc0.") for name in names)

    def test_register_parameter_type_check(self):
        module = Module()
        with pytest.raises(TypeError):
            module.register_parameter("x", np.zeros(3))

    def test_register_module_prefixes_its_parameters(self):
        module = Module()
        child = module.register_module("head", Linear(2, 1, seed=0))
        assert child is module._modules["head"]
        assert [name for name, _ in module.named_parameters()] == ["head.weight", "head.bias"]

    def test_register_module_type_check(self):
        with pytest.raises(TypeError, match="must be a Module"):
            Module().register_module("head", object())

    def test_shape_mismatch_rejected(self):
        model = Linear(4, 3, seed=0)
        state = model.state_dict()
        state["weight"] = np.zeros((3, 4))
        with pytest.raises(ValueError, match="shape mismatch"):
            model.load_state_dict(state)

    def test_functional_call_restores_parameters_when_forward_raises(self):
        model = Linear(3, 2, seed=0)
        original = model.weight
        with pytest.raises(ValueError):
            model.functional_call({"weight": np.zeros((3, 2))}, Tensor(np.zeros((2, 5))))
        assert model.weight is original and model._parameters["weight"] is original

    def test_functional_call_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown parameters"):
            Linear(3, 2, seed=0).functional_call({"bogus": np.zeros(2)}, Tensor(np.zeros((1, 3))))


class TestTaskStacking:
    def test_has_task_axis_means_exactly_one_extra_leading_axis(self):
        parameter = Tensor(np.zeros((4, 3)))
        assert has_task_axis(np.zeros((5, 4, 3)), parameter)
        assert not has_task_axis(np.zeros((4, 3)), parameter)
        assert not has_task_axis(np.zeros((2, 5, 4, 3)), parameter)

    def test_stack_parameters_rejects_an_empty_task_axis(self):
        with pytest.raises(ValueError, match="n_tasks"):
            Linear(3, 2, seed=0).stack_parameters(0)

    def test_stacks_are_detached_leaves(self):
        model = Linear(3, 2, seed=0)
        before = model.state_dict()
        bank = model.stack_parameters(2)
        assert all(t.requires_grad and t.grad is None for t in bank.values())
        out = model.functional_call(bank, Tensor(np.ones((2, 4, 3))))
        out.sum().backward()
        assert bank["weight"].grad.shape == (2, 3, 2)
        # Gradients land on the stacks only, never on the module's own.
        assert model.weight.grad is None and model.bias.grad is None
        bank["weight"].data += 1.0
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(value, before[name])

    def test_unstack_state_recovers_one_task(self):
        model = MLP(3, [4], 1, seed=0)
        bank = model.stack_parameters(3)
        for stacked in bank.values():
            stacked.data[1] += 0.5
        state = model.unstack_state(bank, 1)
        assert set(state) == set(model.state_dict())
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(state[name], value + 0.5)
        np.testing.assert_array_equal(
            model.unstack_state(bank, 0)["fc0.weight"], model.state_dict()["fc0.weight"]
        )

    def test_unstack_state_passes_shared_entries_through(self):
        model = MLP(3, [4], 1, seed=0)
        bank = dict(model.named_parameters())
        bank.update(model.stack_parameters(2, names=["fc1.weight"]))
        bank["fc1.weight"].data[1] = 7.0
        state = model.unstack_state(bank, 1)
        np.testing.assert_array_equal(state["fc0.weight"], model.state_dict()["fc0.weight"])
        np.testing.assert_array_equal(state["fc1.weight"], np.full((4, 1), 7.0))
