"""Numerical gradient checks for the autograd engine and every layer."""

import numpy as np
import pytest

from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.gradcheck import (
    check_module_gradients,
    check_tensor_gradient,
    numerical_gradient,
)
from repro.nn.layers import MLP, LayerNorm, Linear, ParameterEmbedding
from repro.nn.tensor import Tensor
from repro.nn.transformer import TransformerPredictor


class TestNumericalGradient:
    def test_quadratic(self):
        point = np.array([1.0, -2.0, 0.5])
        gradient = numerical_gradient(lambda x: float((x ** 2).sum()), point)
        assert np.allclose(gradient, 2 * point, atol=1e-5)

    def test_matrix_argument(self):
        point = np.arange(6, dtype=float).reshape(2, 3)
        gradient = numerical_gradient(lambda x: float(x.sum() ** 2), point)
        assert np.allclose(gradient, 2 * point.sum(), atol=1e-4)


class TestTensorOperations:
    """Autograd gradients of the elementary ops match finite differences."""

    @pytest.mark.parametrize(
        "operation",
        [
            lambda x: x * 3.0 + 1.0,
            lambda x: x * x,
            lambda x: (x + 2.0) / (x * x + 1.0),
            lambda x: x.gelu(),
            lambda x: (x ** 3),
            lambda x: x ** 2,
            lambda x: -(x - x * x),
            lambda x: 1.0 - 2.0 / (x * x + 1.0),
            lambda x: x.mean(axis=0),
            lambda x: x.reshape(6, 2),
            lambda x: x.swapaxes(1, 0),
            lambda x: x[1:, :2],
        ],
        ids=[
            "affine", "square", "rational", "gelu", "pow3", "pow2",
            "neg_sub", "rsub_rdiv", "mean", "reshape", "swapaxes", "slice",
        ],
    )
    def test_elementwise_and_shape_ops(self, operation):
        rng = np.random.default_rng(0)
        inputs = rng.normal(size=(3, 4)) * 0.8 + 0.1
        check_tensor_gradient(operation, inputs)

    def test_matmul(self):
        rng = np.random.default_rng(1)
        weight = rng.normal(size=(4, 3))
        check_tensor_gradient(lambda x: x @ weight, rng.normal(size=(5, 4)))

    def test_unused_parameter_is_detected(self):
        """check_module_gradients flags parameters that never receive a gradient."""
        from repro.nn.module import Module

        class Detached(Module):
            def __init__(self):
                super().__init__()
                self.used = Linear(3, 1, seed=0)
                self.unused = Linear(3, 1, seed=1)

            def forward(self, inputs):
                return self.used(inputs)

        with pytest.raises(AssertionError):
            check_module_gradients(Detached(), np.ones((2, 3)))


class TestModuleGradients:
    def test_linear(self):
        module = Linear(4, 3, seed=0)
        errors = check_module_gradients(module, np.random.default_rng(0).normal(size=(5, 4)))
        assert set(errors) == {"weight", "bias"}

    def test_layernorm(self):
        module = LayerNorm(6)
        check_module_gradients(module, np.random.default_rng(1).normal(size=(4, 6)))

    def test_mlp(self):
        module = MLP(5, [8], 1, seed=0)
        check_module_gradients(module, np.random.default_rng(2).normal(size=(6, 5)))

    def test_parameter_embedding(self):
        module = ParameterEmbedding(7, 8, seed=0)
        check_module_gradients(module, np.random.default_rng(3).normal(size=(3, 7)))

    def test_multi_head_attention(self):
        module = MultiHeadSelfAttention(8, 2, seed=0)
        inputs = np.random.default_rng(4).normal(size=(2, 5, 8))
        check_module_gradients(module, inputs, rtol=5e-3, atol=1e-5)

    def test_transformer_predictor_end_to_end(self):
        module = TransformerPredictor(
            6, embed_dim=8, num_heads=2, num_layers=1, head_hidden=8, seed=0
        )
        inputs = np.random.default_rng(5).normal(size=(3, 6))
        errors = check_module_gradients(
            module, inputs, rtol=5e-3, atol=1e-5, max_entries_per_parameter=4
        )
        # Every registered parameter participated in the check.
        assert set(errors) == {name for name, _ in module.named_parameters()}
