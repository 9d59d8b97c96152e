"""Tests for the autograd engine (repro.nn.tensor)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn.tensor import Tensor, attention_forward, scaled_dot_product_attention


def numeric_gradient(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar-valued function."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = fn(x)
        flat[i] = original - eps
        minus = fn(x)
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


def check_gradient(op, shape=(3, 4), seed=0, atol=1e-5):
    """Compare autograd gradients of ``op(Tensor).sum()`` with finite differences."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.2, 1.5, size=shape)

    def scalar_fn(values):
        return op(Tensor(values)).sum().item()

    leaf = Tensor(x.copy(), requires_grad=True)
    out = op(leaf).sum()
    out.backward()
    numeric = numeric_gradient(scalar_fn, x.copy())
    np.testing.assert_allclose(leaf.grad, numeric, atol=atol, rtol=1e-4)


class TestBasicOps:
    def test_add_and_shapes(self):
        a, b = Tensor([1.0, 2.0]), Tensor([3.0, 4.0])
        np.testing.assert_allclose((a + b).data, [4.0, 6.0])

    def test_scalar_ops(self):
        a = Tensor([2.0])
        assert (a * 3).item() == 6.0
        assert (1 + a).item() == 3.0
        assert (a - 1).item() == 1.0
        assert (4 / a).item() == 2.0
        assert (1 - a).item() == -1.0

    def test_item(self):
        assert Tensor([[5.0]]).item() == 5.0

    def test_shape_ndim_size(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert (t.shape, t.ndim, t.size, len(t)) == ((2, 3, 4), 3, 24, 2)

    def test_swapaxes_matches_numpy(self):
        data = np.arange(24.0).reshape(2, 3, 4)
        out = Tensor(data).swapaxes(0, 2)
        np.testing.assert_array_equal(out.data, data.swapaxes(0, 2))


class TestGradients:
    @pytest.mark.parametrize("op", [
        lambda t: t * t,
        lambda t: t + t * 2.0,
        lambda t: t / (t + 1.0),
        lambda t: t ** 3,
        lambda t: t.gelu(),
        lambda t: t.mean(axis=0),
        lambda t: t.reshape(12),
        lambda t: t.swapaxes(1, 0),
        lambda t: t[1:, :2],
        lambda t: -t,
        lambda t: t - t * t,
        lambda t: 2.0 - 1.0 / (t + 1.0),
        lambda t: t ** 2,
        lambda t: t.sum(axis=1, keepdims=True),
    ], ids=lambda f: "op")
    def test_elementwise_and_shape_ops(self, op):
        check_gradient(op)

    def test_matmul_gradient(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(4, 2))
        check_gradient(lambda t: t @ Tensor(w))

    def test_batched_matmul_gradient(self):
        rng = np.random.default_rng(1)
        other = rng.normal(size=(2, 4, 3))

        def op(t):
            return t @ Tensor(other)

        check_gradient(op, shape=(2, 3, 4), seed=2)

    def test_broadcast_add_gradient(self):
        bias = np.array([0.5, -0.5, 1.0, 2.0])
        check_gradient(lambda t: t + Tensor(bias))

    def test_broadcast_mul_accumulates_on_small_operand(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(b.grad, np.full(4, 3.0))

    def test_gradient_accumulates_over_reuse(self):
        a = Tensor([2.0], requires_grad=True)
        out = a * a + a
        out.backward()
        np.testing.assert_allclose(a.grad, [5.0])  # d(a^2 + a)/da = 2a + 1

    def test_backward_requires_a_scalar_output(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            (a * 2).backward()

    def test_zero_grad(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 3).backward()
        a.zero_grad()
        assert a.grad is None

    def test_pow_requires_scalar_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])


class TestNumericalStability:
    """The attention softmax (fused into ``attention_forward``) is stable."""

    @staticmethod
    def _probabilities(logits: np.ndarray) -> np.ndarray:
        # With k = v = identity and scale 1, the one head's logits are the
        # rows of *logits*, so the probabilities are their row softmax (and
        # so is the context, which is probabilities @ identity).
        rows = np.atleast_2d(logits)
        identity = np.eye(rows.shape[-1])
        context, probabilities = attention_forward(rows, identity, identity, 1, 1.0)
        np.testing.assert_array_equal(context, probabilities[0])
        return probabilities[0]

    def test_softmax_handles_large_logits(self):
        out = self._probabilities(np.array([1000.0, 1000.0, -1000.0]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [[0.5, 0.5, 0.0]])

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        out = self._probabilities(rng.normal(size=(5, 7)))
        np.testing.assert_allclose(out.sum(axis=-1), 1.0)

    @settings(max_examples=40, deadline=None)
    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(1, 5), st.integers(1, 6)),
            elements=st.floats(-50, 50, allow_nan=False),
        )
    )
    def test_softmax_property(self, values):
        out = self._probabilities(values)
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=1e-9)
        expected = np.exp(values - values.max(axis=-1, keepdims=True))
        expected /= expected.sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-300)

    def test_masked_positions_get_no_weight(self):
        rng = np.random.default_rng(4)
        q, k, v = (rng.normal(size=(4, 6)) for _ in range(3))
        mask = np.zeros((4, 4))
        mask[:, 2] = -1e9
        out, probabilities = scaled_dot_product_attention(
            Tensor(q), Tensor(k), Tensor(v), 2, scale=0.5, mask=Tensor(mask)
        )
        assert probabilities.shape == (2, 4, 4)
        np.testing.assert_allclose(probabilities[..., 2], 0.0, atol=1e-300)
        np.testing.assert_allclose(probabilities.sum(axis=-1), 1.0)
        assert np.all(np.isfinite(out.data))
