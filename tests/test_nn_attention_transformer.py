"""Tests for the attention operator and the transformer predictor."""

import numpy as np
import pytest

from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.losses import mse_loss
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.nn.transformer import TransformerEncoderLayer, TransformerPredictor


class TestMultiHeadSelfAttention:
    def test_output_shape(self):
        attention = MultiHeadSelfAttention(16, 4, seed=0)
        out = attention(Tensor(np.random.default_rng(0).normal(size=(2, 6, 16))))
        assert out.shape == (2, 6, 16)

    def test_head_divisibility_enforced(self):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(10, 3)

    def test_attention_weights_recorded(self):
        attention = MultiHeadSelfAttention(8, 2, seed=0)
        attention(Tensor(np.random.default_rng(1).normal(size=(3, 5, 8))))
        assert attention.last_attention.shape == (3, 2, 5, 5)
        np.testing.assert_allclose(attention.last_attention.sum(axis=-1), 1.0)

    def test_wrong_input_shape(self):
        attention = MultiHeadSelfAttention(8, 2, seed=0)
        with pytest.raises(ValueError):
            attention(Tensor(np.zeros((2, 5, 4))))

    def test_mask_changes_attention(self):
        attention = MultiHeadSelfAttention(8, 2, seed=0)
        x = Tensor(np.random.default_rng(2).normal(size=(1, 4, 8)))
        attention(x)
        unmasked = attention.last_attention.copy()
        mask = np.full((4, 4), -5.0)
        np.fill_diagonal(mask, 0.0)
        attention.install_mask(mask)
        attention(x)
        masked = attention.last_attention
        assert not np.allclose(unmasked, masked)
        # With strong off-diagonal suppression, attention concentrates on self.
        assert np.mean(np.diagonal(masked, axis1=-2, axis2=-1)) > np.mean(
            np.diagonal(unmasked, axis1=-2, axis2=-1)
        )

    def test_learnable_mask_is_a_parameter(self):
        attention = MultiHeadSelfAttention(8, 2, seed=0)
        attention.install_mask(np.zeros((4, 4)))
        assert any(name == "mask" for name, _ in attention.named_parameters())
        assert attention.mask.requires_grad

    def test_mask_is_cast_to_the_layer_dtype(self):
        attention = MultiHeadSelfAttention(8, 2, seed=0).to_dtype("float32")
        attention.install_mask(np.zeros((4, 4), dtype=np.float64))
        assert attention.mask.data.dtype == np.float32

    def test_invalid_mask_shape(self):
        attention = MultiHeadSelfAttention(8, 2, seed=0)
        with pytest.raises(ValueError):
            attention.install_mask(np.zeros((3, 4)))


class TestTransformerPredictor:
    def test_output_shape(self):
        model = TransformerPredictor(10, embed_dim=16, num_heads=2, num_layers=1, seed=0)
        out = model(Tensor(np.random.default_rng(0).random((8, 10))))
        assert out.shape == (8,)

    def test_predict_is_numpy_interface(self):
        model = TransformerPredictor(6, embed_dim=8, num_heads=2, num_layers=1, seed=0)
        predictions = model.predict(np.random.default_rng(1).random((4, 6)))
        assert isinstance(predictions, np.ndarray)
        assert predictions.shape == (4,)

    @pytest.mark.parametrize("mask", (False, True), ids=("no-mask", "mask"))
    @pytest.mark.parametrize("dtype", ("float32", "float64"))
    def test_predict_is_the_forward_without_a_graph(self, dtype, mask, monkeypatch):
        """``predict`` returns the forward's bits and makes no graph node."""
        model = TransformerPredictor(
            6, embed_dim=8, num_heads=2, num_layers=2, seed=0
        ).to_dtype(dtype)
        if mask:
            model.install_mask(np.random.default_rng(3).normal(size=(6, 6)))
        x = np.random.default_rng(4).random((70, 6))
        expected = model(Tensor(x.astype(dtype))).data
        recorded = model.last_attention_layer.last_attention

        def no_graph(cls, *args):
            raise AssertionError("predict made a graph node")

        monkeypatch.setattr(Tensor, "_make", classmethod(no_graph))
        predicted = model.predict(x)
        assert predicted.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(predicted, expected)
        # Nothing is recorded on the module either.
        assert model.last_attention_layer.last_attention is recorded

    def test_predict_rejects_a_task_axis(self):
        model = TransformerPredictor(6, embed_dim=8, num_heads=2, num_layers=1, seed=0)
        with pytest.raises(ValueError, match="expected"):
            model.predict(np.zeros((2, 3, 6)))

    def test_invalid_layer_count(self):
        with pytest.raises(ValueError):
            TransformerPredictor(6, num_layers=0)

    def test_last_attention_accessible(self):
        model = TransformerPredictor(6, embed_dim=8, num_heads=2, num_layers=2, seed=0)
        model(Tensor(np.random.default_rng(2).random((5, 6))))
        weights = model.last_attention_layer.last_attention.mean(axis=(0, 1))
        assert weights.shape == (6, 6)
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0)

    def test_install_mask(self):
        model = TransformerPredictor(6, embed_dim=8, num_heads=2, num_layers=2, seed=0)
        model.install_mask(np.zeros((6, 6)))
        assert model.last_attention_layer.mask is not None
        assert model._modules["encoder0"].attention.mask is None
        assert "encoder1.attention.mask" in dict(model.named_parameters())

    def test_can_overfit_small_dataset(self):
        rng = np.random.default_rng(0)
        x = rng.random((24, 6))
        y = np.sin(x.sum(axis=1) * 2.0)
        model = TransformerPredictor(6, embed_dim=16, num_heads=2, num_layers=1, seed=0)
        optimizer = Adam(model.parameters(), 3e-3)
        first_loss = None
        for step in range(150):
            optimizer.zero_grad()
            loss = mse_loss(model(Tensor(x)), y)
            loss.backward()
            optimizer.step()
            if first_loss is None:
                first_loss = loss.item()
        assert loss.item() < 0.2 * first_loss

    def test_deterministic_given_seed(self):
        x = np.random.default_rng(5).random((3, 6))
        a = TransformerPredictor(6, embed_dim=8, num_heads=2, seed=3).predict(x)
        b = TransformerPredictor(6, embed_dim=8, num_heads=2, seed=3).predict(x)
        np.testing.assert_allclose(a, b)


class TestEncoderLayer:
    def test_forward_is_two_pre_norm_residual_blocks(self):
        layer = TransformerEncoderLayer(8, 2, seed=0)
        x = Tensor(np.random.default_rng(3).normal(size=(2, 4, 8)))
        mid = x + layer.attention(layer.attention_norm(x))
        expected = mid + layer.feedforward(layer.feedforward_norm(mid))
        np.testing.assert_array_equal(layer(x).data, expected.data)

    def test_residual_path_preserves_shape(self):
        layer = TransformerEncoderLayer(16, 4, seed=0)
        x = Tensor(np.random.default_rng(0).normal(size=(2, 5, 16)))
        assert layer(x).shape == (2, 5, 16)

    def test_gradients_reach_all_parameters(self):
        layer = TransformerEncoderLayer(8, 2, seed=0)
        out = layer(Tensor(np.random.default_rng(1).normal(size=(2, 4, 8)))).sum()
        out.backward()
        missing = [name for name, p in layer.named_parameters()
                   if p.grad is None and not name.endswith("key.bias")]
        assert not missing
