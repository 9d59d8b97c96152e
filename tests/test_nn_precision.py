"""Dtype policy and float32 fast-path edge cases.

Covers the numerics contract of ``docs/numerics.md``: policy scoping and
restoration, allocation rules, mixed-width promotion, optimizer state,
checkpoint dtype round-trips, and the float64-only gradcheck guard.
"""

import numpy as np
import pytest

from repro.nn.gradcheck import check_module_gradients, check_tensor_gradient
from repro.nn.layers import MLP, LayerNorm, Linear
from repro.nn.losses import mse_loss
from repro.nn.optim import SGD, Adam, StackedSGD
from repro.nn.precision import (
    default_dtype,
    precision,
    resolve_dtype,
    set_default_dtype,
)
from repro.nn.serialization import load_state, save_model
from repro.nn.tensor import Tensor
from repro.nn.transformer import TransformerPredictor


class TestPolicy:
    def test_default_policy_is_float64(self):
        assert default_dtype() == np.float64

    def test_context_manager_sets_and_restores(self):
        with precision("float32"):
            assert default_dtype() == np.float32
        assert default_dtype() == np.float64

    def test_context_manager_nests(self):
        with precision("float32"):
            with precision("float64"):
                assert default_dtype() == np.float64
            assert default_dtype() == np.float32
        assert default_dtype() == np.float64

    def test_context_manager_restores_on_exception(self):
        with pytest.raises(RuntimeError, match="boom"):
            with precision("float32"):
                raise RuntimeError("boom")
        assert default_dtype() == np.float64

    def test_set_default_dtype_returns_previous(self):
        previous = set_default_dtype("float32")
        try:
            assert previous == np.float64
            assert default_dtype() == np.float32
        finally:
            set_default_dtype(previous)

    def test_unsupported_dtypes_rejected(self):
        for bad in ("float16", np.int64, "bfloat16", object):
            with pytest.raises(ValueError, match="unsupported precision"):
                resolve_dtype(bad)

    def test_resolve_none_is_current_policy(self):
        with precision("float32"):
            assert resolve_dtype(None) == np.float32


class TestTensorAllocation:
    def test_lists_and_scalars_follow_policy(self):
        with precision("float32"):
            assert Tensor([1.0, 2.0]).dtype == np.float32
            assert Tensor(3).dtype == np.float32

    def test_explicit_float_arrays_keep_their_dtype(self):
        with precision("float32"):
            assert Tensor(np.zeros(3, dtype=np.float64)).dtype == np.float64
        assert Tensor(np.zeros(3, dtype=np.float32)).dtype == np.float32

    def test_integer_arrays_are_cast_to_policy(self):
        with precision("float32"):
            assert Tensor(np.arange(4)).dtype == np.float32
        assert Tensor(np.arange(4)).dtype == np.float64

    def test_dtype_kwarg_wins_over_policy(self):
        with precision("float32"):
            assert Tensor([1.0], dtype=np.float64).dtype == np.float64


class TestGraphDtype:
    def test_scalar_constants_do_not_widen_float32(self):
        x = Tensor(np.ones(4, dtype=np.float32))
        assert (x * 0.5).dtype == np.float32
        assert (x + 1).dtype == np.float32
        assert (1.0 - x).dtype == np.float32
        assert (x / 3.0).dtype == np.float32
        assert (2.0 / x).dtype == np.float32
        assert (x ** 2).dtype == np.float32
        assert x.mean().dtype == np.float32

    def test_mixed_width_tensors_promote(self):
        x32 = Tensor(np.ones(4, dtype=np.float32))
        x64 = Tensor(np.ones(4, dtype=np.float64))
        assert (x32 * x64).dtype == np.float64

    def test_float32_graph_accumulates_float32_grads(self):
        x = Tensor(np.ones((3, 3), dtype=np.float32), requires_grad=True)
        ((x * x).sum()).backward()
        assert x.grad.dtype == np.float32

    def test_mixed_graph_hands_leaf_its_own_dtype(self):
        # float32 parameter, float64 input: compute promotes to float64 but
        # the parameter's accumulated gradient stays float32.
        w = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        x = Tensor(np.ones((4, 2), dtype=np.float64))
        out = x @ w
        assert out.dtype == np.float64
        out.sum().backward()
        assert w.grad.dtype == np.float32

    def test_fused_kernels_stay_float32(self):
        model = TransformerPredictor(6, embed_dim=8, num_heads=2, num_layers=1,
                                     head_hidden=8, seed=0).to_dtype("float32")
        out = model(np.random.default_rng(0).random((5, 6)))
        assert out.dtype == np.float32


class TestModuleConversion:
    def _model(self):
        return TransformerPredictor(6, embed_dim=8, num_heads=2, num_layers=1,
                                    head_hidden=8, seed=0)

    def test_to_dtype_converts_every_parameter(self):
        model = self._model().to_dtype("float32")
        assert model.dtype == np.float32
        for name, parameter in model.named_parameters():
            assert parameter.data.dtype == np.float32, name

    def test_to_dtype_preserves_parameter_identity(self):
        layer = Linear(3, 2, seed=0)
        weight = layer.weight
        layer.to_dtype("float32")
        assert layer.weight is weight
        assert layer._parameters["weight"] is weight

    def test_to_dtype_converts_an_installed_mask(self):
        model = self._model()
        model.install_mask(np.zeros((6, 6)))
        model.to_dtype("float32")
        assert model.last_attention_layer.mask.data.dtype == np.float32

    def test_float32_init_under_policy_matches_cast(self):
        with precision("float32"):
            direct = self._model()
        cast = self._model().to_dtype("float32")
        for (name, a), (_, b) in zip(direct.named_parameters(), cast.named_parameters()):
            assert a.data.dtype == np.float32
            np.testing.assert_array_equal(a.data, b.data, err_msg=name)

    def test_raw_array_input_is_cast_to_model_dtype(self):
        model = self._model().to_dtype("float32")
        out = model(np.random.default_rng(0).random((4, 6)))  # float64 ndarray
        assert out.dtype == np.float32

    def test_explicit_float64_tensor_input_promotes(self):
        model = self._model().to_dtype("float32")
        x = Tensor(np.random.default_rng(0).random((4, 6)))
        out = model(x)
        assert out.dtype == np.float64

    def test_layer_norm_under_float32_policy(self):
        with precision("float32"):
            norm = LayerNorm(8)
        out = norm(Tensor(np.ones((2, 8), dtype=np.float32)))
        assert out.dtype == np.float32


class TestOptimizerState:
    def _adapt(self, optimizer_cls):
        model = MLP(4, [8], 1, seed=0).to_dtype("float32")
        optimizer = optimizer_cls(model.parameters(), 0.05)
        x = np.random.default_rng(0).random((6, 4), dtype=np.float32)
        y = np.zeros(6, dtype=np.float32)
        for _ in range(3):
            optimizer.zero_grad()
            loss = mse_loss(model(Tensor(x)).reshape(6), y)
            loss.backward()
            optimizer.step()
        return model, optimizer

    def test_sgd_parameters_stay_float32(self):
        model, _ = self._adapt(SGD)
        assert all(p.data.dtype == np.float32 for p in model.parameters())

    def test_adam_state_and_parameters_stay_float32(self):
        model, optimizer = self._adapt(Adam)
        assert all(p.data.dtype == np.float32 for p in model.parameters())
        assert all(m.dtype == np.float32 for m in optimizer._m)
        assert all(v.dtype == np.float32 for v in optimizer._v)

    def test_stacked_sgd_preserves_dtype(self):
        model = MLP(4, [8], 1, seed=0).to_dtype("float32")
        params = model.stack_parameters(3)
        optimizer = StackedSGD(0.05)
        x = Tensor(np.random.default_rng(0).random((3, 6, 4), dtype=np.float32))
        predictions = model.functional_call(params, x)
        (predictions * predictions).sum().backward()
        updated = optimizer.step(params)
        assert all(t.data.dtype == np.float32 for t in updated.values())


class TestCheckpointDtype:
    def _model(self, dtype=None):
        model = TransformerPredictor(6, embed_dim=8, num_heads=2, num_layers=1,
                                     head_hidden=8, seed=0)
        return model if dtype is None else model.to_dtype(dtype)

    def test_float32_round_trip_is_lossless(self, tmp_path):
        model = self._model("float32")
        path = save_model(model, tmp_path / "ckpt")
        state, header = load_state(path)
        assert header["dtype"] == "float32"
        assert all(array.dtype == np.float32 for array in state.values())
        clone = self._model("float32")
        clone.load_state_dict(state)
        for (name, a), (_, b) in zip(model.named_parameters(), clone.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data, err_msg=name)

    def test_float64_checkpoint_loads_into_float32_model(self, tmp_path):
        source = self._model()
        path = save_model(source, tmp_path / "ckpt64")
        state, header = load_state(path)
        target = self._model("float32")
        target.load_state_dict(state)
        assert header["dtype"] == "float64"
        assert target.dtype == np.float32
        for (name, a), (_, b) in zip(source.named_parameters(), target.named_parameters()):
            np.testing.assert_array_equal(
                a.data.astype(np.float32), b.data, err_msg=name
            )

    def test_float32_checkpoint_loads_into_float64_model(self, tmp_path):
        source = self._model("float32")
        path = save_model(source, tmp_path / "ckpt32")
        target = self._model()
        target.load_state_dict(load_state(path)[0])
        assert target.dtype == np.float64

    def test_header_dtype_records_model_dtype(self, tmp_path):
        path = save_model(self._model(), tmp_path / "ckpt", header={"metric": "ipc"})
        _, header = load_state(path)
        assert header["dtype"] == "float64"
        assert header["metric"] == "ipc"


class TestGradcheckGuard:
    def test_gradcheck_rejects_float32_model(self):
        model = MLP(3, [4], 1, seed=0).to_dtype("float32")
        with pytest.raises(ValueError, match="float64-only"):
            check_module_gradients(model, np.random.default_rng(0).random((4, 3)))

    def test_gradcheck_rejects_float32_policy(self):
        with precision("float32"):
            with pytest.raises(ValueError, match="float64-only"):
                check_tensor_gradient(lambda x: x * x, np.ones(3))

    def test_gradcheck_passes_in_float64(self):
        check_tensor_gradient(lambda x: (x * 0.5).gelu(), np.linspace(-1, 1, 5))
