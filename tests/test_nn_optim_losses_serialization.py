"""Tests for optimisers, losses and model serialisation."""

from pathlib import Path

import numpy as np
import pytest

from repro.nn.layers import Linear
from repro.nn.losses import mse_loss
from repro.nn.optim import SGD, Adam, CosineAnnealingLR, clip_grad_norm
from repro.nn import serialization
from repro.nn.serialization import load_state, save_model
from repro.nn.tensor import Tensor


def quadratic_problem():
    """A 2-parameter quadratic with minimum at (3, -2)."""
    theta = Tensor(np.zeros(2), requires_grad=True)
    target = np.array([3.0, -2.0])

    def loss_fn():
        diff = theta - Tensor(target)
        return (diff * diff).sum()

    return theta, loss_fn


class TestSGD:
    def test_converges_on_quadratic(self):
        theta, loss_fn = quadratic_problem()
        optimizer = SGD([theta], 0.1)
        for _ in range(100):
            optimizer.zero_grad()
            loss_fn().backward()
            optimizer.step()
        np.testing.assert_allclose(theta.data, [3.0, -2.0], atol=1e-3)

    def test_invalid_hyperparameters(self):
        theta = Tensor(np.zeros(1), requires_grad=True)
        with pytest.raises(ValueError):
            SGD([theta], -0.1)
        with pytest.raises(ValueError):
            SGD([], 0.1)


class TestAdam:
    def test_converges_on_quadratic(self):
        theta, loss_fn = quadratic_problem()
        optimizer = Adam([theta], 0.1)
        for _ in range(300):
            optimizer.zero_grad()
            loss_fn().backward()
            optimizer.step()
        np.testing.assert_allclose(theta.data, [3.0, -2.0], atol=1e-2)

    def test_skips_parameters_without_gradients(self):
        used = Tensor(np.zeros(1), requires_grad=True)
        unused = Tensor(np.ones(1), requires_grad=True)
        optimizer = Adam([used, unused], 0.1)
        optimizer.zero_grad()
        (used * 2.0).sum().backward()
        optimizer.step()
        np.testing.assert_allclose(unused.data, [1.0])

    def test_invalid_betas(self):
        theta = Tensor(np.zeros(1), requires_grad=True)
        with pytest.raises(ValueError):
            Adam([theta], 0.1, betas=(1.0, 0.9))


class TestCosineAnnealing:
    def test_decays_to_eta_min(self):
        theta = Tensor(np.zeros(1), requires_grad=True)
        optimizer = SGD([theta], 1.0)
        scheduler = CosineAnnealingLR(optimizer, total_steps=10, eta_min=0.1)
        rates = [scheduler.step() for _ in range(10)]
        assert rates[0] < 1.0
        assert rates[-1] == pytest.approx(0.1)
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_invalid_arguments(self):
        theta = Tensor(np.zeros(1), requires_grad=True)
        optimizer = SGD([theta], 1.0)
        with pytest.raises(ValueError):
            CosineAnnealingLR(optimizer, total_steps=0)


class TestClipGradNorm:
    def test_clips_large_gradients(self):
        theta = Tensor(np.zeros(4), requires_grad=True)
        theta.grad = np.full(4, 10.0)
        norm = clip_grad_norm([theta], max_norm=1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(theta.grad) == pytest.approx(1.0)

    def test_leaves_small_gradients_untouched(self):
        theta = Tensor(np.zeros(2), requires_grad=True)
        theta.grad = np.array([0.1, 0.1])
        clip_grad_norm([theta], max_norm=5.0)
        np.testing.assert_allclose(theta.grad, [0.1, 0.1])

    def test_invalid_max_norm(self):
        with pytest.raises(ValueError):
            clip_grad_norm([], 0.0)


class TestLosses:
    def test_mse_matches_numpy(self):
        predictions = Tensor([1.0, 2.0, 3.0])
        targets = np.array([1.5, 2.0, 2.0])
        expected = np.mean((predictions.data - targets) ** 2)
        assert mse_loss(predictions, targets).item() == pytest.approx(expected)

    def test_mse_is_differentiable(self):
        theta = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        mse_loss(theta * 2.0, np.array([1.0, 1.0])).backward()
        assert theta.grad is not None


class TestSerialization:
    def test_save_and_load_roundtrip(self, tmp_path):
        model = Linear(4, 2, seed=0)
        path = save_model(model, tmp_path / "model", header={"kind": "linear"})
        state, header = load_state(path)
        other = Linear(4, 2, seed=99)
        other.load_state_dict(state)
        assert header["kind"] == "linear"
        np.testing.assert_allclose(model.weight.data, other.weight.data)

    def test_load_state_returns_header(self, tmp_path):
        model = Linear(2, 2, seed=0)
        path = save_model(model, tmp_path / "m.npz", header={"metric": "ipc"})
        state, header = load_state(path)
        assert "weight" in state
        assert header["metric"] == "ipc"

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_state(tmp_path / "nope.npz")

    def test_interrupted_save_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        path = save_model(Linear(2, 2, seed=0), tmp_path / "m.npz")
        before = path.read_bytes()

        def torn_savez(file, **arrays):
            # Write part of an archive, then fail as a killed or full-disk
            # save would.
            if hasattr(file, "write"):
                file.write(b"PK\x03\x04 partial archive")
            else:
                Path(file).write_bytes(b"PK\x03\x04 partial archive")
            raise OSError("interrupted")

        monkeypatch.setattr(serialization.np, "savez", torn_savez)
        with pytest.raises(OSError, match="interrupted"):
            save_model(Linear(2, 2, seed=1), path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.npz"]
