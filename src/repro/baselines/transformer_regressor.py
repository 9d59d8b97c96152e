"""Supervised transformer regressor (the TrEnDSE-Transformer building block).

A :class:`TransformerRegressor` wraps :class:`~repro.nn.transformer.TransformerPredictor`
behind the plain ``fit``/``predict`` interface: mini-batch Adam training with
cosine annealing on a fixed dataset with internal label standardisation.
It serves three roles in the experiments:

* the predictor inside the *TrEnDSE-Transformer* baseline (ensemble replaced
  by a transformer, conventional supervised pre-training + fine-tuning);
* the "Baseline" row of Table III (a conventionally fine-tuned transformer);
* a sanity-check single-workload regressor in the tests.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.base import Regressor, as_1d, as_2d
from repro.nn.losses import mse_loss
from repro.nn.optim import Adam, CosineAnnealingLR
from repro.nn.tensor import Tensor
from repro.nn.transformer import TransformerPredictor
from repro.utils.rng import SeedLike, as_rng


class TransformerRegressor(Regressor):
    """Mini-batch supervised training wrapper around the transformer predictor."""

    def __init__(
        self,
        num_parameters: int,
        *,
        embed_dim: int = 32,
        num_heads: int = 4,
        num_layers: int = 2,
        epochs: int = 60,
        batch_size: int = 32,
        lr: float = 2e-3,
        seed: SeedLike = 0,
    ) -> None:
        if epochs < 1 or batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        self.num_parameters = num_parameters
        self.epochs = epochs
        self.batch_size = batch_size
        self.lr = lr
        self.rng = as_rng(seed)
        self.model = TransformerPredictor(
            num_parameters,
            embed_dim=embed_dim,
            num_heads=num_heads,
            num_layers=num_layers,
            seed=self.rng,
        )
        self._label_mean = 0.0
        self._label_std = 1.0
        self.training_losses_: list[float] = []

    # -- label scaling -----------------------------------------------------------
    def _scale(self, targets: np.ndarray) -> np.ndarray:
        return (targets - self._label_mean) / self._label_std

    def _unscale(self, values: np.ndarray) -> np.ndarray:
        return values * self._label_std + self._label_mean

    # -- training ------------------------------------------------------------------
    def fit(self, features: np.ndarray, targets: np.ndarray) -> "TransformerRegressor":
        features = as_2d(features)
        targets = as_1d(targets, features.shape[0])
        self._label_mean = float(targets.mean())
        self._label_std = float(max(targets.std(), 1e-8))
        scaled = self._scale(targets)

        optimizer = Adam(self.model.parameters(), self.lr)
        total_steps = self.epochs * max(1, int(np.ceil(features.shape[0] / self.batch_size)))
        scheduler = CosineAnnealingLR(optimizer, total_steps)
        self.training_losses_ = []
        n = features.shape[0]
        for _ in range(self.epochs):
            order = self.rng.permutation(n)
            epoch_losses = []
            for start in range(0, n, self.batch_size):
                batch = order[start:start + self.batch_size]
                optimizer.zero_grad()
                loss = mse_loss(self.model(Tensor(features[batch])), scaled[batch])
                loss.backward()
                optimizer.step()
                scheduler.step()
                epoch_losses.append(loss.item())
            self.training_losses_.append(float(np.mean(epoch_losses)))
        return self

    def fine_tune(
        self,
        features: np.ndarray,
        targets: np.ndarray,
        *,
        steps: int = 10,
        lr: Optional[float] = None,
    ) -> "TransformerRegressor":
        """Continue training on a (small) new dataset without re-initialising.

        Used by the TrEnDSE-Transformer baseline for downstream adaptation:
        a conventional fine-tune of all weights on the target support set.
        Labels are mapped with the scaling fitted during :meth:`fit` so the
        pre-trained output head stays calibrated.
        """
        features = as_2d(features)
        targets = as_1d(targets, features.shape[0])
        scaled = self._scale(targets)
        optimizer = Adam(self.model.parameters(), lr if lr is not None else self.lr * 0.5)
        for _ in range(steps):
            optimizer.zero_grad()
            loss = mse_loss(self.model(Tensor(features)), scaled)
            loss.backward()
            optimizer.step()
        return self

    # -- inference --------------------------------------------------------------------
    def predict(self, features: np.ndarray) -> np.ndarray:
        features = as_2d(features)
        return self._unscale(self.model.predict(features))
