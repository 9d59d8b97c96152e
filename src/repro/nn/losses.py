"""Regression losses used for surrogate-model training."""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor


def _as_tensor(value, like: Tensor) -> Tensor:
    """Coerce targets, folding raw arrays to the predictions' dtype.

    Targets usually arrive as float64 label arrays; folding them keeps a
    float32 model's loss graph float32.  An explicit Tensor target is taken
    as-is and promotes per numpy rules.
    """
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=like.data.dtype))


def mse_loss(predictions: Tensor, targets) -> Tensor:
    """Mean squared error (the loss used throughout the paper)."""
    targets = _as_tensor(targets, predictions)
    diff = predictions - targets
    return (diff * diff).mean()
