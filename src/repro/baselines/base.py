"""Common interfaces shared by all prediction models.

Two roles exist in the experiments:

* a plain :class:`Regressor` — ``fit(X, y)`` / ``predict(X)`` — used for the
  single-workload models (RF, GBRT) that Table II and Table III train
  directly on the target support set;
* a :class:`CrossWorkloadModel` — ``pretrain`` on source workloads once,
  then ``adapt`` to a target workload's support set and ``predict`` unseen
  target points — the protocol followed by TrEnDSE, TrEnDSE-Transformer and
  MetaDSE itself.

Keeping both behind explicit base classes lets every benchmark drive all
models through the same loop.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence

import numpy as np

from repro.datasets.generation import DSEDataset
from repro.datasets.splits import WorkloadSplit


class Regressor(abc.ABC):
    """A plain supervised regressor."""

    @abc.abstractmethod
    def fit(self, features: np.ndarray, targets: np.ndarray) -> "Regressor":
        """Train on ``(n, d)`` features and ``(n,)`` targets; returns self."""

    @abc.abstractmethod
    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict targets for ``(n, d)`` features."""


class CrossWorkloadModel(abc.ABC):
    """A model following the paper's two-stage cross-workload protocol."""

    #: Human-readable name used in benchmark tables.
    name: str = "cross-workload-model"

    @abc.abstractmethod
    def pretrain(
        self,
        dataset: DSEDataset,
        split: WorkloadSplit,
        *,
        metric: str = "ipc",
    ) -> "CrossWorkloadModel":
        """Learn from the source (train/validation) workloads; returns self."""

    @abc.abstractmethod
    def adapt(self, support_x: np.ndarray, support_y: np.ndarray) -> "CrossWorkloadModel":
        """Adapt to a target workload given a few labelled samples; returns self."""

    @abc.abstractmethod
    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict the target workload's metric for unseen configurations."""


def as_2d(features: np.ndarray) -> np.ndarray:
    """Validate and coerce a feature matrix to 2-D float64."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 1:
        features = features.reshape(1, -1)
    if features.ndim != 2:
        raise ValueError(f"expected a 2-D feature matrix, got shape {features.shape}")
    return features


def as_1d(targets: np.ndarray, length: Optional[int] = None) -> np.ndarray:
    """Validate and coerce a target vector to 1-D float64."""
    targets = np.asarray(targets, dtype=np.float64).reshape(-1)
    if length is not None and targets.shape[0] != length:
        raise ValueError(f"expected {length} targets, got {targets.shape[0]}")
    return targets


def pooled_source_data(
    dataset: DSEDataset, workloads: Sequence[str], metric: str
) -> tuple[np.ndarray, np.ndarray]:
    """Stack the features/labels of several workloads into one training set."""
    if not workloads:
        raise ValueError("pooled_source_data needs at least one workload")
    features = np.concatenate([dataset[w].features for w in workloads], axis=0)
    labels = np.concatenate([dataset[w].metric(metric) for w in workloads], axis=0)
    return features, labels
