"""RF / GBRT transfer baselines.

Table II and Table III compare MetaDSE against plain RF and GBRT models
"commonly used in transfer learning".  Their protocol, inferred from
Table III (the RF error barely moves as the adaptation support size K grows
from 5 to 40), is *pooled training*: the tree model is fit on all source
workloads' labelled data plus the K target samples, with no mechanism other
than the pooled data itself to emphasise the target.  That is the behaviour
implemented by :class:`PooledTreeModel`.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.baselines.base import CrossWorkloadModel, Regressor, as_1d, as_2d
from repro.baselines.trees import GradientBoostingRegressor, RandomForestRegressor
from repro.datasets.generation import DSEDataset
from repro.datasets.splits import WorkloadSplit
from repro.utils.rng import SeedLike

#: Factory signature shared by the wrappers below.
RegressorFactory = Callable[[], Regressor]


class PooledTreeModel(CrossWorkloadModel):
    """Fit a tree regressor on pooled source data plus the target support set."""

    def __init__(
        self,
        name: str,
        factory: RegressorFactory,
        *,
        max_source_points_per_workload: int = 200,
        seed: SeedLike = 0,
    ) -> None:
        self.name = name
        self._factory = factory
        self.max_source_points_per_workload = max_source_points_per_workload
        self._seed = seed
        self._model: Optional[Regressor] = None
        self._source_x: Optional[np.ndarray] = None
        self._source_y: Optional[np.ndarray] = None

    def pretrain(
        self, dataset: DSEDataset, split: WorkloadSplit, *, metric: str = "ipc"
    ) -> "PooledTreeModel":
        rng = np.random.default_rng(self._seed)
        features, labels = [], []
        for workload in split.train:
            data = dataset[workload]
            count = min(self.max_source_points_per_workload, len(data))
            indices = rng.choice(len(data), size=count, replace=False)
            features.append(data.features[indices])
            labels.append(data.metric(metric)[indices])
        self._source_x = np.concatenate(features, axis=0)
        self._source_y = np.concatenate(labels, axis=0)
        self._model = None
        return self

    def adapt(self, support_x: np.ndarray, support_y: np.ndarray) -> "PooledTreeModel":
        if self._source_x is None or self._source_y is None:
            raise RuntimeError("adapt() called before pretrain()")
        support_x = as_2d(support_x)
        support_y = as_1d(support_y, support_x.shape[0])
        train_x = np.concatenate([self._source_x, support_x], axis=0)
        train_y = np.concatenate([self._source_y, support_y], axis=0)
        model = self._factory()
        model.fit(train_x, train_y)
        self._model = model
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        if self._model is None:
            raise RuntimeError("predict() called before adapt()")
        return self._model.predict(features)


def random_forest_baseline(*, seed: SeedLike = 0) -> PooledTreeModel:
    """The "RF" row of Table II / Table III (pooled source + support training)."""
    return PooledTreeModel(
        "RF",
        lambda: RandomForestRegressor(n_estimators=30, max_depth=5, seed=seed),
        seed=seed,
    )


def gbrt_baseline(*, seed: SeedLike = 0) -> PooledTreeModel:
    """The "GBRT" row of Table II / Table III (pooled source + support training)."""
    return PooledTreeModel(
        "GBRT",
        lambda: GradientBoostingRegressor(
            n_estimators=120, max_depth=3, learning_rate=0.1, seed=seed
        ),
        seed=seed,
    )


__all__ = [
    "PooledTreeModel",
    "random_forest_baseline",
    "gbrt_baseline",
]
