"""Tree-based regressors implemented from scratch.

scikit-learn is not available offline, so the Random Forest (RF) and
Gradient Boosting Regression Tree (GBRT) baselines of Table II/III are built
on a small CART implementation:

* :class:`DecisionTreeRegressor` — binary CART with variance-reduction
  splits, depth / leaf-size / feature-subsampling controls;
* :class:`RandomForestRegressor` — bagged CART ensemble with per-split
  feature subsampling;
* :class:`GradientBoostingRegressor` — stage-wise boosting of shallow CARTs
  on the residuals with shrinkage and optional row subsampling.

The implementations favour clarity over raw speed but use vectorised numpy
split searches, which is plenty fast for the few-thousand-point datasets the
experiments use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.baselines.base import Regressor, as_1d, as_2d
from repro.utils.rng import SeedLike, as_rng


@dataclass
class _Node:
    """One node of a CART tree (leaf when ``feature`` is None)."""

    value: float
    feature: Optional[int] = None
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


class DecisionTreeRegressor(Regressor):
    """CART regression tree with variance-reduction splitting."""

    def __init__(
        self,
        *,
        max_depth: int = 8,
        min_samples_split: int = 4,
        min_samples_leaf: int = 2,
        max_features: Optional[float] = None,
        seed: SeedLike = None,
    ) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if max_features is not None and not 0.0 < max_features <= 1.0:
            raise ValueError("max_features must be in (0, 1]")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.rng = as_rng(seed)
        self._root: Optional[_Node] = None
        self.n_features_: Optional[int] = None

    # -- training ---------------------------------------------------------------
    def fit(self, features: np.ndarray, targets: np.ndarray) -> "DecisionTreeRegressor":
        features = as_2d(features)
        targets = as_1d(targets, features.shape[0])
        if features.shape[0] == 0:
            raise ValueError("cannot fit a tree on an empty dataset")
        self.n_features_ = features.shape[1]
        self._root = self._grow(features, targets, depth=0)
        return self

    def _candidate_features(self, num_features: int) -> np.ndarray:
        if self.max_features is None:
            return np.arange(num_features)
        count = max(1, int(round(self.max_features * num_features)))
        return self.rng.choice(num_features, size=count, replace=False)

    def _best_split(
        self, features: np.ndarray, targets: np.ndarray
    ) -> Optional[tuple[int, float, np.ndarray]]:
        """Find the variance-minimising split; None when no valid split exists."""
        best_score = np.inf
        best: Optional[tuple[int, float, np.ndarray]] = None
        n = targets.shape[0]
        for feature in self._candidate_features(features.shape[1]):
            column = features[:, feature]
            order = np.argsort(column, kind="stable")
            sorted_col = column[order]
            sorted_targets = targets[order]
            # Candidate thresholds are midpoints between distinct consecutive values.
            distinct = np.nonzero(np.diff(sorted_col) > 1e-12)[0]
            if distinct.size == 0:
                continue
            # Prefix sums allow O(1) variance evaluation per candidate.
            prefix_sum = np.cumsum(sorted_targets)
            prefix_sq = np.cumsum(sorted_targets ** 2)
            left_counts = distinct + 1
            right_counts = n - left_counts
            valid = (left_counts >= self.min_samples_leaf) & (right_counts >= self.min_samples_leaf)
            if not np.any(valid):
                continue
            left_sum = prefix_sum[distinct]
            left_sq = prefix_sq[distinct]
            right_sum = prefix_sum[-1] - left_sum
            right_sq = prefix_sq[-1] - left_sq
            left_sse = left_sq - left_sum ** 2 / left_counts
            right_sse = right_sq - right_sum ** 2 / right_counts
            score = np.where(valid, left_sse + right_sse, np.inf)
            best_idx = int(np.argmin(score))
            if score[best_idx] < best_score:
                best_score = float(score[best_idx])
                split_pos = distinct[best_idx]
                threshold = 0.5 * (sorted_col[split_pos] + sorted_col[split_pos + 1])
                best = (int(feature), float(threshold), column <= threshold)
        return best

    def _grow(self, features: np.ndarray, targets: np.ndarray, *, depth: int) -> _Node:
        node_value = float(targets.mean())
        if (
            depth >= self.max_depth
            or targets.shape[0] < self.min_samples_split
            or float(targets.std()) < 1e-12
        ):
            return _Node(value=node_value)
        split = self._best_split(features, targets)
        if split is None:
            return _Node(value=node_value)
        feature, threshold, left_mask = split
        left = self._grow(features[left_mask], targets[left_mask], depth=depth + 1)
        right = self._grow(features[~left_mask], targets[~left_mask], depth=depth + 1)
        return _Node(value=node_value, feature=feature, threshold=threshold, left=left, right=right)

    # -- inference ---------------------------------------------------------------
    def predict(self, features: np.ndarray) -> np.ndarray:
        if self._root is None:
            raise RuntimeError("predict() called before fit()")
        features = as_2d(features)
        if features.shape[1] != self.n_features_:
            raise ValueError(
                f"expected {self.n_features_} features, got {features.shape[1]}"
            )
        out = np.empty(features.shape[0], dtype=np.float64)
        for i, row in enumerate(features):
            node = self._root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.value
        return out

    def depth(self) -> int:
        """Actual depth of the fitted tree."""
        if self._root is None:
            raise RuntimeError("depth() called before fit()")

        def walk(node: _Node) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self._root)


class RandomForestRegressor(Regressor):
    """Bagged ensemble of CART trees (the paper's RF baseline)."""

    def __init__(
        self,
        *,
        n_estimators: int = 50,
        max_depth: int = 10,
        min_samples_leaf: int = 2,
        max_features: float = 0.7,
        seed: SeedLike = 0,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.rng = as_rng(seed)
        self.trees_: list[DecisionTreeRegressor] = []

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "RandomForestRegressor":
        features = as_2d(features)
        targets = as_1d(targets, features.shape[0])
        self.trees_ = []
        n = features.shape[0]
        for _ in range(self.n_estimators):
            indices = self.rng.integers(0, n, size=n)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                seed=self.rng,
            )
            tree.fit(features[indices], targets[indices])
            self.trees_.append(tree)
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        if not self.trees_:
            raise RuntimeError("predict() called before fit()")
        predictions = np.stack([tree.predict(features) for tree in self.trees_], axis=0)
        return predictions.mean(axis=0)


class GradientBoostingRegressor(Regressor):
    """Stage-wise gradient boosting with squared loss (the GBRT baseline)."""

    def __init__(
        self,
        *,
        n_estimators: int = 120,
        learning_rate: float = 0.08,
        max_depth: int = 3,
        min_samples_leaf: int = 2,
        subsample: float = 1.0,
        seed: SeedLike = 0,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0 < learning_rate <= 1:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0 < subsample <= 1:
            raise ValueError("subsample must be in (0, 1]")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.rng = as_rng(seed)
        self.initial_: float = 0.0
        self.trees_: list[DecisionTreeRegressor] = []

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "GradientBoostingRegressor":
        features = as_2d(features)
        targets = as_1d(targets, features.shape[0])
        self.initial_ = float(targets.mean())
        self.trees_ = []
        current = np.full_like(targets, self.initial_)
        n = features.shape[0]
        sample_size = max(1, int(round(self.subsample * n)))
        for _ in range(self.n_estimators):
            residuals = targets - current
            if self.subsample < 1.0:
                indices = self.rng.choice(n, size=sample_size, replace=False)
            else:
                indices = np.arange(n)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                seed=self.rng,
            )
            tree.fit(features[indices], residuals[indices])
            current = current + self.learning_rate * tree.predict(features)
            self.trees_.append(tree)
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        if not self.trees_:
            raise RuntimeError("predict() called before fit()")
        features = as_2d(features)
        out = np.full(features.shape[0], self.initial_, dtype=np.float64)
        for tree in self.trees_:
            out += self.learning_rate * tree.predict(features)
        return out
