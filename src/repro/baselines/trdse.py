"""TrDSE- and TrEE-style transfer baselines (Section II-A "Similarity Analysis").

Two of the earliest cross-program DSE transfer frameworks the paper surveys
are implemented here so the taxonomy of Section II can be compared head to
head on the same substrate:

* **TrDSE** [13] clusters the source workloads by distributional features of
  their metric values over a shared, orthogonal-array-sampled probe set of
  configurations.  When a target workload arrives with a few labelled
  samples, its distributional features place it into one of the clusters and
  the cluster's pooled data (plus the over-weighted target samples) trains
  the downstream regressor.
* **TrEE** [14] refines TrDSE with an orthogonal-array *foldover* sampling
  strategy and an ensemble: one tree model is trained per source workload on
  an OA + foldover subset of its data, and at adaptation time the member
  models are combined with weights derived from their accuracy on the target
  support set, plus a small residual corrector trained on the support
  residuals.

Both follow the :class:`~repro.baselines.base.CrossWorkloadModel` protocol so
the benchmark harness can drive them exactly like TrEnDSE and MetaDSE.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.base import CrossWorkloadModel, as_1d, as_2d
from repro.baselines.trees import DecisionTreeRegressor, GradientBoostingRegressor
from repro.datasets.generation import DSEDataset
from repro.datasets.splits import WorkloadSplit
from repro.stats.features import distribution_features
from repro.stats.kmeans import KMeans
from repro.utils.rng import SeedLike, as_rng


class TrDSE(CrossWorkloadModel):
    """Cluster source workloads by distributional features, reuse the cluster."""

    name = "TrDSE"

    def __init__(
        self,
        *,
        num_clusters: int = 3,
        probe_points: int = 128,
        source_sample_per_workload: int = 150,
        target_weight: float = 4.0,
        seed: SeedLike = 0,
    ) -> None:
        if num_clusters < 1:
            raise ValueError("num_clusters must be >= 1")
        if probe_points < 8:
            raise ValueError("probe_points must be >= 8")
        if target_weight < 1:
            raise ValueError("target_weight must be >= 1")
        self.num_clusters = num_clusters
        self.probe_points = probe_points
        self.source_sample_per_workload = source_sample_per_workload
        self.target_weight = target_weight
        self.seed = seed
        self.rng = as_rng(seed)
        self._dataset: Optional[DSEDataset] = None
        self._metric = "ipc"
        self._source_workloads: list[str] = []
        self._feature_mean: Optional[np.ndarray] = None
        self._feature_std: Optional[np.ndarray] = None
        self._kmeans: Optional[KMeans] = None
        self._cluster_of: dict[str, int] = {}
        self._model: Optional[GradientBoostingRegressor] = None

    # -- stage 1: cluster the source workloads -------------------------------------
    def pretrain(
        self, dataset: DSEDataset, split: WorkloadSplit, *, metric: str = "ipc"
    ) -> "TrDSE":
        self._dataset = dataset
        self._metric = metric
        self._source_workloads = list(split.train) + list(split.validation)
        probe = min(self.probe_points, dataset.num_points)
        # Distributional features over a shared probe subset (the OA-sampled
        # probe set of the original method; the dataset's design points are
        # shared across workloads, so a fixed prefix plays the same role).
        raw = np.stack(
            [
                distribution_features(dataset[name].metric(metric)[:probe])
                for name in self._source_workloads
            ],
            axis=0,
        )
        self._feature_mean = raw.mean(axis=0)
        self._feature_std = np.maximum(raw.std(axis=0), 1e-12)
        standardized = (raw - self._feature_mean) / self._feature_std

        clusters = min(self.num_clusters, len(self._source_workloads))
        self._kmeans = KMeans(clusters, seed=self.seed)
        result = self._kmeans.fit(standardized)
        self._cluster_of = {
            name: int(label)
            for name, label in zip(self._source_workloads, result.labels)
        }
        self._model = None
        return self

    def _standardize(self, features: np.ndarray) -> np.ndarray:
        assert self._feature_mean is not None and self._feature_std is not None
        return (features - self._feature_mean) / self._feature_std

    def cluster_members(self, cluster: int) -> list[str]:
        """Source workloads assigned to *cluster* (useful for inspection)."""
        return [name for name, label in self._cluster_of.items() if label == cluster]

    # -- stages 2-3: place the target, train on its cluster ---------------------------
    def adapt(self, support_x: np.ndarray, support_y: np.ndarray) -> "TrDSE":
        if self._dataset is None or self._kmeans is None:
            raise RuntimeError("adapt() called before pretrain()")
        support_x = as_2d(support_x)
        support_y = as_1d(support_y, support_x.shape[0])

        target_features = self._standardize(distribution_features(support_y))
        cluster = int(self._kmeans.predict(target_features)[0])
        members = self.cluster_members(cluster) or self._source_workloads

        features = [support_x] * int(self.target_weight)
        labels = [support_y] * int(self.target_weight)
        for workload in members:
            data = self._dataset[workload]
            count = min(self.source_sample_per_workload, len(data))
            indices = self.rng.choice(len(data), size=count, replace=False)
            features.append(data.features[indices])
            labels.append(data.metric(self._metric)[indices])
        train_x = np.concatenate(features, axis=0)
        train_y = np.concatenate(labels, axis=0)

        self._model = GradientBoostingRegressor(
            n_estimators=80, max_depth=3, subsample=0.8, seed=self.rng
        )
        self._model.fit(train_x, train_y)
        self.selected_cluster_ = cluster
        self.selected_sources_ = members
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        if self._model is None:
            raise RuntimeError("predict() called before adapt()")
        return self._model.predict(as_2d(features))


class TrEE(CrossWorkloadModel):
    """Per-source ensemble with OA + foldover sampling and accuracy weighting."""

    name = "TrEE"

    def __init__(
        self,
        *,
        oa_samples: int = 96,
        n_estimators: int = 60,
        max_depth: int = 3,
        weight_temperature: float = 1.0,
        residual_depth: int = 2,
        seed: SeedLike = 0,
    ) -> None:
        if oa_samples < 8:
            raise ValueError("oa_samples must be >= 8")
        if weight_temperature <= 0:
            raise ValueError("weight_temperature must be > 0")
        self.oa_samples = oa_samples
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.weight_temperature = weight_temperature
        self.residual_depth = residual_depth
        self.rng = as_rng(seed)
        self._metric = "ipc"
        self._members: dict[str, GradientBoostingRegressor] = {}
        self._weights: Optional[np.ndarray] = None
        self._member_order: list[str] = []
        self._residual: Optional[DecisionTreeRegressor] = None

    # -- stage 1: one member model per source workload -----------------------------
    def pretrain(
        self, dataset: DSEDataset, split: WorkloadSplit, *, metric: str = "ipc"
    ) -> "TrEE":
        self._metric = metric
        self._members = {}
        self._member_order = []
        source_workloads = list(split.train) + list(split.validation)
        for workload in source_workloads:
            data = dataset[workload]
            subset = self._oa_foldover_indices(len(data))
            model = GradientBoostingRegressor(
                n_estimators=self.n_estimators,
                max_depth=self.max_depth,
                subsample=0.8,
                seed=self.rng,
            )
            model.fit(data.features[subset], data.metric(metric)[subset])
            self._members[workload] = model
            self._member_order.append(workload)
        self._weights = None
        self._residual = None
        return self

    def _oa_foldover_indices(self, population: int) -> np.ndarray:
        """Pick an evenly-strided "orthogonal array" subset plus its foldover.

        The shared design points were already drawn by the dataset's sampler;
        a strided subset keeps the coverage balanced, and the foldover adds
        the mirrored half of the stride so low- and high-level settings of
        every parameter appear equally often — the spirit of the original
        OA-foldover scheme without requiring a literal OA table.
        """
        count = min(self.oa_samples, population)
        base = np.linspace(0, population - 1, num=count, dtype=np.int64)
        if count >= population:
            return np.unique(base)
        offset = max(population // (2 * count), 1)
        folded = np.clip(base + offset, 0, population - 1)
        return np.unique(np.concatenate([base, folded]))

    # -- stages 2-3: weight the members on the target support set ---------------------
    def adapt(self, support_x: np.ndarray, support_y: np.ndarray) -> "TrEE":
        if not self._members:
            raise RuntimeError("adapt() called before pretrain()")
        support_x = as_2d(support_x)
        support_y = as_1d(support_y, support_x.shape[0])

        errors = []
        member_predictions = []
        for workload in self._member_order:
            predictions = self._members[workload].predict(support_x)
            member_predictions.append(predictions)
            errors.append(float(np.sqrt(np.mean((predictions - support_y) ** 2))))
        errors_array = np.asarray(errors, dtype=np.float64)
        # Softmin over support-set RMSE: accurate members dominate the blend.
        scaled = -errors_array / (self.weight_temperature * max(errors_array.min(), 1e-9))
        weights = np.exp(scaled - scaled.max())
        self._weights = weights / weights.sum()

        blended = np.average(np.stack(member_predictions, axis=0), axis=0, weights=self._weights)
        residuals = support_y - blended
        self._residual = DecisionTreeRegressor(
            max_depth=self.residual_depth, min_samples_leaf=1, seed=self.rng
        )
        self._residual.fit(support_x, residuals)
        self.member_errors_ = dict(zip(self._member_order, errors))
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        if self._weights is None or self._residual is None:
            raise RuntimeError("predict() called before adapt()")
        features = as_2d(features)
        member_predictions = np.stack(
            [self._members[name].predict(features) for name in self._member_order], axis=0
        )
        blended = np.average(member_predictions, axis=0, weights=self._weights)
        return blended + self._residual.predict(features)
