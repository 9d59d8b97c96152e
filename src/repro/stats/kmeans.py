"""Lloyd's k-means clustering with k-means++ seeding.

TrDSE [13] clusters source workloads by their distributional features before
deciding which source data to reuse for a new target.  The clustering itself
is ordinary k-means; this module provides a small, deterministic
implementation sufficient for feature matrices with a handful of rows
(workloads) or a few thousand rows (design points).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import SeedLike, as_rng


@dataclass(frozen=True)
class KMeansResult:
    """Outcome of one k-means fit."""

    #: Cluster centres, shape ``(k, d)``.
    centers: np.ndarray
    #: Cluster index per input row, shape ``(n,)``.
    labels: np.ndarray
    #: Sum of squared distances of every row to its assigned centre.
    inertia: float
    #: Number of Lloyd iterations executed.
    iterations: int

    @property
    def num_clusters(self) -> int:
        """Number of clusters ``k``."""
        return self.centers.shape[0]


class KMeans:
    """k-means clustering (k-means++ seeding, Lloyd iterations).

    Parameters
    ----------
    num_clusters:
        Number of clusters ``k``.
    max_iterations:
        Upper bound on Lloyd iterations.
    tolerance:
        Convergence threshold on the change of total inertia.
    restarts:
        Independent initialisations; the best (lowest-inertia) fit is kept.
    seed:
        Determinism handle.
    """

    def __init__(
        self,
        num_clusters: int,
        *,
        max_iterations: int = 100,
        tolerance: float = 1e-8,
        restarts: int = 4,
        seed: SeedLike = 0,
    ) -> None:
        if num_clusters < 1:
            raise ValueError(f"num_clusters must be >= 1, got {num_clusters}")
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if restarts < 1:
            raise ValueError("restarts must be >= 1")
        self.num_clusters = num_clusters
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.restarts = restarts
        self.rng = as_rng(seed)
        self.result_: KMeansResult | None = None

    # -- seeding --------------------------------------------------------------
    def _plus_plus_init(self, data: np.ndarray) -> np.ndarray:
        """k-means++ seeding: spread the initial centres apart."""
        n = data.shape[0]
        centers = np.empty((self.num_clusters, data.shape[1]), dtype=np.float64)
        first = int(self.rng.integers(n))
        centers[0] = data[first]
        closest_sq = np.sum((data - centers[0]) ** 2, axis=1)
        for k in range(1, self.num_clusters):
            total = closest_sq.sum()
            if total <= 0:
                # All remaining points coincide with an existing centre.
                centers[k] = data[int(self.rng.integers(n))]
            else:
                probabilities = closest_sq / total
                choice = int(self.rng.choice(n, p=probabilities))
                centers[k] = data[choice]
            distance_sq = np.sum((data - centers[k]) ** 2, axis=1)
            closest_sq = np.minimum(closest_sq, distance_sq)
        return centers

    # -- one Lloyd run --------------------------------------------------------
    def _run_once(self, data: np.ndarray) -> KMeansResult:
        centers = self._plus_plus_init(data)
        labels = np.zeros(data.shape[0], dtype=np.int64)
        inertia = float("inf")
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            # Assignment step.
            distances = np.sum((data[:, None, :] - centers[None, :, :]) ** 2, axis=2)
            labels = np.argmin(distances, axis=1)
            new_inertia = float(distances[np.arange(data.shape[0]), labels].sum())

            # Update step; empty clusters are re-seeded on the farthest point.
            for k in range(self.num_clusters):
                members = data[labels == k]
                if len(members):
                    centers[k] = members.mean(axis=0)
                else:
                    farthest = int(np.argmax(distances[np.arange(data.shape[0]), labels]))
                    centers[k] = data[farthest]

            if abs(inertia - new_inertia) <= self.tolerance:
                inertia = new_inertia
                break
            inertia = new_inertia
        return KMeansResult(
            centers=centers, labels=labels, inertia=inertia, iterations=iterations
        )

    # -- public API --------------------------------------------------------------
    def fit(self, data: np.ndarray) -> KMeansResult:
        """Cluster the ``(n, d)`` matrix *data*; returns the best restart."""
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {data.shape}")
        if data.shape[0] < self.num_clusters:
            raise ValueError(
                f"cannot form {self.num_clusters} clusters from {data.shape[0]} rows"
            )
        best: KMeansResult | None = None
        for _ in range(self.restarts):
            candidate = self._run_once(data)
            if best is None or candidate.inertia < best.inertia:
                best = candidate
        assert best is not None  # restarts >= 1
        self.result_ = best
        return best

    def predict(self, data: np.ndarray) -> np.ndarray:
        """Assign new rows to the fitted clusters."""
        if self.result_ is None:
            raise RuntimeError("predict() called before fit()")
        data = np.asarray(data, dtype=np.float64)
        if data.ndim == 1:
            data = data.reshape(1, -1)
        distances = np.sum(
            (data[:, None, :] - self.result_.centers[None, :, :]) ** 2, axis=2
        )
        return np.argmin(distances, axis=1)
