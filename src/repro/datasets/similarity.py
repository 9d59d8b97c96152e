"""Workload-similarity analysis (Fig. 2 of the paper).

The paper motivates MetaDSE by showing that SPEC CPU 2017 workloads are often
*dissimilar*: the Wasserstein distance between the metric distributions
(IPC, power) of two workloads over the same set of design points is large for
many pairs.  TrEnDSE also uses this distance to pick "similar" source
workloads, so the same code serves both the motivation figure and the
baseline.

The distance is a NumPy port of SciPy's unweighted
``scipy.stats.wasserstein_distance``, step for step, so it returns the same
bits; the tests check it against SciPy.  Importing SciPy would cost every
process that imports :mod:`repro` over a second of start-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.datasets.generation import DSEDataset


@dataclass(frozen=True)
class SimilarityMatrix:
    """A symmetric matrix of pairwise workload distances, scaled so the
    largest off-diagonal entry is one."""

    workloads: tuple[str, ...]
    metric: str
    distances: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.workloads)
        if self.distances.shape != (n, n):
            raise ValueError(
                f"distance matrix shape {self.distances.shape} does not match "
                f"{n} workloads"
            )

    def distance(self, a: str, b: str) -> float:
        """Distance between two named workloads."""
        i = self.workloads.index(a)
        j = self.workloads.index(b)
        return float(self.distances[i, j])

    def most_similar(self, workload: str, *, count: int = 1) -> list[str]:
        """The *count* nearest workloads to *workload* (excluding itself)."""
        i = self.workloads.index(workload)
        order = np.argsort(self.distances[i])
        nearest = [self.workloads[int(j)] for j in order if int(j) != i]
        return nearest[:count]

    def mean_offdiagonal(self) -> float:
        """Average pairwise distance (a scalar summary of dissimilarity)."""
        n = len(self.workloads)
        mask = ~np.eye(n, dtype=bool)
        return float(self.distances[mask].mean())

    def to_rows(self) -> list[dict[str, float]]:
        """Row-oriented export used by the Fig. 2 benchmark report."""
        rows = []
        for i, a in enumerate(self.workloads):
            row: dict[str, float] = {"workload": a}  # type: ignore[dict-item]
            for j, b in enumerate(self.workloads):
                row[b] = float(self.distances[i, j])
            rows.append(row)
        return rows


def _wasserstein_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Wasserstein-1 distance between the empirical distributions of *u* and *v*.

    The integral of ``|U - V|`` over the pooled sorted values, computed as
    SciPy's ``_cdf_distance(1, u, v)`` does it, so the result is bitwise equal
    to ``scipy.stats.wasserstein_distance(u, v)``.
    """
    if u.size == 0 or v.size == 0:
        raise ValueError("Distribution can't be empty.")
    all_values = np.concatenate((u, v))
    all_values.sort(kind="mergesort")
    deltas = np.diff(all_values)
    u_cdf = np.sort(u).searchsorted(all_values[:-1], "right") / u.size
    v_cdf = np.sort(v).searchsorted(all_values[:-1], "right") / v.size
    return np.vecdot(np.abs(u_cdf - v_cdf), deltas)


def standardized_wasserstein(a: np.ndarray, b: np.ndarray) -> float:
    """Wasserstein-1 distance between two samples after joint standardisation.

    Standardising by the pooled mean/std makes distances comparable across
    metrics with different physical units (IPC vs Watts), matching the
    paper's use of a common [0, 1] colour scale for both heatmaps.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    pooled = np.concatenate([a, b])
    scale = pooled.std()
    if scale < 1e-12:
        return 0.0
    mean = pooled.mean()
    return float(_wasserstein_distance((a - mean) / scale, (b - mean) / scale))


def similarity_matrix(
    dataset: DSEDataset,
    *,
    metric: str = "ipc",
    workloads: Optional[Sequence[str]] = None,
) -> SimilarityMatrix:
    """Compute the pairwise Wasserstein distance matrix of Fig. 2.

    The matrix is rescaled so its maximum off-diagonal entry equals one
    (the paper's colour bars span [0, 1]); an all-zero matrix stays zero.
    """
    names = tuple(workloads) if workloads is not None else tuple(dataset.workloads)
    samples = [dataset[name].metric(metric) for name in names]
    n = len(names)
    distances = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            d = standardized_wasserstein(samples[i], samples[j])
            distances[i, j] = d
            distances[j, i] = d
    if distances.max() > 0:
        distances = distances / distances.max()
    return SimilarityMatrix(workloads=names, metric=metric, distances=distances)


def select_similar_sources(
    dataset: DSEDataset,
    target_support_labels: np.ndarray,
    *,
    source_workloads: Sequence[str],
    metric: str = "ipc",
    top_k: int = 3,
) -> list[str]:
    """Rank source workloads by similarity to a target's few labelled samples.

    This is the TrEnDSE-style selection step: the Wasserstein distance is
    measured between the target's (few) support labels and each source
    workload's label distribution, and the *top_k* most similar sources are
    returned.
    """
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    distances = []
    for name in source_workloads:
        source_labels = dataset[name].metric(metric)
        distances.append((standardized_wasserstein(target_support_labels, source_labels), name))
    distances.sort(key=lambda pair: pair[0])
    return [name for _, name in distances[:top_k]]
