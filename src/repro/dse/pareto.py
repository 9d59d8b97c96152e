"""Pareto-front utilities for multi-objective DSE.

Cross-workload surrogate models exist to drive design-space exploration: the
paper's introduction frames DSE as balancing performance, power and area.
These helpers compute Pareto fronts and the hypervolume indicator used to
compare exploration outcomes in the extended benchmarks and examples.

Conventions: every objective is *minimised*.  Callers maximising a metric
(e.g. IPC) should negate it first; :func:`to_minimization` does that.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def to_minimization(values: np.ndarray, maximize: Sequence[bool]) -> np.ndarray:
    """Negate the columns that should be maximised so everything is minimised."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError(f"expected a 2-D objective matrix, got shape {values.shape}")
    if len(maximize) != values.shape[1]:
        raise ValueError("maximize flags must match the number of objectives")
    out = values.copy()
    for column, flag in enumerate(maximize):
        if flag:
            out[:, column] = -out[:, column]
    return out


def pareto_mask(objectives: np.ndarray) -> np.ndarray:
    """Boolean mask of non-dominated rows (all objectives minimised).

    A point is dominated when another point is no worse in every objective
    and strictly better in at least one; duplicates are kept.  Two
    objectives with at least one row and only finite values take the
    O(n log n) sort-and-sweep (:func:`_pareto_mask_2d`); everything else
    takes the generic scan (:func:`_pareto_mask_scan`), the reference the
    sweep is tested against.  Non-finite input stays on the scan: ±inf (a
    natural sentinel for an infeasible or failed point) would collide with
    the sweep's own ``inf`` seed, and NaN keeps the scan's comparison
    semantics.
    """
    objectives = np.asarray(objectives, dtype=np.float64)
    if objectives.ndim != 2:
        raise ValueError(f"expected a 2-D objective matrix, got shape {objectives.shape}")
    if (
        objectives.shape[1] == 2
        and objectives.shape[0] > 0
        and np.isfinite(objectives).all()
    ):
        return _pareto_mask_2d(objectives)
    return _pareto_mask_scan(objectives)


def _pareto_mask_scan(objectives: np.ndarray) -> np.ndarray:
    """Generic O(n·front) non-domination scan of a 2-D objective matrix."""
    n = objectives.shape[0]
    mask = np.ones(n, dtype=bool)
    for i in range(n):
        if not mask[i]:
            continue
        others = objectives[mask]
        dominates_i = np.all(others <= objectives[i], axis=1) & np.any(
            others < objectives[i], axis=1
        )
        if np.any(dominates_i):
            mask[i] = False
    return mask


def pareto_front(objectives: np.ndarray) -> np.ndarray:
    """Indices of the non-dominated rows, sorted by the first objective."""
    mask = pareto_mask(objectives)
    indices = np.nonzero(mask)[0]
    order = np.argsort(np.asarray(objectives, dtype=np.float64)[indices, 0])
    return indices[order]


def _pareto_mask_2d(objectives: np.ndarray) -> np.ndarray:
    """Sort-and-sweep non-domination for two finite objectives and n >= 1.

    The same mask as :func:`_pareto_mask_scan` (duplicates are kept, a point
    is dominated only by a no-worse-everywhere, better-somewhere point) in
    O(n log n) instead of O(n·front).  The rows are sorted
    lexicographically; within an equal-first-objective group only the
    minimum second objective survives, and a group member is additionally
    dominated when any strictly-smaller first objective already achieved a
    second objective no larger than its own.
    """
    n = objectives.shape[0]
    first, second = objectives[:, 0], objectives[:, 1]
    order = np.lexsort((second, first))
    first_sorted, second_sorted = first[order], second[order]

    group_start = np.empty(n, dtype=bool)
    group_start[0] = True
    group_start[1:] = first_sorted[1:] != first_sorted[:-1]
    group_id = np.cumsum(group_start) - 1
    starts = np.nonzero(group_start)[0]
    group_min = np.minimum.reduceat(second_sorted, starts)
    # Best (smallest) second objective over all strictly smaller first
    # objectives: prefix minimum of the per-group minima, shifted by one.
    previous_best = np.concatenate(
        ([np.inf], np.minimum.accumulate(group_min)[:-1])
    )
    dominated_sorted = (second_sorted > group_min[group_id]) | (
        previous_best[group_id] <= second_sorted
    )
    mask = np.ones(n, dtype=bool)
    mask[order[dominated_sorted]] = False
    return mask


def hypervolume_2d(front: np.ndarray, reference: Sequence[float]) -> float:
    """Hypervolume (area) dominated by a 2-D front w.r.t. *reference*.

    Only the two-objective case is needed (IPC vs power); the front may be
    passed unordered and may contain dominated points (they are filtered).
    """
    front = np.asarray(front, dtype=np.float64)
    if front.ndim != 2 or front.shape[1] != 2:
        raise ValueError(f"hypervolume_2d expects an (n, 2) front, got {front.shape}")
    reference = np.asarray(reference, dtype=np.float64)
    keep = pareto_mask(front)
    points = front[keep]
    # Clip points beyond the reference: they contribute nothing.
    points = points[np.all(points <= reference, axis=1)]
    if points.shape[0] == 0:
        return 0.0
    order = np.argsort(points[:, 0])
    points = points[order]
    area = 0.0
    previous_x = reference[0]
    for x, y in points[::-1]:
        area += (previous_x - x) * (reference[1] - y)
        previous_x = x
    return float(area)


def crowding_distance(objectives: np.ndarray) -> np.ndarray:
    """NSGA-II style crowding distance of each row (higher = more isolated)."""
    objectives = np.asarray(objectives, dtype=np.float64)
    n, m = objectives.shape
    if n == 0:
        return np.empty(0)
    distance = np.zeros(n, dtype=np.float64)
    for column in range(m):
        order = np.argsort(objectives[:, column])
        column_values = objectives[order, column]
        span = column_values[-1] - column_values[0]
        distance[order[0]] = np.inf
        distance[order[-1]] = np.inf
        if span < 1e-18 or n < 3:
            continue
        distance[order[1:-1]] += (column_values[2:] - column_values[:-2]) / span
    return distance
