"""Quality metrics for design-space-exploration outcomes.

Surrogate-guided DSE is only as good as the Pareto front it recovers.  These
metrics quantify that against a reference front (usually obtained by
exhaustively simulating a candidate pool):

* :func:`adrs` — Average Distance from Reference Set, the standard DSE
  metric (lower is better, 0 means the reference front was recovered);
* :func:`hypervolume_ratio` — hypervolume of the found front relative to the
  reference front under a shared reference point;
* :func:`monte_carlo_hypervolume` — seeded Monte-Carlo estimate of the
  dominated hypervolume at *any* objective count (the exact sweep in
  :func:`repro.dse.pareto.hypervolume_2d` only covers two objectives);
* :func:`hypervolume_slope` — per-round improvement rate of a hypervolume
  series, the reward signal the strategy portfolio's bandit consumes (see
  :mod:`repro.dse.portfolio`);
* :func:`normalize_objectives` — min-max scaling shared by the above so
  objectives with different units contribute equally.

All functions expect minimisation objectives; use
:func:`repro.dse.pareto.to_minimization` first when maximising (e.g. IPC).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.dse.pareto import hypervolume_2d, pareto_front
from repro.utils.rng import SeedLike, as_rng

#: Default sample count for :func:`monte_carlo_hypervolume` — enough for a
#: relative error of a few percent on the fronts the campaigns track.
MC_HYPERVOLUME_SAMPLES = 4096


def _as_front(points: np.ndarray, name: str) -> np.ndarray:
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError(f"{name} must be a non-empty (n, m) matrix, got shape {points.shape}")
    return points


def normalize_objectives(
    points: np.ndarray, reference: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Min-max scale *points* and *reference* by the reference's ranges.

    Degenerate (constant) objectives are left at zero so they do not blow up
    the distance computations.
    """
    points = _as_front(points, "points")
    reference = _as_front(reference, "reference")
    if points.shape[1] != reference.shape[1]:
        raise ValueError("points and reference must have the same number of objectives")
    low = reference.min(axis=0)
    span = reference.max(axis=0) - low
    span = np.where(span > 1e-12, span, 1.0)
    return (points - low) / span, (reference - low) / span


def adrs(found: np.ndarray, reference: np.ndarray) -> float:
    """Average Distance from Reference Set (minimisation objectives).

    For every reference-front point, the distance to the closest found point
    is measured as the worst-case per-objective shortfall
    ``max_j (found_j - reference_j)`` clipped at zero, i.e. how far the found
    front falls short of that reference point; the ADRS is the mean over the
    reference front.  Objectives are normalised by the reference ranges.
    """
    found_n, reference_n = normalize_objectives(found, reference)
    distances = []
    for ref_point in reference_n:
        shortfall = np.max(np.maximum(found_n - ref_point, 0.0), axis=1)
        distances.append(float(shortfall.min()))
    return float(np.mean(distances))


def monte_carlo_hypervolume(
    front: np.ndarray,
    reference_point: np.ndarray,
    *,
    num_samples: int = MC_HYPERVOLUME_SAMPLES,
    seed: SeedLike = 0,
) -> float:
    """Seeded Monte-Carlo estimate of the dominated hypervolume.

    Works at any objective count (minimisation convention): uniform samples
    are drawn in the axis-aligned box spanned by the front's ideal point
    and *reference_point*; the estimate is the dominated fraction times the
    box volume.  Deterministic given ``(front, reference_point,
    num_samples, seed)`` — the estimator draws from a fresh seeded
    generator, never from global state, so parallel and serial campaigns
    record identical numbers.

    For two objectives this converges to :func:`~repro.dse.pareto.
    hypervolume_2d` (pinned within sampling error by the unit tests); its
    use in the engine is the 3+-objective case the exact sweep does not
    cover.
    """
    front = _as_front(front, "front")
    reference_point = np.asarray(reference_point, dtype=np.float64)
    if reference_point.shape != (front.shape[1],):
        raise ValueError(
            f"reference_point must have shape ({front.shape[1]},), "
            f"got {reference_point.shape}"
        )
    if num_samples < 1:
        raise ValueError(f"num_samples must be >= 1, got {num_samples}")
    # Points at-or-beyond the reference in any objective dominate nothing
    # inside the box.
    front = front[np.all(front < reference_point, axis=1)]
    if front.shape[0] == 0:
        return 0.0
    ideal = front.min(axis=0)
    span = reference_point - ideal
    volume = float(np.prod(span))
    if volume <= 0.0:
        return 0.0
    rng = as_rng(seed)
    samples = ideal + span * rng.random((num_samples, front.shape[1]))
    # A sample is dominated when some front point is <= it in every
    # objective; chunk the (samples x front) comparison to bound memory.
    dominated = np.zeros(num_samples, dtype=bool)
    chunk = max(1, int(2**20 // max(front.shape[0], 1)))
    for start in range(0, num_samples, chunk):
        block = samples[start : start + chunk]
        dominated[start : start + chunk] = np.any(
            np.all(front[None, :, :] <= block[:, None, :], axis=2), axis=1
        )
    return volume * float(dominated.mean())


def hypervolume_slope(values: Sequence[float], *, window: int | None = None) -> float:
    """Per-round hypervolume improvement rate (higher is better).

    *values* is a hypervolume history as recorded by ``QualityTracker``
    (one entry per round, possibly NaN).  Returns the mean finite
    round-over-round delta, restricted to the trailing *window* rounds when
    given.  Non-finite entries (e.g. the NaN hypervolume recorded for
    single-point fronts) void the deltas they touch; with fewer than two
    finite points in the window the slope is 0.0 — a neutral reward, never
    NaN.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError(f"quality series must be 1-D, got shape {values.shape}")
    if window is not None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        # A window of w rounds spans w deltas, i.e. w + 1 trailing values.
        values = values[-(window + 1) :]
    if values.shape[0] < 2:
        return 0.0
    deltas = np.diff(values)
    finite = np.isfinite(deltas)
    if not np.any(finite):
        return 0.0
    return float(np.mean(deltas[finite]))


def hypervolume_ratio(found: np.ndarray, reference: np.ndarray) -> float:
    """Hypervolume of the found front divided by the reference front's.

    Only defined for two objectives (the IPC/power trade-off the examples
    explore).  The reference point is the nadir of both fronts plus a 10 %
    margin.
    """
    found = _as_front(found, "found")
    reference = _as_front(reference, "reference")
    if found.shape[1] != 2 or reference.shape[1] != 2:
        raise ValueError("hypervolume_ratio is defined for exactly two objectives")
    nadir = np.maximum(found.max(axis=0), reference.max(axis=0))
    span = np.maximum(nadir - np.minimum(found.min(axis=0), reference.min(axis=0)), 1e-12)
    reference_point = nadir + 0.1 * span

    found_front = found[pareto_front(found)]
    reference_front = reference[pareto_front(reference)]
    reference_volume = hypervolume_2d(reference_front, reference_point)
    if reference_volume <= 0:
        return 0.0
    return hypervolume_2d(found_front, reference_point) / reference_volume
