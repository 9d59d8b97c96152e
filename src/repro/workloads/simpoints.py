"""SimPoint-style phase decomposition of a workload.

The paper evaluates each SPEC workload through SimPoint sampling: up to 30
representative clusters of ten million instructions each, with weights that
say how much of the whole program each cluster represents.  The synthetic
equivalent here decomposes a :class:`WorkloadProfile` into a weighted set of
perturbed phase profiles.  The simulator then reports the weighted average of
the per-phase results, which is exactly how gem5 + SimPoint results are
aggregated in practice.

Having phases also injects realistic *heteroscedastic* structure: workloads
with many dissimilar phases are harder to predict, mirroring the ambiguity
the paper highlights in Section III.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import SeedLike, as_rng
from repro.workloads.characteristics import WorkloadProfile

#: Paper setting: each workload is divided into at most 30 clusters.
MAX_SIMPOINT_CLUSTERS = 30

#: Paper setting: each cluster represents ten million instructions.
INSTRUCTIONS_PER_CLUSTER = 10_000_000

#: Scale of the per-phase perturbation of a workload's profile
#: (:meth:`WorkloadProfile.perturbed`).
PHASE_DIVERSITY = 0.08


@dataclass(frozen=True)
class SimPoint:
    """A single representative phase of a workload."""

    index: int
    weight: float
    profile: WorkloadProfile
    instructions: int = INSTRUCTIONS_PER_CLUSTER


@dataclass(frozen=True)
class SimPointSet:
    """The SimPoint decomposition of one workload."""

    workload_name: str
    points: tuple[SimPoint, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("a SimPoint set needs at least one point")
        total = sum(p.weight for p in self.points)
        if not np.isclose(total, 1.0, atol=1e-6):
            raise ValueError(f"SimPoint weights must sum to 1.0, got {total:.6f}")

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    @property
    def weights(self) -> np.ndarray:
        """Phase weights as an array (sums to one)."""
        return np.array([p.weight for p in self.points])


def generate_simpoints(
    profile: WorkloadProfile,
    *,
    max_clusters: int = MAX_SIMPOINT_CLUSTERS,
    seed: SeedLike = None,
) -> SimPointSet:
    """Decompose *profile* into a weighted set of perturbed phase profiles.

    Parameters
    ----------
    profile:
        The aggregate workload profile.
    max_clusters:
        Upper bound on the number of phases; the actual count is drawn
        between 4 and *max_clusters* with irregular workloads getting more
        phases (pointer-chasing codes show more phase behaviour in practice).
    seed:
        Determinism handle; the same seed always yields the same phases.
    """
    if max_clusters < 1:
        raise ValueError(f"max_clusters must be >= 1, got {max_clusters}")
    rng = as_rng(seed)
    irregularity = profile.memory.access_irregularity
    low = min(4, max_clusters)
    high = max(low, int(round(max_clusters * (0.4 + 0.6 * irregularity))))
    count = int(rng.integers(low, high + 1))
    weights = rng.dirichlet(np.full(count, 2.0))
    points = tuple(
        SimPoint(
            index=i,
            weight=float(w),
            profile=profile.perturbed(rng, scale=PHASE_DIVERSITY).with_name(
                f"{profile.name}#sp{i}"
            ),
        )
        for i, w in enumerate(weights)
    )
    return SimPointSet(workload_name=profile.name, points=points)
