"""Analytical CPU simulation substrate (gem5 + McPAT substitute).

Every model exposes a scalar ``evaluate`` (one configuration per call) and a
vectorized ``evaluate_batch`` (``(n_configs,)`` parameter vectors per call);
the :class:`Simulator` facade front-ends them through ``run_scalar`` (the
reference) and ``run_sweep`` (the one batch path, which ``run`` and
``run_batch`` call).
"""

from repro.sim.backend import BackendModel, BackendModelBatchResult, BackendModelResult
from repro.sim.branch import BranchModelBatchResult, BranchModelResult, BranchPredictorModel
from repro.sim.cache import (
    CacheHierarchyBatchResult,
    CacheHierarchyModel,
    CacheHierarchyResult,
)
from repro.sim.performance import (
    PerformanceBatchResult,
    PerformanceModel,
    PerformanceResult,
)
from repro.sim.power import (
    AreaBatchBreakdown,
    AreaBreakdown,
    PowerBatchResult,
    PowerModel,
    PowerResult,
)
from repro.sim.simulator import BatchSimulationResult, SimulationResult, Simulator
from repro.sim.technology import DEFAULT_TECHNOLOGY, TechnologyParameters

__all__ = [
    "BranchPredictorModel",
    "BranchModelResult",
    "BranchModelBatchResult",
    "CacheHierarchyModel",
    "CacheHierarchyResult",
    "CacheHierarchyBatchResult",
    "BackendModel",
    "BackendModelResult",
    "BackendModelBatchResult",
    "PerformanceModel",
    "PerformanceResult",
    "PerformanceBatchResult",
    "PowerModel",
    "PowerResult",
    "PowerBatchResult",
    "AreaBreakdown",
    "AreaBatchBreakdown",
    "Simulator",
    "SimulationResult",
    "BatchSimulationResult",
    "TechnologyParameters",
    "DEFAULT_TECHNOLOGY",
]
