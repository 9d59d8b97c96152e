"""Top-level performance model: combines frontend, cache and backend models.

The model follows the interval-analysis view of an out-of-order core: the
steady-state CPI is the sum of

* the base CPI the backend can sustain (``1 / core_ipc``),
* the branch-misprediction CPI (front-end flushes),
* the memory-stall CPI (long-latency misses not hidden by the window).

IPC is the reciprocal.  All parameter interactions the WAM algorithm is
supposed to discover (width x ROB, caches x memory-boundedness, predictor x
branchiness, frequency x memory latency) are genuinely present in this model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.designspace.space import DesignSpace
from repro.sim.backend import BackendModel, BackendModelBatchResult, BackendModelResult
from repro.sim.branch import BranchModelBatchResult, BranchModelResult, BranchPredictorModel
from repro.sim.cache import CacheHierarchyBatchResult, CacheHierarchyModel, CacheHierarchyResult
from repro.sim.technology import DEFAULT_TECHNOLOGY, TechnologyParameters
from repro.workloads.characteristics import WorkloadProfile


@dataclass(frozen=True)
class PerformanceResult:
    """Performance metrics and their breakdown for one (config, workload) pair."""

    ipc: float
    cpi: float
    frequency_ghz: float
    #: Billions of instructions per second — IPC times frequency.
    bips: float
    branch: BranchModelResult
    cache: CacheHierarchyResult
    backend: BackendModelResult


@dataclass(frozen=True)
class PerformanceBatchResult:
    """Vectorized companion of :class:`PerformanceResult`.

    Scalar metric fields become ``(n_configs,)`` arrays and the per-model
    breakdowns become the corresponding ``*BatchResult`` containers.
    """

    ipc: np.ndarray
    cpi: np.ndarray
    frequency_ghz: np.ndarray
    bips: np.ndarray
    branch: BranchModelBatchResult
    cache: CacheHierarchyBatchResult
    backend: BackendModelBatchResult


class PerformanceModel:
    """Analytical IPC model over the Table I design space."""

    def __init__(self, technology: TechnologyParameters = DEFAULT_TECHNOLOGY) -> None:
        self.technology = technology
        self.branch_model = BranchPredictorModel(technology)
        self.cache_model = CacheHierarchyModel(technology)
        self.backend_model = BackendModel()

    def evaluate(
        self, config: Mapping, workload: WorkloadProfile, space: DesignSpace
    ) -> PerformanceResult:
        """Evaluate IPC for a configuration of *space* running *workload*."""
        cfg = space.validate(config)
        frequency = float(cfg["core_frequency_ghz"])

        cache = self.cache_model.evaluate(
            l1_size_kb=int(cfg["l1i_size_kb"]),
            l1_assoc=int(cfg["l1_assoc"]),
            l2_size_kb=int(cfg["l2_size_kb"]),
            l2_assoc=int(cfg["l2_assoc"]),
            cacheline_bytes=int(cfg["cacheline_bytes"]),
            frequency_ghz=frequency,
            workload=workload,
        )
        branch = self.branch_model.evaluate(
            predictor=str(cfg["branch_predictor"]),
            ras_size=int(cfg["ras_size"]),
            btb_size=int(cfg["btb_size"]),
            pipeline_width=int(cfg["pipeline_width"]),
            workload=workload,
        )
        backend = self.backend_model.evaluate(
            pipeline_width=int(cfg["pipeline_width"]),
            rob_size=int(cfg["rob_size"]),
            inst_queue_size=int(cfg["inst_queue_size"]),
            int_rf_size=int(cfg["int_rf_size"]),
            fp_rf_size=int(cfg["fp_rf_size"]),
            load_queue_size=int(cfg["load_queue_size"]),
            store_queue_size=int(cfg["store_queue_size"]),
            int_alu_count=int(cfg["int_alu_count"]),
            int_muldiv_count=int(cfg["int_muldiv_count"]),
            fp_alu_count=int(cfg["fp_alu_count"]),
            fp_muldiv_count=int(cfg["fp_muldiv_count"]),
            fetch_buffer_bytes=int(cfg["fetch_buffer_bytes"]),
            fetch_queue_uops=int(cfg["fetch_queue_uops"]),
            cache=cache,
            workload=workload,
        )

        cpi = (1.0 / backend.core_ipc) + branch.cpi_contribution + backend.memory_stall_cpi
        ipc = 1.0 / cpi
        return PerformanceResult(
            ipc=float(ipc),
            cpi=float(cpi),
            frequency_ghz=frequency,
            bips=float(ipc * frequency),
            branch=branch,
            cache=cache,
            backend=backend,
        )

    def evaluate_batch(
        self, params: Mapping[str, np.ndarray], workload: WorkloadProfile
    ) -> PerformanceBatchResult:
        """Evaluate IPC for many configurations of *workload* at once.

        Parameters
        ----------
        params:
            Mapping from Table I parameter name to an ``(n_configs,)``
            ``float64`` vector, plus the derived boolean vector
            ``"is_tournament"`` for the categorical predictor choice (see
            :meth:`repro.sim.simulator.Simulator.encode_batch`).  Values must
            already be validated members of the design space — unlike
            :meth:`evaluate`, no per-config validation happens here.
        workload:
            A single workload (or SimPoint phase) profile shared by every
            configuration in the batch.
        """
        frequency = params["core_frequency_ghz"]

        cache = self.cache_model.evaluate_batch(
            l1_size_kb=params["l1i_size_kb"],
            l1_assoc=params["l1_assoc"],
            l2_size_kb=params["l2_size_kb"],
            l2_assoc=params["l2_assoc"],
            cacheline_bytes=params["cacheline_bytes"],
            frequency_ghz=frequency,
            workload=workload,
        )
        branch = self.branch_model.evaluate_batch(
            is_tournament=params["is_tournament"],
            ras_size=params["ras_size"],
            btb_size=params["btb_size"],
            pipeline_width=params["pipeline_width"],
            workload=workload,
        )
        backend = self.backend_model.evaluate_batch(
            pipeline_width=params["pipeline_width"],
            rob_size=params["rob_size"],
            inst_queue_size=params["inst_queue_size"],
            int_rf_size=params["int_rf_size"],
            fp_rf_size=params["fp_rf_size"],
            load_queue_size=params["load_queue_size"],
            store_queue_size=params["store_queue_size"],
            int_alu_count=params["int_alu_count"],
            int_muldiv_count=params["int_muldiv_count"],
            fp_alu_count=params["fp_alu_count"],
            fp_muldiv_count=params["fp_muldiv_count"],
            fetch_buffer_bytes=params["fetch_buffer_bytes"],
            fetch_queue_uops=params["fetch_queue_uops"],
            cache=cache,
            workload=workload,
        )

        cpi = (1.0 / backend.core_ipc) + branch.cpi_contribution + backend.memory_stall_cpi
        ipc = 1.0 / cpi
        return PerformanceBatchResult(
            ipc=ipc,
            cpi=cpi,
            frequency_ghz=frequency,
            bips=ipc * frequency,
            branch=branch,
            cache=cache,
            backend=backend,
        )
