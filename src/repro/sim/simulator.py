"""The `Simulator` facade — the drop-in substitute for gem5 + McPAT.

A :class:`Simulator` evaluates configurations of the Table I design space on
a workload and returns IPC and power:

* the workload is first decomposed into SimPoint phases (cached per
  workload), mirroring the paper's "at most 30 clusters of ten million
  instructions" methodology;
* each phase is evaluated with the analytical performance and power models;
* results are aggregated with the SimPoint weights.

Labels are deterministic: the same configuration, workload and seed always
give the same bits, so datasets are exactly reproducible.

Two evaluation paths share those semantics:

* the **batch path** (:meth:`Simulator.run_sweep`) encodes a whole list of
  configurations into ``(n_configs,)`` parameter vectors once, evaluates the
  analytical models over NumPy arrays per SimPoint phase, and aggregates the
  per-phase matrix with the SimPoint weights as an elementwise multiply and
  an axis-0 sum.  This is the path every dataset/DSE consumer uses and the
  one that scales;
* the **scalar reference path** (:meth:`Simulator.run_scalar`) evaluates one
  configuration per call through the scalar model methods.  It is kept as
  the executable specification the batch path is tested against.

:meth:`Simulator.run_batch` is a one-workload sweep and :meth:`Simulator.run`
a batch of one, so single-pair lookups and batched sweeps produce identical
labels.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from repro.designspace.space import DesignSpace
from repro.designspace.spec import build_table1_space
from repro import obs
from repro.runtime.executors import SerialExecutor, resolve_broadcast
from repro.runtime.sharding import plan_sweep_shards
from repro.store import METRIC_COLUMNS, MeasurementStore, measurement_fingerprint
from repro.sim.performance import PerformanceModel, PerformanceResult
from repro.sim.power import PowerModel, PowerResult
from repro.sim.technology import DEFAULT_TECHNOLOGY, TechnologyParameters
from repro.utils.rng import SeedLike, as_rng
from repro.workloads.characteristics import WorkloadProfile
from repro.workloads.simpoints import SimPointSet, generate_simpoints
from repro.workloads.spec2017 import WorkloadSuite, spec2017_suite

#: Parameter produced by :meth:`Simulator.encode_batch` for the categorical
#: branch-predictor choice (`True` selects ``TournamentBP``).
IS_TOURNAMENT_KEY = "is_tournament"


def _evaluate_missing_task(
    simulator: "Simulator",
    profile: WorkloadProfile,
    params: dict[str, np.ndarray],
    trace: bool,
) -> tuple[np.ndarray, "obs.WorkerTelemetry | None"]:
    """Executor task for one evaluation shard (module-level so
    :class:`~repro.runtime.executors.ProcessExecutor` can pickle it).

    *simulator* may arrive as a broadcast handle: :meth:`Simulator.run_sweep`
    broadcasts the simulator once per sweep, so a process pool pickles it
    once per worker instead of once per shard task.

    The parent has already resolved the cache/store tiers, so *params*
    holds only configurations that must be freshly simulated: the task is
    a pure ``_evaluate_encoded`` call, which is what makes parent-side
    counter accounting exact under every executor kind.  When *trace* is
    set the evaluation runs under an :mod:`repro.obs` capture buffer that
    rides back on the return value; when clear the second element is
    ``None`` and nothing is recorded.
    """
    resolved = resolve_broadcast(simulator)
    if not trace:
        return resolved._evaluate_missing(profile, params), None
    return obs.run_captured(resolved._evaluate_missing, profile, params)


@dataclass(frozen=True)
class SimulationResult:
    """Aggregated metrics of one simulated (configuration, workload) pair."""

    workload: str
    ipc: float
    power_w: float
    area_mm2: float
    bips: float
    #: Energy per instruction in nano-joules; handy for DSE objectives.
    energy_per_instruction_nj: float
    #: Number of SimPoint phases aggregated into this result.
    num_phases: int

    def as_dict(self) -> dict[str, float]:
        """Flat dictionary view (used when exporting datasets)."""
        return {
            "ipc": self.ipc,
            "power_w": self.power_w,
            "area_mm2": self.area_mm2,
            "bips": self.bips,
            "energy_per_instruction_nj": self.energy_per_instruction_nj,
        }


@dataclass(frozen=True)
class BatchSimulationResult:
    """Aggregated metrics of many configurations on one workload.

    Metric fields are ``(n_configs,)`` arrays whose row order follows the
    configuration list handed to :meth:`Simulator.run_batch`.  The container
    also behaves as a sequence of :class:`SimulationResult` (``len``,
    indexing, iteration), so legacy per-config consumers keep working.
    """

    workload: str
    ipc: np.ndarray
    power_w: np.ndarray
    area_mm2: np.ndarray
    bips: np.ndarray
    energy_per_instruction_nj: np.ndarray
    #: Number of SimPoint phases aggregated into every row.
    num_phases: int

    def __len__(self) -> int:
        return int(self.ipc.shape[0])

    def __getitem__(self, index: int) -> SimulationResult:
        """Scalar view of the *index*-th configuration's result."""
        i = int(index)
        return SimulationResult(
            workload=self.workload,
            ipc=float(self.ipc[i]),
            power_w=float(self.power_w[i]),
            area_mm2=float(self.area_mm2[i]),
            bips=float(self.bips[i]),
            energy_per_instruction_nj=float(self.energy_per_instruction_nj[i]),
            num_phases=self.num_phases,
        )

    def __iter__(self) -> Iterator[SimulationResult]:
        for i in range(len(self)):
            yield self[i]

    def as_dict(self) -> dict[str, np.ndarray]:
        """Flat dictionary of metric vectors (used when exporting datasets)."""
        return {
            "ipc": self.ipc,
            "power_w": self.power_w,
            "area_mm2": self.area_mm2,
            "bips": self.bips,
            "energy_per_instruction_nj": self.energy_per_instruction_nj,
        }

    def objective(self, name: str) -> np.ndarray:
        """Metric vector by objective name.

        Accepts the simulator's metric names plus the dataset-layer alias
        ``"power"`` for ``"power_w"``.
        """
        if name == "power":
            name = "power_w"
        try:
            return self.as_dict()[name]
        except KeyError:
            raise KeyError(
                f"unknown objective {name!r}; available: "
                f"{sorted(self.as_dict()) + ['power']}"
            ) from None


class Simulator:
    """Evaluate design points on workloads (gem5 + McPAT substitute).

    Parameters
    ----------
    space:
        The design space being explored; defaults to the Table I space.
    suite:
        The workload suite; defaults to the 17 SPEC CPU 2017 profiles.
    technology:
        Technology constants shared by the performance and power models.
    simpoint_phases:
        Maximum number of SimPoint phases per workload.  ``1`` disables the
        phase decomposition (each workload is a single profile) which makes
        unit tests fast and exactly analytical.
    seed:
        Seed controlling phase generation.
    evaluation_cache:
        When true, every aggregated (configuration, workload) result is
        memoized by value, so re-simulating a configuration an active-DSE
        loop has already measured is free.

        **Concurrency invariant**: the cache dict is only ever *written*
        by the parent between evaluation calls — never from inside a
        parallel section.  Every :meth:`run_sweep` (and so every
        :meth:`run_batch`) walks the cache/store tiers parent-side
        (:meth:`_lookup_tiers`) for all of its workloads, scatters only the
        missing configurations to its executor (the
        :class:`~repro.runtime.executors.SerialExecutor` by default), and
        merges the worker rows into the parent cache deterministically, in
        shard order, after all tasks join.  Because that one sequence runs
        under every executor kind, ``evaluation_count`` /
        ``store_hit_count`` do not depend on the executor, and the returned
        metric arrays are bitwise identical either way.
    store:
        Optional persistent measurement store (a
        :class:`repro.store.MeasurementStore` or a path to one) — the
        durable tier *below* the in-memory cache.  Lookups read through
        ``in-memory dict -> store -> simulate``; freshly simulated rows are
        batch-flushed to the store after each :meth:`run_sweep` join (one
        atomic segment per flush).  Store hits produce bitwise-identical
        metric rows and are counted in ``store_hit_count``, not
        ``evaluation_count`` — so a warm campaign over a populated store
        reports ``evaluation_count == 0`` while returning exactly the cold
        campaign's results.  Pickled simulators (ProcessExecutor workers)
        reopen the store read-only from its path, so shard tasks see every
        measurement flushed before the parallel section.
    """

    def __init__(
        self,
        space: Optional[DesignSpace] = None,
        suite: Optional[WorkloadSuite] = None,
        *,
        technology: TechnologyParameters = DEFAULT_TECHNOLOGY,
        simpoint_phases: int = 8,
        seed: SeedLike = 2017,
        evaluation_cache: bool = False,
        store: Optional[Union[MeasurementStore, str, os.PathLike]] = None,
    ) -> None:
        if simpoint_phases < 1:
            raise ValueError(f"simpoint_phases must be >= 1, got {simpoint_phases}")
        self.space = space if space is not None else build_table1_space()
        self.suite = suite if suite is not None else spec2017_suite()
        self.technology = technology
        self.simpoint_phases = simpoint_phases
        self._phase_seed = int(as_rng(seed).integers(0, 2**31 - 1))
        self.performance_model = PerformanceModel(technology)
        self.power_model = PowerModel(technology)
        self._simpoint_cache: dict[str, SimPointSet] = {}
        #: Per-workload memoized (weights, phase profiles) pair used by the
        #: batch path, so repeated sweeps skip the SimPointSet unpacking.
        self._phase_table_cache: dict[str, tuple[np.ndarray, tuple[WorkloadProfile, ...]]] = {}
        #: Keyed (workload, config-values) -> metric row cache; see
        #: ``evaluation_cache`` above.
        self._evaluation_cache: Optional[dict[tuple, np.ndarray]] = (
            {} if evaluation_cache else None
        )
        #: Number of (config, phase) evaluations performed; exposed so
        #: experiments can report simulation budgets like the paper does.
        #: Evaluation-cache hits are free and therefore not counted.
        self.evaluation_count = 0
        #: Number of configurations served from the persistent store tier
        #: (not counted in ``evaluation_count``; the gap between the two is
        #: what the warm-start equivalence tests pin).
        self.store_hit_count = 0
        self._store: Optional[MeasurementStore] = None
        #: Rows simulated since the last flush but not yet in the store;
        #: written as one atomic segment per run_sweep join.
        self._store_pending: list[tuple[str, tuple, np.ndarray]] = []
        self._store_pending_keys: set[tuple[str, tuple]] = set()
        if store is not None:
            self.attach_store(store)

    # -- persistent store ------------------------------------------------------
    @property
    def store(self) -> Optional[MeasurementStore]:
        """The attached persistent measurement store, if any."""
        return self._store

    def measurement_fingerprint(self) -> dict:
        """Fingerprint identifying this simulator's measurement stream.

        Covers the design-space spec, the metric row layout, the SimPoint
        settings (phase count and derived phase seed) and the technology
        constants — exactly the fields that must agree
        for two simulators to produce interchangeable metric rows.  Used to
        match simulators to measurement stores.
        """
        return measurement_fingerprint(
            space=self.space,
            metrics=METRIC_COLUMNS,
            simpoint_phases=self.simpoint_phases,
            phase_seed=self._phase_seed,
            technology=self.technology,
        )

    def attach_store(
        self, store: Union[MeasurementStore, str, os.PathLike]
    ) -> MeasurementStore:
        """Attach a persistent measurement store (path or open store).

        A path is opened (and created if needed) under this simulator's
        :meth:`measurement_fingerprint`; an already-open store must match
        that fingerprint (:class:`repro.store.StoreMismatchError`
        otherwise).  At most one store per simulator.  Returns the attached
        store.
        """
        if self._store is not None:
            raise ValueError("a measurement store is already attached")
        if isinstance(store, (str, os.PathLike)):
            store = MeasurementStore(store, self.measurement_fingerprint())
        else:
            store.require_fingerprint(self.measurement_fingerprint())
        self._store = store
        return store

    def refresh_store(self) -> int:
        """Pick up store segments appended by concurrent writers.

        Called by the campaign runtime at round boundaries so concurrent
        campaigns over the same store amortise each other mid-run.  Returns
        the number of new records loaded (0 without a store).
        """
        if self._store is None:
            return 0
        added = self._store.refresh()
        obs.add_counter("store.refresh_records", added)
        return added

    def _flush_store(self) -> None:
        """Write pending freshly-simulated rows as one atomic segment."""
        if self._store is None or not self._store_pending:
            return
        with obs.span("store.flush", records=len(self._store_pending)):
            self._store.put_batch(self._store_pending)
        obs.add_counter("store.flushes", 1)
        obs.add_counter("store.flushed_records", len(self._store_pending))
        self._store_pending.clear()
        self._store_pending_keys.clear()

    # -- workload handling ---------------------------------------------------
    def workload_names(self) -> list[str]:
        """Names of all workloads known to the simulator."""
        return self.suite.names

    def _resolve_workload(self, workload: "str | WorkloadProfile") -> WorkloadProfile:
        if isinstance(workload, WorkloadProfile):
            return workload
        return self.suite[workload]

    def simpoints_for(self, workload: "str | WorkloadProfile") -> SimPointSet:
        """Return (and cache) the SimPoint decomposition of a workload."""
        profile = self._resolve_workload(workload)
        cached = self._simpoint_cache.get(profile.name)
        if cached is not None:
            return cached
        if self.simpoint_phases == 1:
            from repro.workloads.simpoints import SimPoint

            simpoints = SimPointSet(
                workload_name=profile.name,
                points=(SimPoint(index=0, weight=1.0, profile=profile),),
            )
        else:
            # Per-workload deterministic seed so adding workloads does not
            # change the phases of existing ones.  zlib.crc32 (not Python's
            # hash(), which is randomized per process) keeps phased labels
            # reproducible across processes without pinning PYTHONHASHSEED.
            name_hash = zlib.crc32(profile.name.encode("utf-8"))
            seed = (name_hash ^ self._phase_seed) & 0x7FFFFFFF
            simpoints = generate_simpoints(
                profile, max_clusters=self.simpoint_phases, seed=seed
            )
        self._simpoint_cache[profile.name] = simpoints
        return simpoints

    def _phase_table(
        self, profile: WorkloadProfile
    ) -> tuple[np.ndarray, tuple[WorkloadProfile, ...]]:
        """Memoized (weights, phase profiles) view of a workload's SimPoints."""
        cached = self._phase_table_cache.get(profile.name)
        if cached is not None:
            return cached
        simpoints = self.simpoints_for(profile)
        table = (simpoints.weights, tuple(point.profile for point in simpoints))
        self._phase_table_cache[profile.name] = table
        return table

    # -- batch encoding --------------------------------------------------------
    def encode_batch(
        self, configs: Sequence[Mapping]
    ) -> tuple[dict[str, np.ndarray], list[tuple]]:
        """Validate and encode configurations into model-ready vectors.

        Returns
        -------
        params:
            Mapping from parameter name to an ``(n_configs,)`` ``float64``
            vector, plus the boolean vector :data:`IS_TOURNAMENT_KEY`
            encoding the categorical branch-predictor choice.
        keys:
            One hashable per configuration (its values in declaration
            order); used by the evaluation cache.
        """
        validated = [self.space.validate(config) for config in configs]
        names = self.space.parameter_names
        keys = [tuple(cfg[name] for name in names) for cfg in validated]
        params: dict[str, np.ndarray] = {
            name: np.array([cfg[name] for cfg in validated], dtype=np.float64)
            for name in names
            if name != "branch_predictor"
        }
        params[IS_TOURNAMENT_KEY] = np.array(
            [cfg["branch_predictor"] == "TournamentBP" for cfg in validated], dtype=bool
        )
        return params, keys

    # -- evaluation ------------------------------------------------------------
    def run(
        self, config: Mapping, workload: "str | WorkloadProfile"
    ) -> SimulationResult:
        """Simulate one configuration on one workload.

        Thin wrapper over :meth:`run_batch` with a single-element batch, so
        scalar lookups and batched sweeps produce identical labels.
        """
        return self.run_batch([config], workload)[0]

    def run_batch(
        self,
        configs: Sequence[Mapping],
        workload: "str | WorkloadProfile",
        *,
        executor=None,
    ) -> BatchSimulationResult:
        """Simulate a list of configurations on one workload, vectorized.

        A one-workload :meth:`run_sweep`: the configurations are encoded
        once into ``(n_configs,)`` parameter vectors, every SimPoint phase
        is a handful of NumPy array operations, and configurations the
        cache/store tiers hold are not re-simulated.  With an *executor*
        of width > 1 the missing configurations are split into
        ``executor.jobs`` contiguous shards evaluated in parallel and merged
        in shard order — bitwise identical to the serial result (see
        ``docs/runtime.md`` for the determinism contract).
        """
        (result,) = self.run_sweep(configs, [workload], executor=executor).values()
        return result

    # -- parallel evaluation -----------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle support for :class:`~repro.runtime.executors.ProcessExecutor`.

        The keyed evaluation cache is **not** shipped to worker processes:
        each worker starts with an empty per-worker cache (shipping a large
        parent cache with every shard task would dwarf the work), and the
        parent merges the freshly evaluated rows into its own cache after
        the join — see the ``evaluation_cache`` invariant in the class
        docstring.

        An attached measurement store *is* shipped, but only as its path:
        workers reopen it read-only (see
        :meth:`repro.store.MeasurementStore.__getstate__`), so shard tasks
        see every measurement flushed before the parallel section.  Pending
        unflushed rows stay with the parent — workers never write the store.
        """
        state = self.__dict__.copy()
        if state["_evaluation_cache"] is not None:
            state["_evaluation_cache"] = {}
        state["_store_pending"] = []
        state["_store_pending_keys"] = set()
        return state

    def _lookup_tiers(
        self, profile_name: str, keys: list[tuple], metric_rows: np.ndarray
    ) -> tuple[list[int], int]:
        """Serve *keys* from the cache/store tiers, filling *metric_rows*.

        Read-only over shared state.  Returns the indices that missed both
        tiers (and must be simulated) plus the persistent-store hit count.
        :meth:`run_sweep` calls this parent-side *before* scattering, so
        only genuinely missing configurations travel to workers and the
        tier accounting is exact under every executor kind.
        """
        n = len(keys)
        if self._evaluation_cache is not None:
            missing = []
            for i, key in enumerate(keys):
                cached = self._evaluation_cache.get((profile_name, key))
                if cached is None:
                    missing.append(i)
                else:
                    metric_rows[i] = cached
        else:
            missing = list(range(n))
        store_hits = 0
        if missing and self._store is not None:
            still_missing = []
            for i in missing:
                stored = self._store.get(profile_name, keys[i])
                if stored is None:
                    still_missing.append(i)
                else:
                    metric_rows[i] = stored
                    store_hits += 1
            missing = still_missing
        return missing, store_hits

    def _evaluate_missing(
        self, profile: WorkloadProfile, params: dict[str, np.ndarray]
    ) -> np.ndarray:
        """Freshly simulate already-encoded configurations (no tier reads).

        The evaluation core every scattered shard task runs.  *profile* is
        the resolved workload, so a profile outside the suite evaluates
        like a suite member.
        """
        weights, phases = self._phase_table(profile)
        n = params["core_frequency_ghz"].shape[0]
        with obs.span("sim.evaluate", workload=profile.name, configs=n):
            return self._evaluate_encoded(params, weights, phases)

    def _absorb_rows(
        self,
        profile: WorkloadProfile,
        keys: list[tuple],
        metric_rows: np.ndarray,
        count: int,
        store_hits: int = 0,
    ) -> BatchSimulationResult:
        """Parent-side merge: install rows in the cache, count, assemble.

        The single place shared state is mutated — :meth:`run_sweep` ends
        here after its join, with *metric_rows* already in configuration
        order.  Rows whose key the store does not hold yet are queued for
        the next :meth:`_flush_store`.
        """
        self.evaluation_count += count
        self.store_hit_count += store_hits
        num_phases = len(self._phase_table(profile)[1])
        fresh = count // num_phases if num_phases else 0
        obs.add_counter("sim.configs", len(keys))
        obs.add_counter("sim.fresh", fresh)
        obs.add_counter("sim.cache_hits", len(keys) - fresh - store_hits)
        obs.add_counter("sim.store_hits", store_hits)
        obs.add_counter("sim.evaluations", count)
        cache = self._evaluation_cache
        if cache is not None:
            for i, key in enumerate(keys):
                cache[(profile.name, key)] = metric_rows[i]
        if self._store is not None and not self._store.read_only:
            for i, key in enumerate(keys):
                store_key = (profile.name, key)
                if (
                    self._store.get(profile.name, key) is None
                    and store_key not in self._store_pending_keys
                ):
                    self._store_pending_keys.add(store_key)
                    self._store_pending.append(
                        (profile.name, key, metric_rows[i].copy())
                    )
        return BatchSimulationResult(
            workload=profile.name,
            ipc=metric_rows[:, 0].copy(),
            power_w=metric_rows[:, 1].copy(),
            area_mm2=metric_rows[:, 2].copy(),
            bips=metric_rows[:, 3].copy(),
            energy_per_instruction_nj=metric_rows[:, 4].copy(),
            num_phases=len(self._phase_table(profile)[1]),
        )

    def _evaluate_encoded(
        self,
        params: dict[str, np.ndarray],
        weights: np.ndarray,
        phases: tuple[WorkloadProfile, ...],
    ) -> np.ndarray:
        """Vectorized evaluation core: encoded params -> ``(n, 5)`` metric rows.

        Row layout: ``ipc, power_w, area_mm2, bips, energy_per_instruction_nj``.
        """
        n = params["core_frequency_ghz"].shape[0]
        num_phases = len(phases)
        ipc_phases = np.empty((num_phases, n), dtype=np.float64)
        power_phases = np.empty((num_phases, n), dtype=np.float64)

        # Area only depends on the configuration; compute it once and share
        # it across phases (the scalar path recomputes it per phase).
        area = self.power_model.area_batch(params)
        for row, phase_profile in enumerate(phases):
            performance = self.performance_model.evaluate_batch(params, phase_profile)
            power = self.power_model.evaluate_batch(
                params, phase_profile, performance, area=area
            )
            ipc_phases[row] = performance.ipc
            power_phases[row] = power.total_power_w

        # Weighted SimPoint aggregation as an elementwise multiply + axis-0
        # reduction rather than ``weights @ phases``: BLAS gemv picks
        # different kernels by column count, so the matmul's per-config
        # result could change in ULPs with the batch size — breaking the
        # bitwise partition-invariance contract (a config's labels must not
        # depend on which shard or batch it was evaluated in; see
        # docs/runtime.md).  The elementwise form touches each column
        # independently, so any split of the batch reproduces the full
        # batch exactly.
        ipc = (weights[:, None] * ipc_phases).sum(axis=0)
        power_w = (weights[:, None] * power_phases).sum(axis=0)

        frequency = params["core_frequency_ghz"]
        bips = ipc * frequency
        # Energy per instruction: power / instruction throughput.
        energy_nj = power_w / np.maximum(bips, 1e-9)
        return np.stack([ipc, power_w, area.total, bips, energy_nj], axis=1)

    def run_sweep(
        self,
        configs: Sequence[Mapping],
        workloads: Optional[Sequence["str | WorkloadProfile"]] = None,
        *,
        executor=None,
    ) -> dict[str, BatchSimulationResult]:
        """Simulate the same configurations on many workloads.

        The cross-workload layout every dataset in the reproduction uses
        (Fig. 2 compares label distributions over a common configuration
        set).  Defaults to every workload the simulator knows.  The
        configurations are validated and encoded once, not per workload.

        The one evaluation body, always run on an executor (the
        :class:`~repro.runtime.executors.SerialExecutor` when *executor* is
        ``None``).  The parent walks the cache/store tiers for every
        workload first, then the missing configurations are split into
        deterministic ``(workload, configuration shard)`` tasks
        (:func:`repro.runtime.sharding.plan_sweep_shards`); per-workload
        results are merged in shard order after all tasks join, so the
        sweep is bitwise identical under every executor.  A width-1
        executor runs in the parent.
        """
        targets = list(workloads) if workloads is not None else self.workload_names()
        params, keys = self.encode_batch(configs)
        profiles = [self._resolve_workload(workload) for workload in targets]
        if executor is None or executor.jobs == 1:
            executor = SerialExecutor()
        with obs.span("sim.run_sweep", workloads=len(profiles), configs=len(keys)):
            # Tier walk for every workload before any absorb: counts then
            # never depend on the executor.
            lookups = []
            for profile in profiles:
                self._phase_table(profile)  # warm before pickling / fan-out
                metric_rows = np.empty((len(keys), 5), dtype=np.float64)
                missing, store_hits = self._lookup_tiers(
                    profile.name, keys, metric_rows
                )
                lookups.append((profile, metric_rows, missing, store_hits))
            simulator_ref = executor.broadcast(self)
            trace = obs.trace_active()
            tasks = []
            for profile, metric_rows, missing, _ in lookups:
                index = np.asarray(missing, dtype=np.int64)
                for shard in plan_sweep_shards(
                    len(missing), len(profiles), executor.jobs
                ):
                    sub = index[shard.start : shard.stop]
                    fresh = {name: values[sub] for name, values in params.items()}
                    future = executor.submit(
                        _evaluate_missing_task, simulator_ref, profile, fresh, trace
                    )
                    tasks.append((metric_rows, sub, future))
            # Join in shard order; shared state (cache, counters) changes
            # only in _absorb_rows, after every task has joined.
            for metric_rows, sub, future in tasks:
                rows, telemetry = future.result()
                metric_rows[sub] = rows
                obs.splice(telemetry)
            results = {
                profile.name: self._absorb_rows(
                    profile,
                    keys,
                    metric_rows,
                    len(self._phase_table(profile)[1]) * len(missing),
                    store_hits,
                )
                for profile, metric_rows, missing, store_hits in lookups
            }
            self._flush_store()
        return results

    def run_scalar(
        self, config: Mapping, workload: "str | WorkloadProfile"
    ) -> SimulationResult:
        """Reference scalar path: one configuration through the scalar models.

        Kept as the executable specification of :meth:`run_batch` — the
        equivalence tests assert that the vectorized path reproduces these
        labels, and the throughput benchmark measures its speed-up against
        this loop.  Semantically identical to :meth:`run`.
        """
        profile = self._resolve_workload(workload)
        simpoints = self.simpoints_for(profile)
        cfg = self.space.validate(config)

        ipc_values = []
        power_values = []
        area = None
        for point in simpoints:
            performance: PerformanceResult = self.performance_model.evaluate(
                cfg, point.profile, self.space
            )
            power: PowerResult = self.power_model.evaluate(
                cfg, point.profile, self.space, performance
            )
            ipc_values.append(performance.ipc)
            power_values.append(power.total_power_w)
            area = power.area_mm2
            self.evaluation_count += 1

        weights = simpoints.weights
        ipc = float(np.dot(weights, ipc_values))
        power_w = float(np.dot(weights, power_values))

        frequency = float(cfg["core_frequency_ghz"])
        bips = ipc * frequency
        # Energy per instruction: power / instruction throughput.
        energy_nj = power_w / max(bips, 1e-9)
        return SimulationResult(
            workload=profile.name,
            ipc=ipc,
            power_w=power_w,
            area_mm2=float(area),
            bips=bips,
            energy_per_instruction_nj=float(energy_nj),
            num_phases=len(simpoints),
        )

    def ipc(self, config: Mapping, workload: "str | WorkloadProfile") -> float:
        """Convenience accessor for the IPC of one run."""
        return self.run(config, workload).ipc

    def power(self, config: Mapping, workload: "str | WorkloadProfile") -> float:
        """Convenience accessor for the total power of one run."""
        return self.run(config, workload).power_w
