"""The parallel campaign runtime.

Every fan-out in the reproduction — configurations x workloads simulation
sweeps, per-workload screening in a cross-workload campaign, episode
dataset generation — shares the same shape: independent units of work whose
results must be merged in a **fixed order** so the parallel output is
bitwise identical to the serial one.  This package owns that machinery
once:

* :mod:`repro.runtime.dag` — a small stdlib-only DAG job scheduler
  (:class:`~repro.runtime.dag.Job` with dependencies, cycle detection
  before execution, ancestor pruning) in the spirit of ``dawgz``;
* :mod:`repro.runtime.executors` — pluggable executors behind one tiny
  interface (:class:`~repro.runtime.executors.SerialExecutor`,
  :class:`~repro.runtime.executors.ThreadExecutor`,
  :class:`~repro.runtime.executors.ProcessExecutor` over
  :mod:`concurrent.futures`);
* :mod:`repro.runtime.sharding` — deterministic work splitting
  (:func:`~repro.runtime.sharding.split_evenly`,
  :func:`~repro.runtime.sharding.plan_sweep_shards`) whose merge order is a
  pure function of the inputs, never of scheduling;
* :mod:`repro.runtime.checkpoint` — the per-round campaign checkpoint
  (:class:`~repro.runtime.checkpoint.CampaignCheckpoint`) behind resumable
  cross-workload campaigns;
* :mod:`repro.runtime.campaign` — the round-structured campaign driver
  :meth:`~repro.dse.engine.CampaignEngine.run_campaign` always delegates
  to (imported lazily to avoid a cycle with :mod:`repro.dse.engine`).

The determinism contract, executor model and checkpoint format are
documented in ``docs/runtime.md``.
"""

from repro.runtime.checkpoint import CampaignCheckpoint, CheckpointMismatchError
from repro.runtime.dag import (
    CyclicDependencyError,
    Job,
    JobFailedError,
    collect_jobs,
    find_cycle,
    prune,
    run_jobs,
)
from repro.runtime.executors import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    resolve_executor,
)
from repro.runtime.sharding import plan_sweep_shards, split_evenly

__all__ = [
    "Job",
    "JobFailedError",
    "CyclicDependencyError",
    "collect_jobs",
    "find_cycle",
    "prune",
    "run_jobs",
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "resolve_executor",
    "split_evenly",
    "plan_sweep_shards",
    "CampaignCheckpoint",
    "CheckpointMismatchError",
]
