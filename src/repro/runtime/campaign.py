r"""The round-structured parallel campaign driver.

:meth:`repro.dse.engine.CampaignEngine.run_campaign` delegates here
whenever an ``executor`` or ``checkpoint`` is requested.  Each campaign
round is dispatched as a small DAG:

```
 screen:<w1>@round_r  screen:<w2>@round_r  ...  screen:<wN>@round_r
        \                  |                        /
         +------------- measure@round_r -----------+        (join node)
```

* every **screen job** (optionally) refits its workload's surrogate on the
  measurements accumulated so far, predicts the shared candidate pool and
  runs acquisition — all independent across workloads, so they run on the
  executor (module-level function, picklable for process pools);
* the **measure join** runs inline in the scheduling thread: it unions the
  per-workload selections in sorted index order and measures the union
  with one :meth:`~repro.sim.simulator.Simulator.run_sweep`, itself
  sharded over the same executor.

Determinism: the shared pool is proposed once per round in the parent (one
sampler-stream consumer, regardless of executor), screening is a pure
function of ``(surrogate, pool, accumulated measurements)``, the union is
sorted, and the sweep merges shards in fixed order — so thread/process
campaigns are **bitwise identical** to the
:class:`~repro.runtime.executors.SerialExecutor` reference, which in turn
reproduces the legacy single-round shared-pool path exactly
(``tests/test_runtime_equivalence.py``).

Rank-stable generators (``NSGA2Evolve`` and ``RandomPool``/``FocusedPool``
constructed with ``seed=``, and :class:`~repro.dse.portfolio.
StrategyPortfolio` over such arms) run a second mode, **per-workload
pools**: each screen job *proposes its own workload's pool inside the
worker* — drawing from keyed per-``(workload, round)`` RNG streams that
are a pure function of the generator's seed, so there is no shared
mutable stream sharding could reorder — and the measure join unions the
selected *configurations* (deduplicated in fixed workload order) before
the one sweep.  This is what admits surrogate-dependent strategies
(NSGA-II evolution needs the round's surrogate, which lives in the screen
job) to the parallel path; only surrogate-dependent generators with a
shared mutable stream (``NSGA2Evolve`` seeded with an existing numpy
``Generator``) remain rejected.  See ``docs/runtime.md`` and
``docs/portfolio.md``.

Resume: with a ``checkpoint`` path, every completed round is persisted
(:mod:`repro.runtime.checkpoint`); a restarted campaign replays only the
cheap sampling steps of completed rounds (keeping RNG streams aligned),
restores their measurements from disk, and continues with the first
unfinished round.  Every restored shared-pool round is cross-checked
against the replay — the stored union configurations must re-derive from
the replayed pool (and the initial samples must match outright), so an
engine rebuilt with the wrong seed raises :class:`CheckpointMismatchError`
instead of silently returning another campaign's results.  The *final*
round, when restored, additionally re-runs its (simulation-free)
screening step so ``predicted`` is populated and the stored selections
are verified — a fully resumed campaign is indistinguishable from an
uninterrupted one.  Per-workload-pool rounds have no parent-side stream
to advance: their generator seeds live in the campaign fingerprint (via
``fingerprint()``), strategy-portfolio campaigns additionally persist the
bandit-selected arm per workload (``RoundRecord.arms``) and a resume
replays the bandit from the restored quality histories and cross-checks
its selections, and the final restored round re-proposes and re-screens
exactly like the shared-pool mode.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from repro import obs
from repro.dse.acquisition import AcquisitionContext, ParetoRankAcquisition
from repro.runtime.checkpoint import (
    CampaignCheckpoint,
    CheckpointMismatchError,
    RoundRecord,
    campaign_fingerprint,
)
from repro.runtime.dag import Job, run_jobs
from repro.runtime.executors import Executor, SerialExecutor

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.dse.engine import CampaignEngine, CampaignResult


def _screen_workload(
    surrogate,
    features: np.ndarray,
    known_features: Optional[np.ndarray],
    known_targets: Optional[np.ndarray],
    objectives,
    acquisition,
    budget: int,
    refit: bool,
) -> tuple[list[int], np.ndarray]:
    """One workload's refit/predict/select step (runs on the executor).

    Module-level so process pools can pickle it.  With ``refit`` the fit
    happens on the *worker's* copy of the surrogate under a process
    executor — that is sound because every round refits from scratch on
    the full accumulated measurement set, so no fitted state needs to
    survive the round.
    """
    from repro.dse.engine import screen_predict

    if refit:
        with obs.span("campaign.refit"):
            surrogate.fit(known_features, known_targets)
    with obs.span("campaign.screen", candidates=len(features)):
        predicted = screen_predict(surrogate, features)
    predicted_min = objectives.to_minimization(predicted)
    context = AcquisitionContext(
        features=features,
        known_features=known_features,
        surrogate=surrogate,
        objectives=objectives,
    )
    with obs.span("campaign.select", budget=budget):
        selected = acquisition.select(predicted_min, budget, context)
    return [int(i) for i in selected], predicted


def _propose_screen_workload(
    proposer,
    context,
    surrogate,
    workload: str,
    round_index: int,
    known_features: Optional[np.ndarray],
    known_targets: Optional[np.ndarray],
    objectives,
    acquisition,
    budget: int,
    refit: bool,
) -> tuple[list, np.ndarray, int]:
    """One workload's refit/propose/screen/select step (per-workload pools).

    The per-workload-pool twin of :func:`_screen_workload`: the pool is
    proposed *inside the job* because rank-stable proposers draw it from a
    keyed pure stream (no shared state) and surrogate-dependent ones need
    the freshly refit surrogate.  Refit precedes proposal, mirroring
    :meth:`repro.dse.engine.CampaignEngine.run`.  *proposer* is the
    generator itself — or, for a strategy portfolio, the bandit-selected
    arm (the parent resolves :meth:`~repro.dse.engine.CandidateGenerator.
    proposer_for` before submitting, so workers never touch bandit state).
    Returns the selected configurations, the full-pool predictions and the
    pool size.
    """
    from repro.dse.engine import screen_predict

    if refit:
        with obs.span("campaign.refit", workload=workload, round=round_index):
            surrogate.fit(known_features, known_targets)
    with obs.span("campaign.propose", workload=workload, round=round_index):
        candidates = proposer.propose_for(context, surrogate, workload, round_index)
    features = context.encoder.encode_batch(candidates)
    with obs.span(
        "campaign.screen",
        workload=workload,
        round=round_index,
        candidates=len(candidates),
    ):
        predicted = screen_predict(surrogate, features)
    predicted_min = objectives.to_minimization(predicted)
    acquisition_context = AcquisitionContext(
        features=features,
        known_features=known_features,
        surrogate=surrogate,
        objectives=objectives,
    )
    with obs.span("campaign.select", workload=workload, budget=budget):
        selected = acquisition.select(predicted_min, budget, acquisition_context)
    return [candidates[int(i)] for i in selected], predicted, len(candidates)


def _describe_generator(generator) -> str:
    # Generators with proposal-shaping knobs beyond ``size`` (e.g.
    # FocusedPool's keep_fraction/coarse_levels) publish them through
    # ``fingerprint()`` so resuming a checkpoint with different knobs is
    # rejected instead of silently diverging.
    fingerprint = getattr(generator, "fingerprint", None)
    if callable(fingerprint):
        return str(fingerprint())
    size = getattr(generator, "size", None)
    suffix = f"(size={size})" if size is not None else ""
    return f"{type(generator).__name__}{suffix}"


def run_campaign_runtime(
    engine: "CampaignEngine",
    workloads: Sequence[str],
    surrogates,
    *,
    generator=None,
    acquisition=None,
    candidate_pool: int = 1000,
    simulation_budget: int = 20,
    rounds: int = 1,
    initial_samples: int = 0,
    refit: bool = False,
    executor: Optional[Executor] = None,
    checkpoint=None,
) -> "CampaignResult":
    """Run a cross-workload campaign through the parallel runtime.

    Same semantics per round as the engine's shared-pool fast path,
    generalised to multiple rounds (every round screens a fresh shared
    pool against all measurements so far and measures the selection
    union on all workloads), dispatched as DAG jobs on *executor* and
    checkpointed per round when *checkpoint* is given.

    With a persistent measurement store attached to the engine's
    simulator (``Simulator(store=...)``), every measure join reads
    through the store — rounds whose union was measured by an earlier
    campaign (or a killed run of this one) are served from disk without
    simulation, and the store is refreshed at each measure join so
    concurrent campaigns over the same store amortise each other
    mid-run.  Store hits are bitwise-identical to fresh simulation, so a
    warm campaign equals a cold one bitwise (the warm-start equivalence
    the store tests pin).
    """
    from repro.dse.engine import (
        CampaignResult,
        QualityTracker,
        RandomPool,
        WorkloadCampaignResult,
    )

    workloads = list(workloads)
    if not workloads:
        raise ValueError("run_campaign needs at least one workload")
    if simulation_budget < 1:
        raise ValueError("simulation_budget must be >= 1")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if initial_samples < 0:
        raise ValueError("initial_samples must be >= 0")
    if refit and initial_samples < 2:
        raise ValueError("refit=True needs initial_samples >= 2 to fit on")

    surrogate_for: Callable = (
        surrogates if callable(surrogates) else surrogates.__getitem__
    )
    executor = executor if executor is not None else SerialExecutor()
    generator = generator if generator is not None else RandomPool(candidate_pool)
    # Mode selection: rank-stable generators propose per workload inside the
    # screen jobs (keyed pure streams); everything else screens one shared
    # pool proposed in the parent.  Surrogate-dependent generators without
    # rank-stability have neither a shared pool to replay nor pure streams
    # to shard, so they cannot run (or resume) deterministically here.
    per_workload_pools = bool(getattr(generator, "rank_stable", False))
    if generator.surrogate_dependent and not per_workload_pools:
        raise ValueError(
            f"the parallel campaign runtime needs a surrogate-independent "
            f"or rank-stable generator; {type(generator).__name__} proposes "
            f"per workload from a shared mutable RNG stream — seed it with "
            f"an int (keyed per-(workload, round) streams) or use the "
            f"serial run_campaign path (executor=None, checkpoint=None)"
        )
    acquisition = acquisition if acquisition is not None else ParetoRankAcquisition()
    noise_std = getattr(engine.simulator, "noise_std", 0.0)
    if noise_std > 0 and (checkpoint is not None or executor.jobs > 1):
        # A checkpointed resume restores completed rounds without re-running
        # their sweeps, so the noise RNG stream would sit at the wrong
        # position for the first live round — the silent divergence the
        # resume guards exist to prevent.  (Parallel sweeps reject noise
        # anyway; raising here fails fast instead of mid-campaign.)
        raise ValueError(
            "checkpointed or parallel campaigns require a noise-free "
            "simulator (noise_std == 0): resume restores measurements "
            "without replaying the measurement-noise stream"
        )

    objectives = engine.objectives
    surrogate_by_workload = {workload: surrogate_for(workload) for workload in workloads}
    if refit:
        for workload, surrogate in surrogate_by_workload.items():
            if not surrogate.supports_fit:
                raise ValueError(
                    f"refit=True needs refittable surrogates, "
                    f"{type(surrogate).__name__} (workload {workload!r}) is not"
                )

    ckpt: Optional[CampaignCheckpoint] = None
    completed: dict[int, RoundRecord] = {}
    if checkpoint is not None:
        fingerprint = campaign_fingerprint(
            workloads=workloads,
            objective_names=objectives.names,
            maximize=objectives.maximize,
            simulation_budget=simulation_budget,
            rounds=rounds,
            initial_samples=initial_samples,
            refit=refit,
            generator=_describe_generator(generator),
            acquisition=type(acquisition).__name__,
            surrogates={
                workload: type(surrogate).__name__
                for workload, surrogate in surrogate_by_workload.items()
            },
        )
        ckpt = CampaignCheckpoint.resume_or_start(checkpoint, fingerprint)
        completed = ckpt.completed()
        # Completed rounds must be the contiguous prefix the driver writes;
        # anything else (hand-edited file, mixed campaigns) cannot be
        # resumed coherently.
        expected_prefix = ([-1] if initial_samples else []) + list(range(rounds))
        stored_order = [record.round_index for record in ckpt.rounds]
        if stored_order != expected_prefix[: len(stored_order)]:
            raise CheckpointMismatchError(
                f"{ckpt.path}: checkpointed rounds {stored_order} are not a "
                f"contiguous prefix of {expected_prefix}"
            )

    # -- accumulated campaign state -----------------------------------------
    simulated: list = []
    measured = {
        workload: np.empty((0, objectives.num_objectives), dtype=np.float64)
        for workload in workloads
    }
    trackers = {workload: QualityTracker(objectives) for workload in workloads}
    last_selected: dict[str, list[int]] = {workload: [] for workload in workloads}
    last_predicted: dict[str, Optional[np.ndarray]] = {
        workload: None for workload in workloads
    }
    candidates_screened = 0
    screened_by_workload = {workload: 0 for workload in workloads}
    arm_for = getattr(generator, "arm_for", None)

    def measure_union(union_configs: list) -> dict[str, np.ndarray]:
        with obs.span("campaign.measure", configs=len(union_configs)):
            obs.add_counter("campaign.union_configs", len(union_configs))
            # Pick up store segments appended by concurrent campaigns since
            # the last join (no-op without a store).
            refresh_store = getattr(engine.simulator, "refresh_store", None)
            if refresh_store is not None:
                refresh_store()
            sweep = engine.simulator.run_sweep(
                union_configs, workloads, executor=executor
            )
        return {
            workload: np.stack(
                [sweep[workload].objective(name) for name in objectives.names], axis=1
            )
            for workload in workloads
        }

    def absorb(record: RoundRecord) -> None:
        """Fold one (fresh or restored) round into the campaign state."""
        offset = len(simulated)
        simulated.extend(record.union_configs)
        for workload in workloads:
            measured[workload] = np.concatenate(
                [measured[workload], record.measured[workload]], axis=0
            )
            if record.round_index >= 0:
                last_selected[workload] = [
                    offset + int(position)
                    for position in record.selections[workload]
                ]
                entry = trackers[workload].record(
                    record.round_index,
                    objectives.to_minimization(measured[workload]),
                    len(simulated),
                )
                if record.arms:
                    entry.extras["arm"] = record.arms[workload]
                quality = {
                    "workload": workload,
                    "round": record.round_index,
                    "hypervolume": entry.hypervolume,
                    "pareto": entry.pareto_size,
                    "simulations": entry.simulations_total,
                }
                if record.arms:
                    quality["arm"] = record.arms[workload]
                obs.event("campaign.quality", **quality)
        if record.round_index >= 0:
            # Parent-side, in round order — fresh and restored rounds alike,
            # so a resumed bandit replays into the same state bitwise.
            for workload in workloads:
                generator.observe_round(
                    workload, record.round_index, trackers[workload]
                )

    # -- initial samples (round -1): measured on every workload ---------------
    if initial_samples:
        with obs.span("campaign.initial", samples=initial_samples):
            initial = engine.sampler.sample(initial_samples)
            record = completed.get(-1)
            if record is not None:
                if record.union_configs != initial:
                    raise CheckpointMismatchError(
                        "resumed initial samples differ from the checkpoint — "
                        "the engine must be reconstructed with the same seed "
                        "and sampler to resume a campaign"
                    )
                record = RoundRecord(-1, initial, record.selections, record.measured)
            else:
                record = RoundRecord(
                    round_index=-1,
                    union_configs=initial,
                    selections={workload: [] for workload in workloads},
                    measured=measure_union(initial),
                )
                if ckpt is not None:
                    ckpt.record_round(record)
            absorb(record)

    # -- rounds (per-workload-pool mode) ----------------------------------------
    from repro.dse.engine import ProposalContext

    proposal_context = ProposalContext(
        space=engine.space, objectives=objectives, encoder=engine.encoder
    )

    def config_key(config) -> tuple:
        return tuple(sorted(config.items()))

    def make_propose_jobs(round_index: int) -> list[Job]:
        known_features = (
            engine.encoder.encode_batch(simulated) if simulated else None
        )
        return [
            Job(
                f"screen:{workload}@round{round_index}",
                _propose_screen_workload,
                args=(
                    generator.proposer_for(workload, round_index),
                    proposal_context,
                    surrogate_by_workload[workload],
                    workload,
                    round_index,
                    known_features,
                    measured[workload] if refit else None,
                    objectives,
                    acquisition,
                    simulation_budget,
                    refit,
                ),
            )
            for workload in workloads
        ]

    def union_of(screen_jobs: list[Job], screen_results: dict):
        """Dedup-union the per-workload picks in fixed workload order.

        Workload order (not arrival order) keys the union, so the result is
        independent of the executor and of which screen job finished first.
        """
        union_configs: list = []
        position: dict[tuple, int] = {}
        selections: dict[str, list[int]] = {}
        pool_sizes: dict[str, int] = {}
        predicted: dict[str, np.ndarray] = {}
        for workload, job in zip(workloads, screen_jobs):
            picks, job_predicted, pool_size = screen_results[job.name]
            offsets = []
            for config in picks:
                key = config_key(config)
                if key not in position:
                    position[key] = len(union_configs)
                    union_configs.append(config)
                offsets.append(position[key])
            selections[workload] = offsets
            pool_sizes[workload] = int(pool_size)
            predicted[workload] = job_predicted
        return union_configs, selections, pool_sizes, predicted

    # -- rounds (shared-pool mode) ----------------------------------------------
    def make_screen_jobs(round_index: int, features: np.ndarray) -> list[Job]:
        known_features = (
            engine.encoder.encode_batch(simulated) if simulated else None
        )
        return [
            Job(
                f"screen:{workload}@round{round_index}",
                _screen_workload,
                args=(
                    surrogate_by_workload[workload],
                    features,
                    known_features,
                    measured[workload] if refit else None,
                    objectives,
                    acquisition,
                    simulation_budget,
                    refit,
                ),
            )
            for workload in workloads
        ]

    for round_index in range(rounds):
        with obs.span("campaign.round", round=round_index):
            obs.add_counter("campaign.rounds", 1)
            if per_workload_pools:
                # Bandit selections are resolved parent-side from the state
                # accumulated over rounds < round_index (arm_for is pure), so
                # workers never touch — and cannot race on — bandit state.
                arms_map = (
                    {
                        workload: arm_for(workload, round_index)
                        for workload in workloads
                    }
                    if arm_for is not None
                    else {}
                )
                record = completed.get(round_index)
                if record is not None:
                    if arm_for is not None and record.arms != arms_map:
                        raise CheckpointMismatchError(
                            f"replayed bandit arms for round {round_index} "
                            f"({arms_map}) do not match the checkpoint "
                            f"({record.arms}) — the campaign was resumed with a "
                            f"different portfolio or quality signal"
                        )
                    for workload in workloads:
                        screened_by_workload[workload] += record.pool_sizes.get(
                            workload, 0
                        )
                    if round_index == rounds - 1:
                        # Final round restored: re-propose and re-screen
                        # (simulation-free — proposals come from keyed pure
                        # streams) so `predicted` is populated and the stored
                        # union and selections verify.
                        screen_jobs = make_propose_jobs(round_index)
                        results = run_jobs(screen_jobs, executor)
                        union_configs, selections, _, predicted = union_of(
                            screen_jobs, results
                        )
                        if (
                            union_configs != record.union_configs
                            or selections != record.selections
                        ):
                            raise CheckpointMismatchError(
                                f"re-proposed pools for round {round_index} do "
                                f"not reproduce the checkpointed union — the "
                                f"campaign was resumed with different generator "
                                f"seeds, surrogates or acquisition settings"
                            )
                        for workload in workloads:
                            last_predicted[workload] = predicted[workload]
                    absorb(record)
                    continue

                screen_jobs = make_propose_jobs(round_index)

                def propose_measure_join(screen_results: dict):
                    union_configs, selections, pool_sizes, predicted = union_of(
                        screen_jobs, screen_results
                    )
                    return (
                        union_configs,
                        selections,
                        pool_sizes,
                        predicted,
                        measure_union(union_configs),
                    )

                measure_job = Job(
                    f"measure@round{round_index}",
                    propose_measure_join,
                    deps=screen_jobs,
                    inline=True,  # it fans its own sweep shards out to the executor
                    pass_results=True,
                )
                results = run_jobs([measure_job], executor)
                union_configs, selections, pool_sizes, predicted, union_rows = (
                    results[measure_job.name]
                )
                for workload in workloads:
                    last_predicted[workload] = predicted[workload]
                    screened_by_workload[workload] += pool_sizes[workload]
                record = RoundRecord(
                    round_index=round_index,
                    union_configs=union_configs,
                    selections=selections,
                    measured=union_rows,
                    arms=dict(arms_map),
                    pool_sizes=pool_sizes,
                )
                if ckpt is not None:
                    ckpt.record_round(record)
                absorb(record)
                continue

            # Propose even for restored rounds: the generator's RNG stream must
            # advance exactly as in an uninterrupted run.
            candidates = generator.propose(engine, None, round_index)
            candidates_screened += len(candidates)

            record = completed.get(round_index)
            if record is not None:
                replayed_union = [
                    candidates[index] for index in record.union_pool_indices
                ]
                if replayed_union != record.union_configs:
                    raise CheckpointMismatchError(
                        f"replayed candidate pool for round {round_index} does "
                        f"not reproduce the checkpointed union — the engine must "
                        f"be reconstructed with the same seed and sampler to "
                        f"resume a campaign"
                    )
                if round_index == rounds - 1:
                    # The campaign ends on a restored round: re-run its
                    # (simulation-free) screening so `predicted` is populated
                    # and the stored selections verify — a fully resumed
                    # campaign result is indistinguishable from an
                    # uninterrupted one.
                    screen_jobs = make_screen_jobs(
                        round_index, engine.encoder.encode_batch(candidates)
                    )
                    results = run_jobs(screen_jobs, executor)
                    position = {
                        index: offset
                        for offset, index in enumerate(record.union_pool_indices)
                    }
                    for workload, job in zip(workloads, screen_jobs):
                        selected, predicted = results[job.name]
                        if [
                            position.get(index) for index in selected
                        ] != record.selections[workload]:
                            raise CheckpointMismatchError(
                                f"re-screened selections for {workload!r} (round "
                                f"{round_index}) do not match the checkpoint — "
                                f"the campaign was resumed with different "
                                f"surrogates or acquisition settings"
                            )
                        last_predicted[workload] = predicted
                absorb(record)
                continue

            screen_jobs = make_screen_jobs(
                round_index, engine.encoder.encode_batch(candidates)
            )

            def measure_join(screen_results: dict) -> tuple[list[int], dict[str, np.ndarray]]:
                union = sorted(
                    {
                        int(index)
                        for selected, _ in screen_results.values()
                        for index in selected
                    }
                )
                return union, measure_union([candidates[index] for index in union])

            measure_job = Job(
                f"measure@round{round_index}",
                measure_join,
                deps=screen_jobs,
                inline=True,  # it fans its own sweep shards out to the executor
                pass_results=True,
            )
            results = run_jobs([measure_job], executor)

            union, union_rows = results[measure_job.name]
            position = {index: offset for offset, index in enumerate(union)}
            selections = {}
            for workload, job in zip(workloads, screen_jobs):
                selected, predicted = results[job.name]
                selections[workload] = [position[index] for index in selected]
                last_predicted[workload] = predicted
            record = RoundRecord(
                round_index=round_index,
                union_configs=[candidates[index] for index in union],
                selections=selections,
                measured=union_rows,
                union_pool_indices=union,
            )
            if ckpt is not None:
                ckpt.record_round(record)
            absorb(record)

    # -- assemble ---------------------------------------------------------------
    if per_workload_pools:
        # No shared pool: each workload screened its own pools, and the
        # campaign-level figure is their total.
        candidates_screened = sum(screened_by_workload.values())
    per_workload = {}
    for workload in workloads:
        tracker = trackers[workload]
        per_workload[workload] = WorkloadCampaignResult(
            workload=workload,
            objectives=objectives,
            simulated_configs=list(simulated),
            measured_objectives=measured[workload],
            pareto_indices=tracker.last_front_indices,
            simulations_used=len(simulated),
            candidates_screened=(
                screened_by_workload[workload]
                if per_workload_pools
                else candidates_screened
            ),
            rounds=tracker.rounds,
            selected_indices=last_selected[workload],
            predicted=last_predicted[workload],
        )
    return CampaignResult(
        per_workload=per_workload,
        objectives=objectives,
        candidates_screened=candidates_screened,
        total_simulations=len(simulated) * len(workloads),
    )
