r"""The round-structured campaign driver.

:meth:`repro.dse.engine.CampaignEngine.run_campaign` always runs here, on
a :class:`~repro.runtime.executors.SerialExecutor` unless it is given
another executor.  Each campaign round is dispatched as a small DAG:

```
 screen:<w1>@round_r  screen:<w2>@round_r  ...  screen:<wN>@round_r
        \                  |                        /
         +------------- measure@round_r -----------+        (join node)
```

* every **screen job** runs one workload's refit → (propose) → screen →
  select step: it optionally refits the workload's surrogate on the
  measurements accumulated so far, predicts the round's candidate pool
  and runs acquisition.  The jobs are independent across workloads, so
  they run on the executor (module-level function, picklable for process
  pools);
* the **measure join** runs inline in the scheduling thread: it unions the
  per-workload selections in a fixed order and measures the union with
  one :meth:`~repro.sim.simulator.Simulator.run_sweep`, itself sharded
  over the same executor.

A round's pool comes from one of two sources:

* a **shared pool**, for surrogate-independent generators (the default
  ``RandomPool``, ``FocusedPool`` with a fixed profile): proposed and
  encoded once per round in the parent — one sampler-stream consumer,
  whatever the executor — and screened by every workload;
* **per-workload pools**, for rank-stable generators (``NSGA2Evolve`` and
  ``RandomPool``/``FocusedPool`` constructed with ``seed=``, and
  :class:`~repro.dse.portfolio.StrategyPortfolio` over such arms): each
  screen job proposes its own workload's pool after the refit, from
  keyed per-``(workload, round)`` RNG streams that are a pure function of
  the generator's seed, so there is no shared mutable stream sharding
  could reorder.  This is what admits surrogate-dependent strategies
  (NSGA-II evolution needs the round's surrogate, which lives in the
  screen job).

Either way the round's union is the workloads' picks — workloads in
order, each in acquisition order — deduplicated by configuration.  A
one-workload campaign therefore measures its picks in acquisition order,
which makes it the single-workload exploration loop too: it is pinned
bitwise against the pre-engine loops of :mod:`repro.dse.reference`.
Surrogate-dependent generators with a shared mutable stream fit neither
source and are rejected.

Determinism: screening is a pure function of ``(surrogate, pool,
accumulated measurements)``, the union order is fixed by the inputs, and
the sweep merges shards in fixed order — so every executor gives the
**bitwise identical** campaign (``tests/test_campaign_invariance.py``).
See ``docs/runtime.md`` and ``docs/portfolio.md``.

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
    workload: str,
    round_index: int,
    surrogate,
    features: Optional[np.ndarray],
    proposer,
    context,
    known_features: Optional[np.ndarray],
    known_targets: Optional[np.ndarray],
    acquisition,
    budget: int,
    refit: bool,
) -> tuple[list[int], Optional[list], np.ndarray]:
    """One workload's refit → (propose) → screen → select step.

    Runs on the executor; module-level so process pools can pickle it.
    *features* is the round's shared pool, proposed and encoded once in
    the parent.  When it is ``None`` the job proposes its own pool through
    *proposer* — the rank-stable generator, or the arm the parent resolved
    with :meth:`~repro.dse.engine.CandidateGenerator.proposer_for`, so
    workers never touch bandit state — after the refit, because
    surrogate-dependent proposers need the fitted surrogate.  Under a process
    executor the fit happens on the worker's copy of the surrogate, which
    is sound because every round refits from scratch on the full
    accumulated measurement set.

    Returns the selected pool indices, the selected configurations
    (``None`` for a shared pool, whose configurations the parent holds)
    and the full-pool predictions.
    """
    from repro.dse.engine import screen_predict

    if refit:
        with obs.span("campaign.refit", workload=workload, round=round_index):
            surrogate.fit(known_features, known_targets)
    candidates = None
    if features is None:
        with obs.span("campaign.propose", workload=workload, round=round_index):
            candidates = proposer.propose_for(context, surrogate, workload, round_index)
        features = context.encoder.encode_batch(candidates)
    with obs.span(
        "campaign.screen",
        workload=workload,
        round=round_index,
        candidates=len(features),
    ):
        predicted = screen_predict(surrogate, features)
    predicted_min = context.objectives.to_minimization(predicted)
    acquisition_context = AcquisitionContext(
        features=features,
        known_features=known_features,
        surrogate=surrogate,
        objectives=context.objectives,
    )
    with obs.span(
        "campaign.select", workload=workload, round=round_index, budget=budget
    ):
        selected = acquisition.select(predicted_min, budget, acquisition_context)
    selected = [int(i) for i in selected]
    picks = None if candidates is None else [candidates[i] for i in selected]
    return selected, picks, predicted


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
    """Run a cross-workload campaign round by round.

    The driver behind :meth:`repro.dse.engine.CampaignEngine.run_campaign`:
    every round screens a fresh pool per workload against all measurements
    so far and measures the selection union on all workloads, dispatched
    as DAG jobs on *executor* (:class:`SerialExecutor` when ``None``) and
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
        ProposalContext,
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
    # Pool source: rank-stable generators propose per workload inside the
    # screen jobs (keyed pure streams); everything else screens one shared
    # pool proposed in the parent.  Surrogate-dependent generators without
    # rank-stability have neither a shared pool to replay nor pure streams
    # to shard, so they cannot run (or resume) deterministically here.
    shared_pool = not getattr(generator, "rank_stable", False)
    if generator.surrogate_dependent and shared_pool:
        raise ValueError(
            f"run_campaign needs a surrogate-independent or rank-stable "
            f"generator; {type(generator).__name__} proposes per workload "
            f"from a shared mutable RNG stream — seed it with an int (keyed "
            f"per-(workload, round) streams)"
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
    screened = {workload: 0 for workload in workloads}
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

    # -- rounds -----------------------------------------------------------------
    proposal_context = ProposalContext(
        space=engine.space, objectives=objectives, encoder=engine.encoder
    )

    def make_screen_jobs(round_index: int, candidates: Optional[list]) -> list[Job]:
        features = (
            None if candidates is None else engine.encoder.encode_batch(candidates)
        )
        known_features = (
            engine.encoder.encode_batch(simulated) if simulated else None
        )
        return [
            Job(
                f"screen:{workload}@round{round_index}",
                _screen_workload,
                args=(
                    workload,
                    round_index,
                    surrogate_by_workload[workload],
                    features,
                    None
                    if shared_pool
                    else generator.proposer_for(workload, round_index),
                    proposal_context,
                    known_features,
                    measured[workload] if refit else None,
                    acquisition,
                    simulation_budget,
                    refit,
                ),
            )
            for workload in workloads
        ]

    def round_record(
        round_index: int,
        candidates: Optional[list],
        arms: dict[str, str],
        outcomes: list[tuple],
    ) -> RoundRecord:
        """The round's union and pick positions.

        The union is the workloads' picks — workloads in order, each in
        acquisition order — deduplicated by configuration: a function of
        the inputs, never of which screen job finished first.  A shared
        pool's picks come from *candidates*, and each union configuration
        keeps the pool index it was picked at, which a resume replays
        against.  ``measured`` is left empty for the measure join to fill.
        """
        record = RoundRecord(round_index, [], {}, {}, arms=arms)
        position: dict[tuple, int] = {}
        for workload, (selected, picks, predicted) in zip(workloads, outcomes):
            if picks is None:
                picks = [candidates[index] for index in selected]
            offsets = []
            for index, config in zip(selected, picks):
                key = tuple(sorted(config.items()))
                if key not in position:
                    position[key] = len(record.union_configs)
                    record.union_configs.append(config)
                    if candidates is not None:
                        record.union_pool_indices.append(index)
                offsets.append(position[key])
            record.selections[workload] = offsets
            record.pool_sizes[workload] = len(predicted)
        return record

    for round_index in range(rounds):
        with obs.span("campaign.round", round=round_index):
            obs.add_counter("campaign.rounds", 1)
            # Parent-side, before any job runs: the shared stream advances
            # exactly as in an uninterrupted run (restored rounds included),
            # and bandit arms resolve from the state of rounds < round_index
            # (arm_for is pure), so workers never touch bandit state.
            candidates = None
            if shared_pool:
                with obs.span("campaign.propose", round=round_index):
                    candidates = generator.propose_for(engine, None, None, round_index)
            arms = (
                {workload: arm_for(workload, round_index) for workload in workloads}
                if arm_for is not None
                else {}
            )
            record = completed.get(round_index)
            if record is not None:
                if shared_pool and [
                    candidates[index] for index in record.union_pool_indices
                ] != record.union_configs:
                    raise CheckpointMismatchError(
                        f"replayed candidate pool for round {round_index} does "
                        f"not reproduce the checkpointed union — the engine must "
                        f"be reconstructed with the same seed and sampler to "
                        f"resume a campaign"
                    )
                if record.arms != arms:
                    raise CheckpointMismatchError(
                        f"replayed bandit arms for round {round_index} "
                        f"({arms}) do not match the checkpoint "
                        f"({record.arms}) — the campaign was resumed with a "
                        f"different portfolio or quality signal"
                    )
                if round_index == rounds - 1:
                    # The campaign ends on a restored round: re-run its
                    # (simulation-free) propose/screen steps so `predicted`
                    # is populated and the stored union and selections
                    # verify — a fully resumed campaign result is
                    # indistinguishable from an uninterrupted one.
                    screen_jobs = make_screen_jobs(round_index, candidates)
                    results = run_jobs(screen_jobs, executor)
                    outcomes = [results[job.name] for job in screen_jobs]
                    replayed = round_record(round_index, candidates, arms, outcomes)
                    if (
                        replayed.union_configs != record.union_configs
                        or replayed.selections != record.selections
                    ):
                        raise CheckpointMismatchError(
                            f"re-screened round {round_index} does not "
                            f"reproduce the checkpointed union and selections "
                            f"— the campaign was resumed with different "
                            f"generator seeds, surrogates or acquisition "
                            f"settings"
                        )
                    for workload, (_, _, predicted) in zip(workloads, outcomes):
                        last_predicted[workload] = predicted
            else:
                screen_jobs = make_screen_jobs(round_index, candidates)

                def measure_join(screen_results: dict) -> RoundRecord:
                    fresh = round_record(
                        round_index,
                        candidates,
                        arms,
                        [screen_results[job.name] for job in screen_jobs],
                    )
                    fresh.measured = measure_union(fresh.union_configs)
                    return fresh

                measure_job = Job(
                    f"measure@round{round_index}",
                    measure_join,
                    deps=screen_jobs,
                    inline=True,  # it fans its own sweep shards out to the executor
                    pass_results=True,
                )
                results = run_jobs([measure_job], executor)
                record = results[measure_job.name]
                for workload, job in zip(workloads, screen_jobs):
                    last_predicted[workload] = results[job.name][2]
                if ckpt is not None:
                    ckpt.record_round(record)
            for workload in workloads:
                screened[workload] += record.pool_sizes[workload]
            absorb(record)

    # -- assemble ---------------------------------------------------------------
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
            candidates_screened=screened[workload],
            rounds=tracker.rounds,
            selected_indices=last_selected[workload],
            predicted=last_predicted[workload],
        )
    return CampaignResult(
        per_workload=per_workload,
        objectives=objectives,
        total_simulations=len(simulated) * len(workloads),
    )
