"""The unified DSE campaign engine.

Every exploration loop has the same skeleton — generate candidates, score
them with a surrogate, simulate the chosen few, track the measured Pareto
front.  :class:`CampaignEngine` owns that skeleton once:

* **objective handling** — :class:`ObjectiveSet` holds names and maximize
  flags and converts measured/predicted matrices to minimisation form;
* **candidate generation** — pluggable :class:`CandidateGenerator`
  (:class:`RandomPool`, :class:`FocusedPool` for attention-guided pruned
  pools, :class:`NSGA2Evolve` reusing the :mod:`repro.dse.nsga2`
  machinery);
* **acquisition scoring** — pluggable
  :class:`~repro.dse.acquisition.AcquisitionStrategy`;
* **quality bookkeeping** — a :class:`QualityTracker` that records front
  size and hypervolume per round (exact 2-D sweep; seeded Monte-Carlo
  estimate for 3+ objectives, with the sample count recorded alongside;
  single-objective campaigns still warn explicitly instead of silently
  reporting zero).

:meth:`CampaignEngine.run_campaign` is the one exploration loop, and it
always runs the round loop of :mod:`repro.runtime.campaign`: each round a
candidate pool is sampled and encoded once (or, for rank-stable
generators, proposed per workload from keyed streams), each workload
screens it with its own multi-objective surrogate (one stacked forward
when the surrogate supports it), and the union of all selections is
measured with a single :meth:`~repro.sim.simulator.Simulator.run_sweep` —
the batched cross-workload path ``MetaDSE.explore`` and the ``dse`` CLI
subcommand drive, benchmarked in
``benchmarks/test_dse_campaign_throughput.py``.  A single-workload
exploration (``repro explore``) is a one-workload campaign; its
pre-engine loops survive in :mod:`repro.dse.reference`, pinned bitwise by
``tests/test_dse_engine_equivalence.py``.  The executor only sets the
throughput: every executor gives the same campaign.
"""

from __future__ import annotations

import abc
import warnings
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from repro.designspace.encoding import OrdinalEncoder
from repro.designspace.sampling import BaseSampler, FocusedSampler, RandomSampler
from repro.designspace.space import Configuration, DesignSpace
from repro.dse.acquisition import AcquisitionStrategy
from repro.dse.pareto import (
    fast_pareto_front,
    hypervolume_2d,
    to_minimization,
)
from repro.dse.surrogates import MultiObjectiveSurrogate
from repro.sim.simulator import Simulator
from repro.utils.rng import SeedLike


# -- objectives -------------------------------------------------------------------
@dataclass(frozen=True)
class ObjectiveSet:
    """Named objectives with their optimisation sense.

    The single owner of the ``maximize`` convention: everywhere else in the
    engine, objective matrices are already in *minimisation* form (produced
    by :meth:`to_minimization`).
    """

    names: tuple[str, ...]
    maximize: tuple[bool, ...]

    def __post_init__(self) -> None:
        if not self.names:
            raise ValueError("ObjectiveSet needs at least one objective")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate objective names: {self.names}")
        if len(self.maximize) != len(self.names):
            raise ValueError("one maximize flag per objective name is required")

    @classmethod
    def from_names(
        cls,
        names: Sequence[str],
        maximize: Optional[Mapping[str, bool]] = None,
    ) -> "ObjectiveSet":
        """Build from names with the repository's default senses.

        Unspecified objectives follow the convention the explorers always
        used: ``ipc`` is maximised, everything else minimised.
        """
        names = tuple(names)
        maximize = maximize or {}
        flags = tuple(bool(maximize.get(name, name == "ipc")) for name in names)
        return cls(names=names, maximize=flags)

    @property
    def num_objectives(self) -> int:
        return len(self.names)

    def flags(self) -> list[bool]:
        """Maximize flags as the plain list the Pareto helpers accept."""
        return list(self.maximize)

    def to_minimization(self, values: np.ndarray) -> np.ndarray:
        """Negate the maximised columns so every objective is minimised."""
        return to_minimization(values, self.flags())


# -- candidate generation ------------------------------------------------------------
class CandidateGenerator(abc.ABC):
    """Propose candidate configurations for one screening round."""

    #: Whether proposals depend on the surrogate.  Such a generator cannot
    #: propose one shared cross-workload pool, so
    #: :meth:`CampaignEngine.run_campaign` accepts it only when it is also
    #: :attr:`rank_stable`.
    surrogate_dependent: bool = False

    #: Whether :meth:`propose_for` is a pure function of the generator's
    #: construction arguments and ``(workload, round_index)`` — invariant to
    #: the executor, the shard count, and any proposals already made for
    #: other workloads or rounds.  Rank-stable generators draw from keyed
    #: per-``(workload, round)`` RNG streams (:func:`repro.utils.rng.
    #: keyed_rng`) instead of a shared mutable one, which is what qualifies
    #: them for the campaign's per-workload-pool rounds
    #: (``docs/runtime.md``) even when they are surrogate-dependent.
    rank_stable: bool = False

    @abc.abstractmethod
    def propose_for(
        self,
        engine: "CampaignEngine",
        surrogate: Optional[MultiObjectiveSurrogate],
        workload: Optional[str],
        round_index: int,
    ) -> list[Configuration]:
        """Return the candidate pool for ``(workload, round_index)``.

        ``workload`` is ``None`` for the shared pool a campaign proposes
        once per round (with ``surrogate=None``) for every workload;
        rank-stable generators key their RNG stream on it.  ``engine`` may
        be a full :class:`CampaignEngine` or the light
        :class:`ProposalContext` the parallel runtime ships to workers.
        """

    def proposer_for(
        self, workload: Optional[str], round_index: int
    ) -> "CandidateGenerator":
        """The generator that actually proposes for ``(workload, round)``.

        Plain generators return themselves; :class:`~repro.dse.portfolio.
        StrategyPortfolio` returns the bandit-selected arm so the parallel
        runtime can ship only that arm (not the mutable bandit state) to
        worker processes.
        """
        return self

    def observe_round(
        self, workload: str, round_index: int, tracker: "QualityTracker"
    ) -> None:
        """Hook called after *tracker* records ``(workload, round_index)``.

        The default is a no-op; the strategy portfolio uses it to fold the
        round's quality slope into its bandit state.  Callers must invoke it
        in round order, once per ``(workload, round)``.
        """


@dataclass
class ProposalContext:
    """The slice of :class:`CampaignEngine` that candidate generation needs.

    The campaign runtime proposes keyed pools inside its screen jobs;
    shipping the full engine would drag the simulator through pickling, so
    the jobs get this context instead.  It duck-types the engine attributes
    every generator's :meth:`~CandidateGenerator.propose_for` touches
    (``space``, ``objectives``, ``encoder``; ``sampler`` stays ``None``
    because only rank-stable generators — which never touch the shared
    stream — propose inside the jobs).
    """

    space: DesignSpace
    objectives: ObjectiveSet
    encoder: OrdinalEncoder
    sampler: Optional[BaseSampler] = None


class RandomPool(CandidateGenerator):
    """Uniform random candidate pool (the classic screening pool).

    By default every proposal draws from the engine's shared sampler stream
    (or an explicit ``sampler=``), so successive rounds and workloads see
    fresh but order-dependent pools.  With ``seed=`` the generator instead
    draws each pool from a keyed per-``(workload, round)`` stream derived
    from that seed — a pure function of ``(seed, workload, round_index)``,
    which makes it :attr:`~CandidateGenerator.rank_stable` and eligible as a
    strategy-portfolio arm.
    """

    def __init__(
        self,
        size: int,
        *,
        sampler: Optional[BaseSampler] = None,
        seed: SeedLike = None,
    ) -> None:
        from repro.utils.rng import seed_entropy

        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        if seed is not None and sampler is not None:
            raise ValueError("pass either seed= (keyed streams) or sampler=, not both")
        self.size = size
        self.sampler = sampler
        self.seed_entropy = None if seed is None else seed_entropy(seed)
        self.rank_stable = self.seed_entropy is not None

    def fingerprint(self) -> str:
        """Checkpoint descriptor: every knob that changes the proposals."""
        mode = (
            "shared-stream"
            if self.seed_entropy is None
            else f"entropy={self.seed_entropy}"
        )
        return f"RandomPool(size={self.size}, {mode})"

    def propose_for(
        self,
        engine: "CampaignEngine",
        surrogate: Optional[MultiObjectiveSurrogate],
        workload: Optional[str],
        round_index: int,
    ) -> list[Configuration]:
        if self.seed_entropy is None:
            sampler = self.sampler if self.sampler is not None else engine.sampler
        else:
            from repro.utils.rng import keyed_rng

            sampler = RandomSampler(
                engine.space,
                seed=keyed_rng(
                    self.seed_entropy,
                    workload if workload is not None else "",
                    round_index,
                ),
            )
        return sampler.sample(self.size)


class FocusedPool(CandidateGenerator):
    """Attention-guided pruned candidate pool (``docs/pruning.md``).

    Samples each round's pool through a
    :class:`~repro.designspace.sampling.FocusedSampler` built from a
    per-parameter importance profile, so the budget lands on the parameters
    the surrogates' attention says matter.  The profile comes from one of
    two sources, checked in order:

    1. **live refocus** (``refocus=True``, the default): when the round's
       surrogate exposes ``attention_profile(features)`` (e.g.
       :class:`~repro.dse.surrogates.StackedPredictorSurrogate`), a fixed
       probe pool (``probe_size`` configurations from a private
       ``probe_seed`` stream) is encoded and profiled, so the focus tracks
       the surrogate as it refits between rounds;
    2. **fixed profile**: the ``profile=`` passed at construction — an
       :class:`~repro.meta.wam.ImportanceProfile` or raw score array.  This
       is the form shared-pool campaigns use (their pool is proposed with
       ``surrogate=None``), which keeps the generator
       surrogate-independent and therefore eligible for the shared pool
       and checkpoint resume.

    ``keep_fraction=1.0`` skips profiling entirely and draws from the
    engine's sampler exactly like :class:`RandomPool` — **bitwise**, the
    repository's standard fast-path equivalence (pinned by
    ``tests/test_dse_pruning.py``).  ``fingerprint()`` feeds the runtime's
    checkpoint descriptor so resuming with different focus knobs is
    rejected instead of silently diverging.

    As with :class:`RandomPool`, passing ``seed=`` switches pool sampling
    to keyed per-``(workload, round)`` streams, making the generator
    :attr:`~CandidateGenerator.rank_stable` (portfolio-arm eligible).
    """

    def __init__(
        self,
        size: int,
        *,
        keep_fraction: float = 1.0,
        coarse_levels: int = 1,
        profile=None,
        probe_size: int = 64,
        probe_seed: SeedLike = 0,
        refocus: bool = True,
        sampler: Optional[BaseSampler] = None,
        seed: SeedLike = None,
    ) -> None:
        from repro.utils.rng import seed_entropy

        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        if not 0.0 < keep_fraction <= 1.0:
            raise ValueError(
                f"keep_fraction must be in (0, 1], got {keep_fraction}"
            )
        if coarse_levels < 1:
            raise ValueError(f"coarse_levels must be >= 1, got {coarse_levels}")
        if probe_size < 1:
            raise ValueError(f"probe_size must be >= 1, got {probe_size}")
        if seed is not None and sampler is not None:
            raise ValueError("pass either seed= (keyed streams) or sampler=, not both")
        self.size = size
        self.keep_fraction = float(keep_fraction)
        self.coarse_levels = int(coarse_levels)
        self.profile = profile
        self.probe_size = int(probe_size)
        self.probe_seed = probe_seed
        self.refocus = bool(refocus)
        self.sampler = sampler
        self.seed_entropy = None if seed is None else seed_entropy(seed)
        self.rank_stable = self.seed_entropy is not None

    def fingerprint(self) -> str:
        """Checkpoint descriptor: every knob that changes the proposals."""
        mode = (
            "shared-stream"
            if self.seed_entropy is None
            else f"entropy={self.seed_entropy}"
        )
        return (
            f"FocusedPool(size={self.size}, "
            f"keep_fraction={self.keep_fraction}, "
            f"coarse_levels={self.coarse_levels}, "
            f"probe_size={self.probe_size}, refocus={self.refocus}, {mode})"
        )

    def _scores(
        self,
        engine: "CampaignEngine",
        surrogate: Optional[MultiObjectiveSurrogate],
    ):
        if (
            self.refocus
            and surrogate is not None
            and hasattr(surrogate, "attention_profile")
        ):
            probe = RandomSampler(engine.space, seed=self.probe_seed).sample(
                self.probe_size
            )
            return surrogate.attention_profile(engine.encoder.encode_batch(probe))
        if self.profile is not None:
            return self.profile
        raise ValueError(
            "FocusedPool with keep_fraction < 1.0 needs an importance source: "
            "pass profile=... at construction, or propose with a surrogate "
            "exposing attention_profile() and refocus=True"
        )

    def propose_for(
        self,
        engine: "CampaignEngine",
        surrogate: Optional[MultiObjectiveSurrogate],
        workload: Optional[str],
        round_index: int,
    ) -> list[Configuration]:
        if self.seed_entropy is not None:
            from repro.utils.rng import keyed_rng

            # Keyed mode: a fresh stream per (workload, round) — the scores
            # themselves are already deterministic (fixed profile, or a probe
            # drawn from the private probe_seed stream).
            rng = keyed_rng(
                self.seed_entropy,
                workload if workload is not None else "",
                round_index,
            )
            if self.keep_fraction >= 1.0:
                return RandomSampler(engine.space, seed=rng).sample(self.size)
            focused = FocusedSampler(
                engine.space,
                self._scores(engine, surrogate),
                keep_fraction=self.keep_fraction,
                coarse_levels=self.coarse_levels,
                seed=rng,
            )
            return focused.sample(self.size)
        sampler = self.sampler if self.sampler is not None else engine.sampler
        if self.keep_fraction >= 1.0:
            # Degenerate focus: consume the shared stream exactly like
            # RandomPool so existing campaigns reproduce bitwise.
            return sampler.sample(self.size)
        focused = FocusedSampler(
            engine.space,
            self._scores(engine, surrogate),
            keep_fraction=self.keep_fraction,
            coarse_levels=self.coarse_levels,
            seed=sampler.rng,
        )
        return focused.sample(self.size)


def screen_predict(
    surrogate: MultiObjectiveSurrogate, features: np.ndarray
) -> np.ndarray:
    """Screen a candidate pool: the ``(n, m)`` predicted objective matrix.

    The one screening entry point of the engine and the runtime, so every
    campaign's screen step is a single, separately traceable call.
    Memory-bounded streaming is the surrogate's own business:
    :class:`~repro.dse.surrogates.StackedPredictorSurrogate` streams its
    inference pass over kernel-tile row blocks.
    """
    return surrogate.predict(features)


class _SharedPrediction:
    """Memoize one surrogate call per unique feature matrix (by identity).

    :class:`~repro.dse.nsga2.NSGA2Explorer` evaluates per-objective
    callables against the same feature matrix object; caching on identity
    turns its m surrogate calls per generation into one batched call.
    """

    def __init__(self, surrogate: MultiObjectiveSurrogate) -> None:
        self.surrogate = surrogate
        self._features: Optional[np.ndarray] = None
        self._predicted: Optional[np.ndarray] = None

    def column(self, index: int) -> Callable[[np.ndarray], np.ndarray]:
        def predict(features: np.ndarray) -> np.ndarray:
            if self._features is not features:
                self._predicted = self.surrogate.predict(features)
                self._features = features
            return self._predicted[:, index]

        return predict


class NSGA2Evolve(CandidateGenerator):
    """Evolve the candidate pool with NSGA-II over the surrogate.

    Reuses :class:`~repro.dse.nsga2.NSGA2Explorer` wholesale; the final
    population (already concentrated around the predicted front) becomes
    the screening pool.  Every proposal evolves from a fresh generator
    keyed on ``(seed, workload, round_index)`` (``seed`` is an int,
    ``SeedSequence`` or ``None``; a ``numpy`` ``Generator`` raises
    ``TypeError``), so the pool for one workload-round is a pure function
    of those three values — invariant to the executor, the shard count,
    and any evolution already run for other workloads.  That makes it
    :attr:`~CandidateGenerator.rank_stable`, which the campaign runtime and
    the strategy portfolio require of surrogate-dependent generators.
    """

    surrogate_dependent = True
    rank_stable = True

    def __init__(
        self,
        *,
        population_size: int = 64,
        generations: int = 20,
        seed: SeedLike = 0,
        **nsga2_kwargs,
    ) -> None:
        from repro.utils.rng import seed_entropy

        self.population_size = population_size
        self.generations = generations
        self.nsga2_kwargs = nsga2_kwargs
        self.seed_entropy = seed_entropy(seed)

    def fingerprint(self) -> str:
        """Checkpoint descriptor: every knob that changes the proposals."""
        extras = "".join(
            f", {key}={self.nsga2_kwargs[key]!r}" for key in sorted(self.nsga2_kwargs)
        )
        return (
            f"NSGA2Evolve(population_size={self.population_size}, "
            f"generations={self.generations}, entropy={self.seed_entropy}{extras})"
        )

    def _evolve(
        self,
        engine: "CampaignEngine",
        surrogate: MultiObjectiveSurrogate,
        rng: np.random.Generator,
    ) -> list[Configuration]:
        from repro.dse.nsga2 import NSGA2Explorer

        shared = _SharedPrediction(surrogate)
        predictors = {
            name: shared.column(column)
            for column, name in enumerate(engine.objectives.names)
        }
        explorer = NSGA2Explorer(
            engine.space,
            population_size=self.population_size,
            generations=self.generations,
            seed=rng,
            **self.nsga2_kwargs,
        )
        result = explorer.explore(
            predictors,
            maximize=dict(zip(engine.objectives.names, engine.objectives.maximize)),
        )
        return result.configs

    def propose_for(
        self,
        engine: "CampaignEngine",
        surrogate: Optional[MultiObjectiveSurrogate],
        workload: Optional[str],
        round_index: int,
    ) -> list[Configuration]:
        from repro.utils.rng import keyed_rng

        if surrogate is None:
            raise ValueError("NSGA2Evolve needs a surrogate to evolve against")
        rng = keyed_rng(
            self.seed_entropy,
            workload if workload is not None else "",
            round_index,
        )
        return self._evolve(engine, surrogate, rng)


# -- quality tracking ------------------------------------------------------------
@dataclass
class CampaignRound:
    """Measured-front snapshot after one acquisition round."""

    round_index: int
    simulations_total: int
    pareto_size: int
    hypervolume: float
    #: Monte-Carlo sample count behind ``hypervolume`` (``0`` = exact 2-D
    #: sweep, or no indicator at all when ``hypervolume`` is NaN).
    hypervolume_samples: int = 0
    #: Free-form strategy annotations — the strategy portfolio records the
    #: bandit-selected arm name under ``"arm"`` (``docs/portfolio.md``).
    extras: dict = field(default_factory=dict)


def front_hypervolume(
    measured_min: np.ndarray, front_indices: Optional[np.ndarray] = None
) -> float:
    """Hypervolume of the measured front w.r.t. a nadir + 10 % margin point.

    Only defined for two objectives; callers must handle other arities
    (:class:`QualityTracker` warns and records NaN).  *front_indices* lets
    a caller that already computed the Pareto front pass it in instead of
    recomputing it.
    """
    if front_indices is None:
        front_indices = fast_pareto_front(measured_min)
    front = measured_min[front_indices]
    nadir = measured_min.max(axis=0)
    span = np.maximum(measured_min.max(axis=0) - measured_min.min(axis=0), 1e-12)
    reference = nadir + 0.1 * span
    return hypervolume_2d(front, reference)


class QualityTracker:
    """Per-round front-size / hypervolume bookkeeping shared by all loops.

    The hypervolume indicator is the exact two-objective area (IPC vs
    power) when the campaign has two objectives; for **three or more**
    objectives (e.g. ipc/power/area) it records a seeded Monte-Carlo
    estimate (:func:`repro.dse.quality.monte_carlo_hypervolume`) and notes
    the sample count in :attr:`CampaignRound.hypervolume_samples` so the
    number is never mistaken for an exact sweep.  A single-objective
    campaign has no hypervolume trade-off at all: the tracker emits a
    ``RuntimeWarning`` once and records ``NaN`` — never a silent ``0.0``,
    which the pre-engine active-learning loop used to report and which is
    indistinguishable from "found nothing".  See the scope note in
    ``docs/benchmarks.md``.
    """

    def __init__(
        self, objectives: ObjectiveSet, *, mc_samples: Optional[int] = None
    ) -> None:
        from repro.dse.quality import MC_HYPERVOLUME_SAMPLES

        self.objectives = objectives
        #: Samples per Monte-Carlo estimate for 3+-objective campaigns.
        self.mc_samples = mc_samples if mc_samples is not None else MC_HYPERVOLUME_SAMPLES
        self.rounds: list[CampaignRound] = []
        #: Pareto indices of the most recently recorded round (reused by the
        #: engine for the final result instead of recomputing the front).
        self.last_front_indices: Optional[np.ndarray] = None
        self._warned = False

    def hypervolume(
        self, measured_min: np.ndarray, front_indices: Optional[np.ndarray] = None
    ) -> float:
        """Hypervolume indicator alone; see :meth:`hypervolume_entry`."""
        return self.hypervolume_entry(measured_min, front_indices)[0]

    def hypervolume_entry(
        self, measured_min: np.ndarray, front_indices: Optional[np.ndarray] = None
    ) -> tuple[float, int]:
        """``(hypervolume, mc_samples)`` for one round's measured set.

        ``mc_samples`` is ``0`` for the exact 2-D sweep and for the
        single-objective NaN case.
        """
        num_objectives = measured_min.shape[1]
        if num_objectives == 2:
            return front_hypervolume(measured_min, front_indices), 0
        if num_objectives >= 3:
            from repro.dse.quality import monte_carlo_hypervolume

            if front_indices is None:
                front_indices = fast_pareto_front(measured_min)
            nadir = measured_min.max(axis=0)
            span = np.maximum(nadir - measured_min.min(axis=0), 1e-12)
            estimate = monte_carlo_hypervolume(
                measured_min[front_indices],
                nadir + 0.1 * span,
                num_samples=self.mc_samples,
                seed=0,
            )
            return estimate, self.mc_samples
        if not self._warned:
            warnings.warn(
                f"hypervolume tracking is only defined for 2 objectives "
                f"(exactly) or 3+ (Monte-Carlo estimate), got "
                f"{num_objectives} ({', '.join(self.objectives.names)}); "
                f"recording NaN",
                RuntimeWarning,
                stacklevel=3,
            )
            self._warned = True
        return float("nan"), 0

    def record(self, round_index: int, measured_min: np.ndarray, simulations_total: int) -> CampaignRound:
        front_indices = fast_pareto_front(measured_min)
        self.last_front_indices = front_indices
        hypervolume, samples = self.hypervolume_entry(measured_min, front_indices)
        entry = CampaignRound(
            round_index=round_index,
            simulations_total=simulations_total,
            pareto_size=int(len(front_indices)),
            hypervolume=hypervolume,
            hypervolume_samples=samples,
        )
        self.rounds.append(entry)
        return entry


# -- results -------------------------------------------------------------------
@dataclass
class WorkloadCampaignResult:
    """Outcome of one workload's exploration within a campaign."""

    workload: str
    objectives: ObjectiveSet
    #: Configurations with measurements on this workload.
    simulated_configs: list[Configuration]
    #: Measured objective matrix (rows follow ``simulated_configs``).
    measured_objectives: np.ndarray
    #: Indices (into ``simulated_configs``) of the measured Pareto front.
    pareto_indices: np.ndarray
    #: Simulator invocations attributed to this workload.
    simulations_used: int
    #: Candidates this workload's surrogate screened, summed over rounds.
    candidates_screened: int
    #: Per-round quality snapshots (empty when tracking is off).
    rounds: list[CampaignRound] = field(default_factory=list)
    #: Indices (into ``simulated_configs``, which holds the measured
    #: selection unions) of this workload's last-round acquisition picks.
    selected_indices: list[int] = field(default_factory=list)
    #: Surrogate predictions for the last screened pool (original sense).
    predicted: Optional[np.ndarray] = None

    @property
    def objective_names(self) -> tuple[str, ...]:
        return self.objectives.names

    @property
    def pareto_configs(self) -> list[Configuration]:
        """The measured-Pareto-optimal configurations."""
        return [self.simulated_configs[int(i)] for i in self.pareto_indices]

    @property
    def pareto_objectives(self) -> np.ndarray:
        """Objective rows of the measured Pareto front."""
        return self.measured_objectives[self.pareto_indices]

    def hypervolume_history(self) -> list[float]:
        """Hypervolume after each round (budget/quality curve)."""
        return [entry.hypervolume for entry in self.rounds]


@dataclass
class CampaignResult:
    """Outcome of a cross-workload campaign: one front per workload."""

    per_workload: dict[str, WorkloadCampaignResult]
    objectives: ObjectiveSet
    #: Total simulator invocations across all workloads.
    total_simulations: int

    @property
    def workloads(self) -> list[str]:
        return list(self.per_workload)

    @property
    def candidates_screened(self) -> int:
        """Candidates screened across all workloads and rounds."""
        return sum(result.candidates_screened for result in self.per_workload.values())

    def __getitem__(self, workload: str) -> WorkloadCampaignResult:
        return self.per_workload[workload]

    def __iter__(self):
        return iter(self.per_workload.values())

    def hypervolume_curves(self) -> dict[str, list[float]]:
        """Per-workload hypervolume-per-round curves."""
        return {
            name: result.hypervolume_history()
            for name, result in self.per_workload.items()
        }

    def summary(self) -> dict:
        """JSON-serialisable campaign report (used by the ``dse`` CLI)."""
        report: dict = {
            "objectives": list(self.objectives.names),
            "maximize": list(self.objectives.maximize),
            "candidates_screened": self.candidates_screened,
            "total_simulations": self.total_simulations,
            "workloads": {},
        }
        for name, result in self.per_workload.items():
            front = [
                dict(zip(result.objective_names, (float(v) for v in row)))
                for row in result.pareto_objectives
            ]
            report["workloads"][name] = {
                "simulations": result.simulations_used,
                "front_size": int(len(result.pareto_indices)),
                "pareto_front": front,
                "hypervolume_curve": [
                    float(v) for v in result.hypervolume_history()
                ],
            }
        return report


#: Surrogates for a campaign: one per workload, or a factory from name.
SurrogateProvider = Union[
    Mapping[str, MultiObjectiveSurrogate],
    Callable[[str], MultiObjectiveSurrogate],
]


# -- the engine --------------------------------------------------------------------
class CampaignEngine:
    """The design space, simulator, objectives and sampler a campaign runs on."""

    def __init__(
        self,
        space: DesignSpace,
        simulator: Simulator,
        objectives: ObjectiveSet,
        *,
        seed: SeedLike = 0,
        sampler: Optional[BaseSampler] = None,
        encoder: Optional[OrdinalEncoder] = None,
    ) -> None:
        self.space = space
        self.simulator = simulator
        self.objectives = objectives
        self.sampler = sampler if sampler is not None else RandomSampler(space, seed=seed)
        self.encoder = encoder if encoder is not None else OrdinalEncoder(space)

    # -- cross-workload campaign ---------------------------------------------------
    def run_campaign(
        self,
        workloads: Sequence[str],
        surrogates: SurrogateProvider,
        *,
        generator: Optional[CandidateGenerator] = None,
        acquisition: Optional[AcquisitionStrategy] = None,
        candidate_pool: int = 1000,
        simulation_budget: int = 20,
        rounds: int = 1,
        initial_samples: int = 0,
        refit: bool = False,
        executor=None,
        checkpoint=None,
    ) -> CampaignResult:
        """Explore many workloads in one batched campaign.

        Every campaign runs the round loop of
        :func:`repro.runtime.campaign.run_campaign_runtime`: each round,
        every workload (optionally refits and) screens a candidate pool
        with its own surrogate and runs acquisition, and the union of all
        per-workload selections is measured on every workload with one
        :meth:`~repro.sim.simulator.Simulator.run_sweep`, so each
        workload's result holds the full measured union with its own picks
        in ``selected_indices``.  A surrogate-independent generator (the
        default :class:`RandomPool`) proposes one shared pool per round; a
        rank-stable one (seeded pools, ``NSGA2Evolve``,
        :class:`~repro.dse.portfolio.StrategyPortfolio`) proposes each
        workload's pool from keyed per-``(workload, round)`` streams.
        Surrogate-dependent generators that are not rank-stable are
        rejected.  A one-workload campaign is the single-workload
        exploration loop: its picks are measured in acquisition order.

        *executor* (default :class:`~repro.runtime.executors.
        SerialExecutor`) runs the per-workload screen jobs and shards the
        union sweep: it changes throughput, never the result.  With a
        *checkpoint* path every completed round is persisted, and a killed
        campaign resumes from the last completed round (``docs/runtime.md``).
        """
        # Imported at call time: the runtime imports this module.
        from repro.runtime.campaign import run_campaign_runtime

        return run_campaign_runtime(
            self,
            workloads,
            surrogates,
            generator=generator,
            acquisition=acquisition,
            candidate_pool=candidate_pool,
            simulation_budget=simulation_budget,
            rounds=rounds,
            initial_samples=initial_samples,
            refit=refit,
            executor=executor,
            checkpoint=checkpoint,
        )
