"""The MetaDSE framework facade.

This is the library's primary public entry point.  It wires together the
pieces of the paper's Fig. 3 workflow:

* **pre-training stage** (steps 1-9): episodic task sampling over the source
  workloads, MAML meta-training of the transformer surrogate with
  meta-validation, and WAM generation from the last layer's attention
  statistics;
* **adaptation stage** (steps ①-③): installing the (learnable) mask and
  fine-tuning a clone of the meta-trained predictor on the target workload's
  few labelled samples;
* prediction on unseen target configurations.

Labels are standardised internally using the *source* workloads' statistics
(the target's statistics are never touched, avoiding leakage); predictions
are returned in physical units.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import asdict, dataclass, replace
from typing import Mapping, Optional, Sequence

import numpy as np

from repro import obs
from repro.baselines.base import CrossWorkloadModel, as_1d, as_2d
from repro.core.config import MetaDSEConfig, PredictorConfig, default_config
from repro.datasets.generation import DSEDataset, WorkloadDataset
from repro.datasets.splits import WorkloadSplit
from repro.datasets.tasks import TaskSampler
from repro.meta.adaptation import (
    AdaptationResult,
    adapt_predictor,
    adapt_predictor_batch,
)
from repro.meta.maml import MAMLTrainer, MetaTrainingHistory
from repro.meta.wam import ArchitecturalMask, generate_wam
from repro.nn import parallel as nn_parallel
from repro.nn.precision import resolve_dtype
from repro.nn.transformer import TransformerPredictor


@dataclass
class PretrainReport:
    """Summary of one pre-training run."""

    history: MetaTrainingHistory
    mask: Optional[ArchitecturalMask]
    train_workloads: tuple[str, ...]
    validation_workloads: tuple[str, ...]
    metric: str
    label_mean: float
    label_std: float


class MetaDSE(CrossWorkloadModel):
    """Few-shot meta-learning framework for cross-workload CPU DSE.

    Parameters
    ----------
    num_parameters:
        Number of architectural parameters (22 for the Table I space).
    config:
        Full configuration; :func:`repro.core.config.default_config` when
        omitted.
    use_wam:
        Convenience override of ``config.use_wam`` — ``use_wam=False`` gives
        the *MetaDSE-w/o WAM* ablation of Fig. 5.
    precision:
        Compute dtype of every model the facade builds.  ``None`` (the
        default) and ``"float32"`` run meta-training, WAM harvesting,
        adaptation and :meth:`explore`'s surrogate screening in 32-bit, as
        the paper's PyTorch models do; ``"float64"`` is the bit-exact
        reference path.  A checkpoint loaded with ``precision=None`` keeps
        the dtype its header records.  The engine policy of
        :mod:`repro.nn.precision` does not decide this dtype.  Labels, WAM
        frequency statistics and returned predictions stay float64 either
        way (``docs/numerics.md`` is the accuracy contract).
    threads:
        Worker threads for the block fan-out of the graph-free stacked
        inference pass that screens candidates: :meth:`explore`'s campaign
        runs inside ``repro.nn.threads(threads)`` when set (``None`` keeps
        the ambient worker count).  Results are bitwise identical for every
        thread count (``docs/kernels.md``).
    name:
        Display name used by the benchmark tables.
    """

    def __init__(
        self,
        num_parameters: int,
        *,
        config: Optional[MetaDSEConfig] = None,
        use_wam: Optional[bool] = None,
        precision: Optional[str] = None,
        threads: Optional[int] = None,
        name: Optional[str] = None,
    ) -> None:
        if num_parameters < 1:
            raise ValueError("num_parameters must be >= 1")
        self.num_parameters = num_parameters
        #: Requested model dtype; ``None`` means float32 for every model the
        #: facade builds, while a loaded checkpoint keeps its recorded dtype.
        self.precision = None if precision is None else resolve_dtype(precision)
        if threads is not None and int(threads) < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        #: Inference-pass worker count; ``None`` defers to the ambient one.
        self.threads = None if threads is None else int(threads)
        self.config = config if config is not None else default_config()
        if use_wam is not None:
            self.config = replace(self.config, use_wam=use_wam)
        self.name = name if name is not None else (
            "MetaDSE" if self.config.use_wam else "MetaDSE-w/o WAM"
        )
        self.meta_model: Optional[TransformerPredictor] = None
        self.mask: Optional[ArchitecturalMask] = None
        self.adapted: Optional[TransformerPredictor] = None
        self.pretrain_report: Optional[PretrainReport] = None
        self.last_adaptation: Optional[AdaptationResult] = None
        self._metric = "ipc"
        self._label_mean = 0.0
        self._label_std = 1.0

    # -- label scaling -------------------------------------------------------------
    def _fit_label_scaler(self, dataset: DSEDataset, workloads: Sequence[str], metric: str) -> None:
        labels = np.concatenate([dataset[w].metric(metric) for w in workloads])
        self._label_mean = float(labels.mean())
        self._label_std = float(max(labels.std(), 1e-8))

    def _scale(self, values: np.ndarray) -> np.ndarray:
        return (np.asarray(values, dtype=np.float64) - self._label_mean) / self._label_std

    def _unscale(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=np.float64) * self._label_std + self._label_mean

    def _scaled_dataset(self, dataset: DSEDataset, workloads: Sequence[str], metric: str) -> DSEDataset:
        """Copy of the relevant workloads with the metric standardised."""
        per_workload = {}
        for name in workloads:
            data = dataset[name]
            per_workload[name] = WorkloadDataset(
                workload=name,
                features=data.features,
                labels={metric: self._scale(data.metric(metric))},
                configs=data.configs,
            )
        return DSEDataset(space=dataset.space, per_workload=per_workload)

    def _new_meta_model(self, dtype) -> TransformerPredictor:
        """A freshly initialised predictor of the configured architecture.

        Initialisation draws are dtype-independent, so the float32 model is
        the rounding of the float64 one.
        """
        predictor_cfg = self.config.predictor
        return TransformerPredictor(
            self.num_parameters,
            embed_dim=predictor_cfg.embed_dim,
            num_heads=predictor_cfg.num_heads,
            num_layers=predictor_cfg.num_layers,
            head_hidden=predictor_cfg.head_hidden,
            seed=self.config.seed,
        ).to_dtype(dtype)

    @property
    def _model_dtype(self) -> np.dtype:
        """The dtype new models are built in: float32 unless requested."""
        return np.dtype(np.float32) if self.precision is None else self.precision

    # -- pre-training stage ------------------------------------------------------------
    def pretrain(
        self, dataset: DSEDataset, split: WorkloadSplit, *, metric: str = "ipc"
    ) -> "MetaDSE":
        """Run the MAML pre-training stage (and WAM generation) on source workloads."""
        self._metric = metric
        source_workloads = list(split.train) + list(split.validation)
        self._fit_label_scaler(dataset, source_workloads, metric)
        scaled = self._scaled_dataset(dataset, source_workloads, metric)

        self.meta_model = self._new_meta_model(self._model_dtype)
        sampler = TaskSampler(
            scaled,
            metric=metric,
            support_size=self.config.maml.support_size,
            query_size=self.config.maml.query_size,
            seed=self.config.seed,
        )
        trainer = MAMLTrainer(self.meta_model, self.config.maml)
        history = trainer.meta_train(
            sampler,
            list(split.train),
            list(split.validation) if split.validation else None,
        )

        self.mask = None
        if self.config.use_wam:
            self.mask = generate_wam(
                self.meta_model,
                sampler,
                source_workloads,
                config=self.config.wam,
            )

        self.pretrain_report = PretrainReport(
            history=history,
            mask=self.mask,
            train_workloads=tuple(split.train),
            validation_workloads=tuple(split.validation),
            metric=metric,
            label_mean=self._label_mean,
            label_std=self._label_std,
        )
        self.adapted = None
        return self

    # -- adaptation stage ------------------------------------------------------------
    def adapt(self, support_x: np.ndarray, support_y: np.ndarray) -> "MetaDSE":
        """Adapt the meta-trained predictor to a target workload (Algorithm 2)."""
        if self.meta_model is None:
            raise RuntimeError("adapt() called before pretrain()")
        support_x = as_2d(support_x)
        support_y = self._scale(as_1d(support_y, support_x.shape[0]))
        result = adapt_predictor(
            self.meta_model,
            support_x,
            support_y,
            mask=self.mask if self.config.use_wam else None,
            config=self.config.adaptation,
        )
        self.adapted = result.predictor
        self.last_adaptation = result
        return self

    def adapt_many(
        self, supports: Sequence[tuple[np.ndarray, np.ndarray]]
    ) -> list[AdaptationResult]:
        """Adapt the meta-trained predictor to many target tasks at once.

        All targets fine-tune in one stacked-parameter graph (see
        :func:`repro.meta.adaptation.adapt_predictor_batch`) — the fast path
        for benchmark tables that adapt the same initialisation to every test
        workload.  Labels are standardised with the source statistics, like
        :meth:`adapt`; the framework's ``adapted`` state is left on the
        *last* target so ``predict`` keeps its usual meaning for sequential
        use, while each returned result carries its own adapted predictor.
        Note the returned predictors emit *standardised* labels; assign one
        to ``self.adapted`` (or reuse ``predict`` per target) to get physical
        units back.
        """
        if self.meta_model is None:
            raise RuntimeError("adapt_many() called before pretrain()")
        prepared = []
        for support_x, support_y in supports:
            support_x = as_2d(support_x)
            prepared.append(
                (support_x, self._scale(as_1d(support_y, support_x.shape[0])))
            )
        results = adapt_predictor_batch(
            self.meta_model,
            prepared,
            mask=self.mask if self.config.use_wam else None,
            config=self.config.adaptation,
        )
        if results:
            self.adapted = results[-1].predictor
            self.last_adaptation = results[-1]
        return results

    # -- exploration -----------------------------------------------------------------
    def explore(
        self,
        simulator,
        supports: "Mapping[str, tuple[np.ndarray, np.ndarray]]",
        *,
        objectives: "Optional[Mapping[str, 'MetaDSE']]" = None,
        objective_supports: "Optional[Mapping[str, Mapping[str, tuple[np.ndarray, np.ndarray]]]]" = None,
        maximize: "Optional[Mapping[str, bool]]" = None,
        candidate_pool: int = 1000,
        simulation_budget: int = 20,
        rounds: int = 1,
        seed: int = 0,
        strategy: str = "random",
        jobs: Optional[int] = 1,
        executor: str = "thread",
        checkpoint=None,
        focus: Optional[float] = None,
        focus_levels: int = 1,
        focus_probe: int = 64,
        store=None,
        trace=None,
    ):
        """Run a batched cross-workload DSE campaign with adapted predictors.

        The downstream use-case of the paper in one call: adapt this
        meta-trained predictor (and any companion models) to every target
        workload at once via :meth:`adapt_many` — one stacked fine-tuning
        graph per metric — then drive the
        :class:`~repro.dse.engine.CampaignEngine` campaign, where each
        workload screens a shared candidate pool with a
        :class:`~repro.dse.surrogates.StackedPredictorSurrogate` (all
        objectives answered by one graph-free inference pass, streamed over
        64-row blocks so memory stays bounded for any pool size)
        and the union of all selections is measured with a single
        ``run_sweep``.

        Parameters
        ----------
        simulator:
            The :class:`~repro.sim.simulator.Simulator` to spend the budget
            on (``evaluation_cache=True`` recommended for repeated
            campaigns).
        supports:
            ``{workload: (support_x, support_y)}`` — the few labelled
            samples per target workload for *this* model's metric; its keys
            define the campaign's workloads.
        objectives:
            Additional objective models, ``{metric: pretrained MetaDSE}``
            (e.g. ``{"power": power_model}`` next to an IPC-trained
            ``self``).  Each needs its own support labels in
            *objective_supports*.
        objective_supports:
            ``{metric: {workload: (support_x, support_y)}}`` for the
            companion models.
        maximize:
            Optimisation sense per metric; defaults to ``ipc`` maximised,
            everything else minimised.
        candidate_pool, simulation_budget, rounds, seed:
            Campaign knobs, forwarded to
            :meth:`~repro.dse.engine.CampaignEngine.run_campaign`.
        strategy:
            Candidate-generation strategy.  ``"random"`` (default) screens
            shared random pools (or attention-pruned ones with ``focus``);
            ``"nsga2"`` evolves each workload's pool with NSGA-II over its
            surrogate (:class:`~repro.dse.engine.NSGA2Evolve`, keyed
            per-``(workload, round)`` RNG streams); ``"portfolio"`` runs a
            :class:`~repro.dse.portfolio.StrategyPortfolio` — a per-workload
            UCB bandit over a random, a focused and an NSGA-II arm, scored
            by hypervolume slope (``docs/portfolio.md``).  The portfolio's
            warm-up plays each arm once, so give it ``rounds >= 3`` to get
            past round-robin.
        jobs, executor:
            Width and kind of the campaign's executor: the per-workload
            screen jobs and the union-measure sweep run on it.  ``jobs=1``
            (default) is the :class:`~repro.runtime.executors.
            SerialExecutor`; with ``jobs=N`` ``executor`` picks the pool
            kind (``"thread"`` by default — nn surrogates are not cheaply
            picklable, and NumPy screening releases the GIL).  The result
            is bitwise identical for every ``jobs`` and ``executor``
            (``docs/runtime.md``).
        checkpoint:
            Optional path: completed campaign rounds are persisted there,
            and a killed campaign re-run with the same arguments resumes
            from the last completed round.
        focus, focus_levels, focus_probe:
            Attention-guided design-space pruning (``docs/pruning.md``).
            With ``focus`` set, the shared candidate pool is drawn by a
            :class:`~repro.dse.engine.FocusedPool`: the adapted predictors'
            attention over ``focus_probe`` probe configurations is distilled
            into a pooled importance profile, the top ``focus`` fraction of
            parameters keep their full grids, and the rest collapse to a
            coarse grid of ``focus_levels`` levels (1 = clamped to the
            median level).  ``focus=None`` (default) leaves the campaign
            untouched; ``focus=1.0`` degrades to the unpruned pool bitwise.
        store:
            Optional persistent measurement store — a path or an open
            :class:`repro.store.MeasurementStore` — attached to
            *simulator* before the campaign (unless it already has one).
            Measurements land on disk and are reused across campaigns
            and processes: a re-run over a populated store re-simulates
            nothing it has seen, with bitwise-identical results
            (``docs/store.md``).
        trace:
            Optional path: activate :mod:`repro.obs` tracing for the
            whole exploration (adaptation + campaign) and write the span
            /metric trace there as JSONL (``docs/observability.md``).
            Campaign results are bitwise identical with tracing on or
            off; inspect the artifact with ``repro trace summarize``.

        Returns the engine's :class:`~repro.dse.engine.CampaignResult`
        (per-workload fronts + hypervolume curves, physical units).  Like
        :meth:`adapt_many`, the facade's ``adapted`` state is left on the
        last workload's predictor.
        """
        from repro.dse.engine import CampaignEngine, ObjectiveSet
        from repro.dse.surrogates import StackedPredictorSurrogate

        if trace is not None:
            # Re-enter with the session installed so the adaptation phase
            # is traced too; the campaign itself is unchanged either way
            # (the obs determinism contract, docs/observability.md).
            with obs.tracing(trace):
                with obs.span(
                    "explore",
                    strategy=strategy,
                    rounds=rounds,
                    workloads=len(supports),
                ):
                    return self.explore(
                        simulator,
                        supports,
                        objectives=objectives,
                        objective_supports=objective_supports,
                        maximize=maximize,
                        candidate_pool=candidate_pool,
                        simulation_budget=simulation_budget,
                        rounds=rounds,
                        seed=seed,
                        strategy=strategy,
                        jobs=jobs,
                        executor=executor,
                        checkpoint=checkpoint,
                        focus=focus,
                        focus_levels=focus_levels,
                        focus_probe=focus_probe,
                        store=store,
                        trace=None,
                    )

        if self.meta_model is None:
            raise RuntimeError("explore() called before pretrain()")
        workloads = list(supports)
        if not workloads:
            raise ValueError("explore() needs at least one target workload")

        models: dict[str, MetaDSE] = {self._metric: self}
        for metric, model in (objectives or {}).items():
            if metric in models:
                raise ValueError(f"duplicate objective metric {metric!r}")
            if model.meta_model is None:
                raise RuntimeError(f"objective model for {metric!r} is not pretrained")
            models[metric] = model

        adapted: dict[str, list[AdaptationResult]] = {}
        for metric, model in models.items():
            if metric == self._metric:
                model_supports = supports
            else:
                model_supports = (objective_supports or {}).get(metric)
                if model_supports is None:
                    raise ValueError(
                        f"objective_supports must provide support sets for {metric!r}"
                    )
            missing = [w for w in workloads if w not in model_supports]
            if missing:
                raise ValueError(f"supports for {metric!r} are missing workloads {missing}")
            with obs.span("explore.adapt", metric=metric):
                adapted[metric] = model.adapt_many(
                    [model_supports[workload] for workload in workloads]
                )

        if store is not None and getattr(simulator, "store", None) is None:
            simulator.attach_store(store)

        objective_set = ObjectiveSet.from_names(tuple(models), maximize)
        surrogates = {
            workload: StackedPredictorSurrogate(
                [adapted[metric][index].predictor for metric in models],
                objective_set.names,
                label_means=[models[metric]._label_mean for metric in models],
                label_stds=[models[metric]._label_std for metric in models],
            )
            for index, workload in enumerate(workloads)
        }
        engine = CampaignEngine(
            simulator.space,
            simulator,
            objective_set,
            seed=seed,
        )

        if focus is not None and not 0.0 < focus <= 1.0:
            raise ValueError(f"focus must be in (0, 1], got {focus}")

        def harvest_profile():
            # One pooled profile for the campaign: probe once, harvest each
            # workload's stacked surrogate, average.  Fixed-profile
            # FocusedPool stays surrogate-independent, so the shared pool
            # and checkpoint resume still apply.
            from repro.designspace.sampling import RandomSampler
            from repro.meta.wam import merge_profiles

            probe = RandomSampler(simulator.space, seed=seed).sample(focus_probe)
            probe_features = engine.encoder.encode_batch(probe)
            return merge_profiles(
                [
                    surrogates[workload].attention_profile(probe_features)
                    for workload in workloads
                ]
            )

        generator = None
        if strategy == "random":
            if focus is not None:
                from repro.dse.engine import FocusedPool

                generator = FocusedPool(
                    candidate_pool,
                    keep_fraction=focus,
                    coarse_levels=focus_levels,
                    profile=harvest_profile() if focus < 1.0 else None,
                )
        elif strategy == "nsga2":
            from repro.dse.engine import NSGA2Evolve

            if focus is not None:
                raise ValueError(
                    "focus= prunes candidate pools, which NSGA-II evolution "
                    "does not sample; use strategy='portfolio' to combine them"
                )
            generator = NSGA2Evolve(seed=seed)
        elif strategy == "portfolio":
            from repro.dse.engine import FocusedPool, NSGA2Evolve, RandomPool
            from repro.dse.portfolio import StrategyPortfolio

            keep = focus if focus is not None else 0.5
            generator = StrategyPortfolio(
                {
                    "random": RandomPool(candidate_pool, seed=seed),
                    "focused": FocusedPool(
                        candidate_pool,
                        keep_fraction=keep,
                        coarse_levels=focus_levels,
                        profile=harvest_profile() if keep < 1.0 else None,
                        seed=seed,
                    ),
                    "nsga2": NSGA2Evolve(seed=seed),
                }
            )
        else:
            raise ValueError(
                f"unknown strategy {strategy!r}: expected 'random', 'nsga2' "
                f"or 'portfolio'"
            )

        from repro.runtime.executors import resolve_executor

        thread_scope = (
            nullcontext() if self.threads is None else nn_parallel.threads(self.threads)
        )
        with resolve_executor(jobs, executor) as campaign_executor, thread_scope:
            return engine.run_campaign(
                workloads,
                surrogates,
                generator=generator,
                candidate_pool=candidate_pool,
                simulation_budget=simulation_budget,
                rounds=rounds,
                executor=campaign_executor,
                checkpoint=checkpoint,
            )

    # -- inference -----------------------------------------------------------------------
    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict the target metric (physical units) for unseen configurations."""
        model = self.adapted if self.adapted is not None else self.meta_model
        if model is None:
            raise RuntimeError("predict() called before pretrain()")
        return self._unscale(model.predict(as_2d(features)))

    def importance_profile(self, features: np.ndarray, *, workload=None):
        """Distil a parameter-importance profile from the current predictor.

        One forward over *features* through the adapted (or, before
        adaptation, the meta-trained) predictor, returning the normalized
        :class:`~repro.meta.wam.ImportanceProfile` the pruning layer consumes
        (``docs/pruning.md``).  Deterministic for fixed weights and features.
        """
        from repro.meta.wam import importance_profile as _importance_profile

        model = self.adapted if self.adapted is not None else self.meta_model
        if model is None:
            raise RuntimeError("importance_profile() called before pretrain()")
        return _importance_profile(model, as_2d(features), workload=workload)

    # -- persistence helpers -----------------------------------------------------------
    def save_pretrained(self, path) -> None:
        """Persist the meta-trained predictor, its architecture, mask and label scaling."""
        if self.meta_model is None:
            raise RuntimeError("save_pretrained() called before pretrain()")
        from repro.nn.serialization import save_model

        header = {
            "num_parameters": self.num_parameters,
            "predictor": asdict(self.config.predictor),
            "metric": self._metric,
            "label_mean": self._label_mean,
            "label_std": self._label_std,
            "use_wam": self.config.use_wam,
            "mask": self.mask.bias.tolist() if self.mask is not None else None,
        }
        save_model(self.meta_model, path, header=header)

    def load_pretrained(self, path) -> "MetaDSE":
        """Load a previously saved meta-trained predictor.

        The model is built with the architecture the checkpoint records
        (which replaces ``config.predictor``); a checkpoint without one is
        built with ``config.predictor``.  Checkpoints written before the
        predictor lost its dropout option record ``"dropout": 0.0``; they
        load, and one recording any other rate raises ``ValueError``.
        """
        from repro.meta.wam import ArchitecturalMask, WAMConfig
        from repro.nn.serialization import load_state

        state, header = load_state(path)
        if header.get("predictor") is not None:
            architecture = dict(header["predictor"])
            dropout = architecture.pop("dropout", 0.0)
            if dropout != 0.0:
                raise ValueError(
                    f"{path}: the checkpoint records dropout {dropout}; the "
                    "predictor has no dropout"
                )
            self.config = replace(
                self.config, predictor=PredictorConfig(**architecture)
            )
        # Without an explicit precision the checkpoint keeps its recorded
        # dtype; load_state_dict casts the arrays to the model's dtype.
        dtype = self._model_dtype
        if self.precision is None and header.get("dtype") is not None:
            dtype = header["dtype"]
        self.meta_model = self._new_meta_model(dtype)
        self.meta_model.load_state_dict(state)
        self._metric = header.get("metric", "ipc")
        self._label_mean = float(header.get("label_mean", 0.0))
        self._label_std = float(header.get("label_std", 1.0))
        mask_bias = header.get("mask")
        if mask_bias is not None:
            bias = np.asarray(mask_bias, dtype=np.float64)
            self.mask = ArchitecturalMask(
                bias=bias,
                frequency=np.zeros_like(bias),
                kept=bias >= 0,
                config=WAMConfig(),
            )
        return self
