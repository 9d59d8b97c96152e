"""Command-line interface for the MetaDSE reproduction.

``python -m repro <command>`` exposes the main workflows end to end without
writing any Python:

* ``table1``     — print the Table I design-space specification;
* ``generate``   — sample design points, simulate them for every workload and
  save the labelled dataset to a ``.npz`` archive;
* ``similarity`` — regenerate the Fig. 2 workload-similarity analysis from a
  saved dataset;
* ``pretrain``   — MAML pre-training of the MetaDSE predictor on the source
  workloads of the paper's 7/5/5 split, saved to a model archive;
* ``evaluate``   — adapt a pre-trained model to a target workload with K
  support samples and report RMSE / MAPE / explained variance;
* ``explore``    — run a design-space exploration (active-learning loop or
  surrogate screening) on one workload and print the Pareto front;
* ``dse``        — run a batched cross-workload campaign through the unified
  campaign engine (every workload screens each round's candidates, one
  ``run_sweep`` measures the selection union) and print one Pareto front
  per workload; ``--jobs N`` runs it on N workers without changing the
  result (``--executor`` picks thread/process/serial, ``--checkpoint``
  makes the campaign resumable), and ``--prune`` / ``--focus F`` shrink
  the candidate pool to the parameters the adapted predictors' attention
  marks as important (``docs/pruning.md``); ``--store PATH`` persists
  every measurement to a store directory reused across campaigns
  (``docs/store.md``);
  ``--trace PATH`` records a :mod:`repro.obs` span/metric trace of the
  campaign without perturbing its results (``docs/observability.md``);
* ``store``      — inspect or maintain a persistent measurement store:
  ``stats`` summarises it, ``verify`` scans every segment for corruption,
  ``compact`` merges the segment log into one deduplicated segment;
* ``trace``      — inspect a recorded trace artifact: ``summarize`` prints
  per-span and per-workload time totals plus counters, ``timeline`` prints
  the spans as an indented start-ordered timeline.

Every command accepts ``--seed`` so runs are reproducible, and prints a short
human-readable report to stdout; machine-readable results are written as JSON
when ``--output`` is given.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from repro import obs
from repro.baselines.trees import GradientBoostingRegressor, RandomForestRegressor
from repro.core.config import default_config, paper_scale_config
from repro.core.metadse import MetaDSE
from repro.datasets.generation import generate_dataset
from repro.datasets.io import load_dataset, save_dataset
from repro.datasets.similarity import similarity_matrix
from repro.datasets.splits import paper_split
from repro.datasets.tasks import holdout_task
from repro.designspace.spec import build_table1_space
from repro.metrics.regression import evaluate_predictions
from repro.nn import parallel as nn_parallel
from repro.sim.simulator import Simulator
from repro.workloads.spec2017 import SPEC2017_WORKLOAD_NAMES


def _write_json(path: Optional[str], payload: dict) -> None:
    if path is None:
        return
    output = Path(path)
    output.parent.mkdir(parents=True, exist_ok=True)
    with open(output, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"wrote {output}")


def _build_simulator(args: argparse.Namespace) -> Simulator:
    return Simulator(simpoint_phases=args.phases, seed=args.seed)


# -- table1 ----------------------------------------------------------------------
def cmd_table1(args: argparse.Namespace) -> int:
    space = build_table1_space()
    print(space.describe())
    print(f"parameters: {space.num_parameters}")
    print(f"distinct configurations: {space.size():.3e}")
    return 0


def _campaign_executor(args: argparse.Namespace):
    """Build the executor requested by ``--jobs`` / ``--executor``."""
    from repro.runtime.executors import resolve_executor

    return resolve_executor(args.jobs, getattr(args, "executor", "thread"))


# -- generate -----------------------------------------------------------------------
def cmd_generate(args: argparse.Namespace) -> int:
    simulator = _build_simulator(args)
    workloads = args.workloads if args.workloads else None
    with _campaign_executor(args) as executor:
        dataset = generate_dataset(
            simulator,
            workloads=workloads,
            num_points=args.num_points,
            sampler_kind=args.sampler,
            seed=args.seed,
            executor=executor,
        )
    path = save_dataset(dataset, args.output)
    print(
        f"labelled {dataset.num_points} design points for {len(dataset)} workloads "
        f"-> {path}"
    )
    return 0


# -- similarity ----------------------------------------------------------------------
def cmd_similarity(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset)
    matrix = similarity_matrix(dataset, metric=args.metric)
    print(f"workload similarity ({args.metric}, normalised Wasserstein distance)")
    print(f"mean off-diagonal distance: {matrix.mean_offdiagonal():.3f}")
    for name in matrix.workloads:
        nearest = matrix.most_similar(name, count=1)[0]
        print(f"  {name:24s} closest: {nearest:24s} d={matrix.distance(name, nearest):.3f}")
    _write_json(args.output, {"metric": args.metric, "rows": matrix.to_rows()})
    return 0


# -- pretrain ----------------------------------------------------------------------
def cmd_pretrain(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset)
    split = paper_split(seed=args.split_seed)
    missing = [w for w in split.all_workloads if w not in dataset]
    if missing:
        raise SystemExit(
            f"dataset is missing workloads required by the 7/5/5 split: {missing}"
        )
    config = (
        paper_scale_config(use_wam=not args.no_wam, seed=args.seed)
        if args.scale == "paper"
        else default_config(use_wam=not args.no_wam, seed=args.seed)
    )
    if args.epochs is not None or args.tasks_per_workload is not None:
        from dataclasses import replace

        maml = config.maml
        if args.epochs is not None:
            maml = replace(maml, meta_epochs=args.epochs)
        if args.tasks_per_workload is not None:
            maml = replace(maml, tasks_per_workload=args.tasks_per_workload)
        config = replace(config, maml=maml)
    model = MetaDSE(
        dataset.space.num_parameters, config=config, precision=args.precision
    )
    model.pretrain(dataset, split, metric=args.metric)
    model.save_pretrained(args.output)
    report = model.pretrain_report
    assert report is not None
    print(
        f"meta-trained {model.name} on {len(report.train_workloads)} workloads "
        f"({report.history.num_epochs} epochs, best epoch {report.history.best_epoch})"
    )
    print(f"final train loss {report.history.train_losses[-1]:.4f}")
    if report.history.validation_losses:
        print(f"best validation loss {report.history.best_validation_loss:.4f}")
    print(f"saved model -> {args.output}")
    return 0


# -- evaluate ----------------------------------------------------------------------
def cmd_evaluate(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset)
    if args.workload not in dataset:
        raise SystemExit(f"workload {args.workload!r} is not in the dataset")
    model = MetaDSE(dataset.space.num_parameters, config=default_config(seed=args.seed))
    model.load_pretrained(args.model)

    reports = []
    for episode in range(args.episodes):
        task = holdout_task(
            dataset[args.workload],
            metric=args.metric,
            support_size=args.support_size,
            seed=args.seed + episode,
        )
        model.adapt(task.support_x, task.support_y)
        predictions = model.predict(task.query_x)
        reports.append(evaluate_predictions(task.query_y, predictions))

    mean_rmse = float(np.mean([r.rmse for r in reports]))
    mean_mape = float(np.mean([r.mape for r in reports]))
    mean_ev = float(np.mean([r.explained_variance for r in reports]))
    print(
        f"{args.workload} ({args.metric}, K={args.support_size}, "
        f"{args.episodes} episodes)"
    )
    print(f"  RMSE {mean_rmse:.4f}   MAPE {mean_mape:.4f}   EV {mean_ev:.4f}")
    _write_json(
        args.output,
        {
            "workload": args.workload,
            "metric": args.metric,
            "support_size": args.support_size,
            "episodes": args.episodes,
            "rmse": mean_rmse,
            "mape": mean_mape,
            "explained_variance": mean_ev,
        },
    )
    return 0


# -- explore ----------------------------------------------------------------------
def cmd_explore(args: argparse.Namespace) -> int:
    """One-workload campaign: active learning or surrogate screening."""
    from repro.dse.acquisition import (
        ExplorationBonusAcquisition,
        ParetoRankAcquisition,
    )
    from repro.dse.engine import CampaignEngine, ObjectiveSet
    from repro.dse.surrogates import CallableSurrogate, TreeEnsembleSurrogate

    simulator = _build_simulator(args)
    objectives = ObjectiveSet.from_names(("ipc", "power"))
    if args.method == "active":
        surrogate = TreeEnsembleSurrogate(
            functools.partial(
                RandomForestRegressor, n_estimators=30, max_depth=10, seed=0
            ),
            objectives.names,
        )
        acquisition = ExplorationBonusAcquisition()
        schedule = dict(
            simulation_budget=max(args.budget // 6, 2),
            rounds=4,
            initial_samples=max(args.budget // 3, 4),
            refit=True,
        )
    else:  # screen
        dataset = load_dataset(args.dataset) if args.dataset else None
        if dataset is None or args.workload not in dataset:
            raise SystemExit("--method screen needs --dataset containing the workload")
        data = dataset[args.workload]
        predictors = {}
        for metric in objectives.names:
            model = GradientBoostingRegressor(n_estimators=60, max_depth=3, seed=args.seed)
            model.fit(data.features, data.metric(metric))
            predictors[metric] = model.predict
        surrogate = CallableSurrogate(predictors)
        acquisition = ParetoRankAcquisition()
        schedule = dict(simulation_budget=args.budget)

    engine = CampaignEngine(simulator.space, simulator, objectives, seed=args.seed)
    result = engine.run_campaign(
        [args.workload],
        {args.workload: surrogate},
        acquisition=acquisition,
        candidate_pool=args.candidate_pool,
        **schedule,
    )[args.workload]
    extras = {}
    if args.method == "active":
        extras["rounds"] = [
            {
                "round": entry.round_index,
                "simulations": entry.simulations_total,
                "pareto_size": entry.pareto_size,
                "hypervolume": entry.hypervolume,
            }
            for entry in result.rounds
        ]

    print(
        f"{args.workload}: {result.simulations_used} simulations, "
        f"{len(result.pareto_indices)} Pareto-optimal points"
    )
    front = []
    for config, values in zip(result.pareto_configs, result.pareto_objectives):
        row = dict(zip(result.objective_names, (float(v) for v in values)))
        print("  " + "  ".join(f"{k}={v:.3f}" for k, v in row.items()))
        row["configuration"] = {k: config[k] for k in sorted(config)}
        front.append(row)
    _write_json(
        args.output,
        {
            "workload": args.workload,
            "method": args.method,
            "simulations": result.simulations_used,
            "pareto_front": front,
            **extras,
        },
    )
    return 0


# -- dse ----------------------------------------------------------------------
def cmd_dse(args: argparse.Namespace) -> int:
    """Cross-workload campaign through the unified DSE engine."""
    from repro.dse.engine import CampaignEngine, ObjectiveSet
    from repro.dse.surrogates import TreeEnsembleSurrogate

    simulator = Simulator(
        simpoint_phases=args.phases,
        seed=args.seed,
        evaluation_cache=True,
        store=args.store,
    )
    dataset = load_dataset(args.dataset)
    workloads = list(args.workloads)
    missing = [w for w in workloads if w not in dataset]
    if missing:
        raise SystemExit(f"dataset is missing workloads: {missing}")
    objective_names = tuple(args.objectives)

    # --prune is shorthand for the default focus; an explicit --focus wins.
    focus = args.focus
    if focus is None and args.prune:
        focus = 0.5
    if focus is not None and not 0.0 < focus <= 1.0:
        raise SystemExit(f"--focus must be in (0, 1], got {focus}")
    # --portfolio is shorthand for --strategy portfolio.
    strategy = "portfolio" if args.portfolio else args.strategy

    if args.model_ipc or args.model_power:
        # MetaDSE facade path: adapt pre-trained predictors to every target
        # (one stacked graph per metric) and campaign with stacked surrogates.
        if not (args.model_ipc and args.model_power) or objective_names != ("ipc", "power"):
            raise SystemExit(
                "--model-ipc/--model-power must be given together and require "
                "the default objectives 'ipc power'"
            )
        supports: dict[str, dict] = {"ipc": {}, "power": {}}
        for workload in workloads:
            for metric in ("ipc", "power"):
                task = holdout_task(
                    dataset[workload],
                    metric=metric,
                    support_size=args.support_size,
                    seed=args.seed,
                )
                supports[metric][workload] = (task.support_x, task.support_y)
        ipc_model = MetaDSE(
            dataset.space.num_parameters,
            config=default_config(seed=args.seed),
            threads=args.threads,
        ).load_pretrained(args.model_ipc)
        power_model = MetaDSE(
            dataset.space.num_parameters, config=default_config(seed=args.seed)
        ).load_pretrained(args.model_power)
        campaign = ipc_model.explore(
            simulator,
            supports["ipc"],
            objectives={"power": power_model},
            objective_supports={"power": supports["power"]},
            candidate_pool=args.candidate_pool,
            simulation_budget=args.budget,
            rounds=args.rounds,
            seed=args.seed,
            strategy=strategy,
            jobs=args.jobs,
            executor=args.executor,
            checkpoint=args.checkpoint,
            focus=focus,
            focus_levels=args.focus_levels,
            trace=args.trace,
        )
    else:
        if focus is not None:
            raise SystemExit(
                "--focus/--prune distil importance from attention and need the "
                "--model-ipc/--model-power predictor path; tree surrogates have "
                "no attention to harvest (see docs/pruning.md)"
            )
        # Tree-surrogate path: fit one ensemble per workload on the dataset
        # labels and drive the campaign directly.  The factory is a
        # functools.partial (not a lambda) so the surrogates stay picklable
        # for --executor process.
        from repro.dse.engine import NSGA2Evolve, RandomPool
        from repro.dse.portfolio import StrategyPortfolio

        generator = None
        if strategy == "nsga2":
            generator = NSGA2Evolve(seed=args.seed)
        elif strategy == "portfolio":
            # No focused arm here: tree surrogates expose no attention
            # profile to focus on (docs/portfolio.md).
            generator = StrategyPortfolio(
                {
                    "random": RandomPool(args.candidate_pool, seed=args.seed),
                    "nsga2": NSGA2Evolve(seed=args.seed),
                }
            )
        objectives = ObjectiveSet.from_names(objective_names)
        factory = functools.partial(
            GradientBoostingRegressor, n_estimators=60, max_depth=3, seed=args.seed
        )
        surrogates = {}
        for workload in workloads:
            data = dataset[workload]
            surrogate = TreeEnsembleSurrogate(factory, objective_names)
            targets = np.stack(
                [data.metric(name) for name in objective_names], axis=1
            )
            surrogate.fit(data.features, targets)
            surrogates[workload] = surrogate
        engine = CampaignEngine(
            dataset.space,
            simulator,
            objectives,
            seed=args.seed,
        )
        scope = (
            nn_parallel.threads(args.threads) if args.threads else nullcontext()
        )
        trace_scope = obs.tracing(args.trace) if args.trace else nullcontext()
        with _campaign_executor(args) as executor, trace_scope, scope:
            campaign = engine.run_campaign(
                workloads,
                surrogates,
                generator=generator,
                candidate_pool=args.candidate_pool,
                simulation_budget=args.budget,
                rounds=args.rounds,
                executor=executor,
                checkpoint=args.checkpoint,
            )

    summary = campaign.summary()
    print(
        f"campaign over {len(workloads)} workloads: "
        f"{campaign.candidates_screened} candidates screened in total, "
        f"{campaign.total_simulations} simulator evaluations"
    )
    for workload, entry in summary["workloads"].items():
        curve = entry["hypervolume_curve"]
        hv = f"{curve[-1]:.3f}" if curve and np.isfinite(curve[-1]) else "n/a"
        print(
            f"  {workload:24s} front {entry['front_size']:3d}  hypervolume {hv}"
        )
        for row in entry["pareto_front"][: args.show_front]:
            print(
                "    " + "  ".join(f"{k}={v:.3f}" for k, v in row.items())
            )
    _write_json(args.output, summary)
    return 0


def cmd_store(args: argparse.Namespace) -> int:
    """Inspect or maintain a persistent measurement store."""
    from repro.store import MeasurementStore, StoreMismatchError

    try:
        store = MeasurementStore.open_existing(
            args.path, read_only=args.action != "compact"
        )
    except StoreMismatchError as error:
        raise SystemExit(str(error)) from None

    if args.action == "stats":
        stats = store.stats().as_dict()
        for key, value in stats.items():
            print(f"{key}: {value}")
        _write_json(args.output, stats)
        return 0

    if args.action == "verify":
        issues = store.verify()
        stats = store.stats()
        payload = {"path": str(store.path), "issues": issues, "ok": not issues}
        _write_json(args.output, payload)
        if issues:
            for issue in issues:
                print(f"ISSUE {issue}")
            print(
                f"store {store.path}: {len(issues)} issue(s) across "
                f"{stats.num_segments} segment(s)"
            )
            return 1
        print(
            f"store {store.path}: OK "
            f"({stats.num_records} records in {stats.num_segments} segments)"
        )
        return 0

    before, after = store.compact()
    stats = store.stats()
    print(
        f"store {store.path}: compacted {before} segment(s) into {after} "
        f"({stats.num_records} records, {stats.total_bytes} bytes)"
    )
    _write_json(args.output, stats.as_dict())
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Inspect a recorded :mod:`repro.obs` trace artifact."""
    try:
        records = obs.read_trace(args.path)
        obs.validate_trace(records)
    except (OSError, ValueError) as error:
        raise SystemExit(f"trace {args.path}: {error}") from None

    if args.action == "summarize":
        summary = obs.summarize_trace(records)
        print(obs.render_summary(summary))
        _write_json(args.output, summary)
        return 0

    rows = obs.timeline_rows(records)
    print(obs.render_timeline(rows))
    _write_json(args.output, {"rows": rows})
    return 0


# -- parser -----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MetaDSE reproduction: cross-workload CPU DSE from the command line",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    table1 = subparsers.add_parser("table1", help="print the Table I design space")
    table1.set_defaults(handler=cmd_table1)

    generate = subparsers.add_parser("generate", help="generate a labelled dataset")
    generate.add_argument("--output", required=True, help="output .npz archive")
    generate.add_argument("--num-points", type=int, default=500)
    generate.add_argument("--sampler", choices=("random", "lhs", "oa"), default="random")
    generate.add_argument("--phases", type=int, default=4, help="SimPoint phases per workload")
    generate.add_argument("--seed", type=int, default=2024)
    generate.add_argument(
        "--workloads",
        nargs="*",
        choices=SPEC2017_WORKLOAD_NAMES,
        help="restrict to these workloads (default: all 17)",
    )
    generate.add_argument(
        "--jobs", type=int, default=1,
        help="workers for the labelling sweep (default 1, serial); the "
             "dataset is bitwise identical for every value (docs/runtime.md)",
    )
    generate.add_argument(
        "--executor", choices=("serial", "thread", "process"), default="thread",
        help="executor kind used with --jobs",
    )
    generate.set_defaults(handler=cmd_generate)

    similarity = subparsers.add_parser("similarity", help="Fig. 2 workload similarity")
    similarity.add_argument("--dataset", required=True)
    similarity.add_argument("--metric", choices=("ipc", "power"), default="ipc")
    similarity.add_argument("--output", help="optional JSON output path")
    similarity.set_defaults(handler=cmd_similarity)

    pretrain = subparsers.add_parser("pretrain", help="MAML pre-training of MetaDSE")
    pretrain.add_argument("--dataset", required=True)
    pretrain.add_argument("--output", required=True, help="model archive path")
    pretrain.add_argument("--metric", choices=("ipc", "power"), default="ipc")
    pretrain.add_argument("--scale", choices=("default", "paper"), default="default")
    pretrain.add_argument("--no-wam", action="store_true", help="skip WAM generation")
    pretrain.add_argument(
        "--epochs", type=int, default=None, help="override the number of meta-epochs"
    )
    pretrain.add_argument(
        "--tasks-per-workload", type=int, default=None, help="override tasks per workload"
    )
    pretrain.add_argument(
        "--precision", choices=("float64", "float32"), default=None,
        help="surrogate compute dtype (float32 is the wide-predictor fast "
             "path; see docs/numerics.md)",
    )
    pretrain.add_argument("--seed", type=int, default=0)
    pretrain.add_argument("--split-seed", type=int, default=0)
    pretrain.set_defaults(handler=cmd_pretrain)

    evaluate = subparsers.add_parser("evaluate", help="few-shot adaptation + metrics")
    evaluate.add_argument("--dataset", required=True)
    evaluate.add_argument("--model", required=True)
    evaluate.add_argument("--workload", required=True)
    evaluate.add_argument("--metric", choices=("ipc", "power"), default="ipc")
    evaluate.add_argument("--support-size", type=int, default=10)
    evaluate.add_argument("--episodes", type=int, default=3)
    evaluate.add_argument("--seed", type=int, default=0)
    evaluate.add_argument("--output", help="optional JSON output path")
    evaluate.set_defaults(handler=cmd_evaluate)

    explore = subparsers.add_parser("explore", help="design-space exploration")
    explore.add_argument("--workload", required=True)
    explore.add_argument("--method", choices=("active", "screen"), default="active")
    explore.add_argument("--dataset", help="dataset archive (required for --method screen)")
    explore.add_argument("--budget", type=int, default=30, help="simulation budget")
    explore.add_argument("--candidate-pool", type=int, default=500)
    explore.add_argument("--phases", type=int, default=1)
    explore.add_argument("--seed", type=int, default=0)
    explore.add_argument("--output", help="optional JSON output path")
    explore.set_defaults(handler=cmd_explore)

    dse = subparsers.add_parser(
        "dse", help="batched cross-workload campaign (unified DSE engine)"
    )
    dse.add_argument("--dataset", required=True, help="labelled dataset archive")
    dse.add_argument(
        "--workloads",
        nargs="+",
        required=True,
        choices=SPEC2017_WORKLOAD_NAMES,
        help="target workloads of the campaign",
    )
    dse.add_argument(
        "--objectives",
        nargs="+",
        default=("ipc", "power"),
        help="objective metrics (default: ipc power; ipc is maximised)",
    )
    dse.add_argument(
        "--model-ipc",
        help="pre-trained MetaDSE IPC model archive (with --model-power: "
             "adapt and campaign with stacked nn surrogates)",
    )
    dse.add_argument("--model-power", help="pre-trained MetaDSE power model archive")
    dse.add_argument(
        "--support-size", type=int, default=10,
        help="labelled samples per workload used for adaptation",
    )
    dse.add_argument("--budget", type=int, default=20, help="simulations per workload")
    dse.add_argument("--candidate-pool", type=int, default=500)
    dse.add_argument(
        "--rounds", type=int, default=1,
        help="acquisition rounds per campaign (each screens a fresh pool)",
    )
    dse.add_argument(
        "--strategy",
        choices=("random", "nsga2", "portfolio"),
        default="random",
        help="candidate-generation strategy (docs/portfolio.md)",
    )
    dse.add_argument(
        "--portfolio",
        action="store_true",
        help="shorthand for --strategy portfolio (UCB bandit over strategy arms)",
    )
    dse.add_argument(
        "--show-front", type=int, default=5,
        help="Pareto points printed per workload",
    )
    dse.add_argument("--phases", type=int, default=1)
    dse.add_argument("--seed", type=int, default=0)
    dse.add_argument(
        "--jobs", type=int, default=1,
        help="workers for the campaign's screen jobs and measurement sweeps "
             "(default 1, serial); the campaign is bitwise identical for "
             "every value (docs/runtime.md)",
    )
    dse.add_argument(
        "--executor", choices=("serial", "thread", "process"), default="thread",
        help="executor kind used with --jobs (process pools need picklable "
             "surrogates; the tree path qualifies)",
    )
    dse.add_argument(
        "--checkpoint",
        help="checkpoint file for resumable campaigns: completed rounds are "
             "persisted and a re-run resumes from the last completed round",
    )
    dse.add_argument(
        "--store",
        help="persistent measurement store directory (created on first use): "
             "simulated labels are saved and reused across campaigns, so a "
             "re-run re-simulates nothing it has seen (docs/store.md)",
    )
    dse.add_argument(
        "--threads", type=int, default=None,
        help="kernel worker threads for the nn surrogate forward/backward "
             "passes (bitwise identical for every thread count)",
    )
    dse.add_argument(
        "--focus", type=float, default=None,
        help="attention-guided pruning (docs/pruning.md): keep this fraction "
             "of parameters at full resolution and coarse-grid the rest; "
             "needs the --model-ipc/--model-power path, 1.0 = unpruned",
    )
    dse.add_argument(
        "--focus-levels", type=int, default=1,
        help="grid levels kept per unfocused parameter (1 = clamp to the "
             "median level)",
    )
    dse.add_argument(
        "--prune", action="store_true",
        help="shorthand for --focus 0.5",
    )
    dse.add_argument(
        "--trace",
        help="record a span/metric trace of the campaign to this JSONL file "
             "(campaign results are bitwise identical with tracing on or "
             "off; inspect with 'repro trace summarize', "
             "docs/observability.md)",
    )
    dse.add_argument("--output", help="optional JSON output path")
    dse.set_defaults(handler=cmd_dse)

    store = subparsers.add_parser(
        "store", help="inspect or maintain a persistent measurement store"
    )
    store.add_argument(
        "action", choices=("stats", "verify", "compact"),
        help="stats: summarise; verify: scan all segments for corruption; "
             "compact: merge the segment log into one deduplicated segment",
    )
    store.add_argument("path", help="measurement store directory")
    store.add_argument("--output", help="optional JSON output path")
    store.set_defaults(handler=cmd_store)

    trace = subparsers.add_parser(
        "trace", help="inspect a recorded repro.obs trace artifact"
    )
    trace.add_argument(
        "action", choices=("summarize", "timeline"),
        help="summarize: per-span/per-workload time totals and counters; "
             "timeline: indented start-ordered span timeline",
    )
    trace.add_argument("path", help="trace JSONL file (from --trace / tracing())")
    trace.add_argument("--output", help="optional JSON output path")
    trace.set_defaults(handler=cmd_trace)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used by ``python -m repro`` and the console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return int(args.handler(args))


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
