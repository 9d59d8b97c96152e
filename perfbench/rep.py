"""One benchmark repetition, run in a fresh interpreter by ``run.py``.

A repetition sets its workload up (untimed), runs the timed section once,
computes the quality metrics and the output digest afterwards, checks its
own outputs and prints one JSON object as the last line of its standard
output.  ``run.py`` launches it with the pinned environment (hash seed and
BLAS threads) and compares digests across repetitions.

    python3 perfbench/rep.py --workload explore-wide --seed 3 [--trace PATH]
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import ledger  # noqa: E402

#: SimPoint phases per workload; ``fresh_sims`` divides evaluations by it.
PHASES = 4
#: Simulator seed (the program's own, not an input).
SIMULATOR_SEED = 7
#: Seed of the workload's fixed data: the labelled dataset and the K-shot
#: support sets.  ``--seed`` drives the campaign's random streams instead.
DATA_SEED = 0
#: Random configurations whose measured nadir fixes each target's
#: hypervolume reference point.
REFERENCE_SAMPLE = 512
METRICS = ("ipc", "power")


@dataclass(frozen=True)
class Sizes:
    """Input sizes shared by every workload."""

    points: int  # design points in the generated dataset, per workload
    targets: int  # test targets of paper_split(seed=0) used
    support: int  # K labelled support samples per target
    budget: int  # simulations per workload per round
    pool_cap: int  # upper bound on candidate pools
    rounds_cap: int  # upper bound on campaign rounds
    tasks_per_workload: int  # meta-training tasks per workload, reduced schedule


FULL = Sizes(points=300, targets=5, support=10, budget=20, pool_cap=10**9,
             rounds_cap=10**9, tasks_per_workload=8)
#: Seconds-long sizes for the benchmark's self-tests.
TINY = Sizes(points=40, targets=2, support=5, budget=4, pool_cap=64,
             rounds_cap=1, tasks_per_workload=1)


@dataclass(frozen=True)
class Workload:
    """What is set up untimed and what the timed section runs."""

    pretrain_timed: bool  # dataset + pretraining inside the timed section
    explore: dict  # MetaDSE.explore keyword arguments


WORKLOADS = {
    # The canonical cold start: generate -> pretrain both models -> explore.
    "pipeline": Workload(
        pretrain_timed=True,
        explore=dict(strategy="portfolio", rounds=4, candidate_pool=1000),
    ),
    # Propose-bound: NSGA-II's surrogate calls of 64 rows each.
    "explore-nsga2": Workload(
        pretrain_timed=False,
        explore=dict(strategy="nsga2", rounds=2),
    ),
    # Screen-bound: one 4000-row stacked forward per target.
    "explore-wide": Workload(
        pretrain_timed=False,
        explore=dict(strategy="random", rounds=1, candidate_pool=4000),
    ),
}


def host_counters() -> dict:
    """This process's rusage plus the system-wide steal time, right now."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    steal = 0.0
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
        # cpu user nice system idle iowait irq softirq steal ...
        steal = int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        pass
    return {
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "sys_s": usage.ru_stime,
        "minor_faults": usage.ru_minflt,
        "steal_s": steal,
        "max_rss_kb": usage.ru_maxrss,
    }


def host_delta(before: dict, after: dict) -> dict:
    return {
        "host.cpu_s": after["cpu_s"] - before["cpu_s"],
        "host.sys_s": after["sys_s"] - before["sys_s"],
        "host.minor_faults": after["minor_faults"] - before["minor_faults"],
        "host.steal_s": after["steal_s"] - before["steal_s"],
    }


def dominated_rows(front_min) -> int:
    """How many rows of a minimisation front another row dominates."""
    import numpy as np

    rows = np.asarray(front_min)
    count = 0
    for row in rows:
        if np.any(np.all(rows <= row, axis=1) & np.any(rows < row, axis=1)):
            count += 1
    return count


class Bench:
    """One workload at one seed: set-up state, timed section, outputs."""

    def __init__(self, name: str, seed: int, sizes: Sizes) -> None:
        from repro.core.config import default_config
        from repro.datasets.splits import paper_split
        from repro.sim.simulator import Simulator

        self.seed = seed
        self.sizes = sizes
        self.workload = WORKLOADS[name]
        self.explore_kwargs = dict(self.workload.explore)
        if "candidate_pool" in self.explore_kwargs:
            self.explore_kwargs["candidate_pool"] = min(
                self.explore_kwargs["candidate_pool"], sizes.pool_cap
            )
        self.explore_kwargs["rounds"] = min(self.explore_kwargs["rounds"], sizes.rounds_cap)
        self.split = paper_split(seed=0)
        self.targets = tuple(self.split.test[: sizes.targets])
        config = default_config(seed=0)
        if sizes is TINY or not self.workload.pretrain_timed:
            # Reduced schedule, same architecture: inference cost per row is
            # that of the default_config predictor.
            config = replace(
                config,
                maml=replace(
                    config.maml,
                    meta_epochs=1,
                    tasks_per_workload=sizes.tasks_per_workload,
                ),
            )
        self.config = config
        self.simulator = Simulator(
            simpoint_phases=PHASES, seed=SIMULATOR_SEED, evaluation_cache=True
        )
        self.dataset = None
        self.models = None
        self.tasks = None
        if not self.workload.pretrain_timed:
            self.prepare()

    def prepare(self) -> None:
        """Dataset, both pretrained models and the per-target tasks."""
        from repro.core.metadse import MetaDSE
        from repro.datasets import generation
        from repro.datasets.tasks import holdout_task

        # Looked up on the module so the traced run's wrapper sees the call.
        self.dataset = generation.generate_dataset(
            self.simulator, num_points=self.sizes.points, seed=DATA_SEED
        )
        self.models = {}
        for metric in METRICS:
            model = MetaDSE(self.dataset.space.num_parameters, config=self.config)
            model.pretrain(self.dataset, self.split, metric=metric)
            self.models[metric] = model
        self.tasks = {
            metric: {
                target: holdout_task(
                    self.dataset[target],
                    metric=metric,
                    support_size=self.sizes.support,
                    seed=DATA_SEED,
                )
                for target in self.targets
            }
            for metric in METRICS
        }

    def supports(self, metric: str) -> dict:
        return {
            target: (task.support_x, task.support_y)
            for target, task in self.tasks[metric].items()
        }

    def timed(self):
        """The timed section; returns the campaign result."""
        if self.workload.pretrain_timed:
            self.prepare()
        return self.models["ipc"].explore(
            self.simulator,
            self.supports("ipc"),
            objectives={"power": self.models["power"]},
            objective_supports={"power": self.supports("power")},
            simulation_budget=self.sizes.budget,
            seed=self.seed,
            jobs=1,
            **self.explore_kwargs,
        )

    def fresh_sims_cap(self) -> int:
        """Most fresh simulations the timed section may spend."""
        workloads = len(self.targets)
        # Each round measures the union of every target's picks on every target.
        cap = self.explore_kwargs["rounds"] * workloads * workloads * self.sizes.budget
        if self.workload.pretrain_timed:
            cap += self.sizes.points * len(self.simulator.workload_names())
        return cap

    def outputs(self, campaign, fresh_sims: float) -> tuple[dict, list[str]]:
        """Quality metrics, digest and the failed checks (post-timing)."""
        import numpy as np

        from repro.designspace.sampling import RandomSampler
        from repro.dse.pareto import hypervolume_2d
        from repro.metrics.regression import rmse
        from repro.sim.simulator import Simulator

        errors: list[str] = []
        rmses = {}
        for metric, model in self.models.items():
            adapted = model.adapt_many(list(self.supports(metric).values()))
            per_target = []
            for result, task in zip(adapted, self.tasks[metric].values()):
                model.adapted = result.predictor
                per_target.append(rmse(task.query_y, model.predict(task.query_x)))
            rmses[metric] = float(np.mean(per_target))

        reference = Simulator(simpoint_phases=PHASES, seed=SIMULATOR_SEED)
        probe = RandomSampler(reference.space, seed=DATA_SEED).sample(REFERENCE_SAMPLE)
        objectives = campaign.objectives
        digest = hashlib.sha256()
        hypervolumes = []
        for target in self.targets:
            result = campaign[target]
            measured = np.asarray(result.measured_objectives, dtype=np.float64)
            front = np.asarray(result.pareto_objectives, dtype=np.float64)
            # A fixed reference point per target (nadir of a fixed random
            # sample + 10 % of its span), not the engine's nadir of whatever
            # the campaign measured, so hypervolumes compare across seeds
            # and across versions of the program.
            sampled = reference.run_batch(probe, target)
            sampled = objectives.to_minimization(
                np.stack([sampled.objective(name) for name in objectives.names], axis=1)
            )
            nadir = sampled.max(axis=0)
            point = nadir + 0.1 * (nadir - sampled.min(axis=0))
            hypervolumes.append(hypervolume_2d(objectives.to_minimization(front), point))
            if not (np.all(np.isfinite(measured)) and len(front)):
                errors.append(f"{target}: non-finite measurements or empty front")
            if dominated_rows(objectives.to_minimization(front)):
                errors.append(f"{target}: front holds dominated points")
            remeasured = reference.run_batch(result.pareto_configs, target)
            again = np.stack([remeasured.objective(name) for name in objectives.names], axis=1)
            if not np.array_equal(again, front):
                errors.append(f"{target}: front does not re-simulate to its measurements")
            digest.update(target.encode())
            digest.update(measured.tobytes())
            digest.update(np.asarray(result.pareto_indices, dtype=np.int64).tobytes())
            digest.update(front.tobytes())
        quality = {
            "fresh_sims": fresh_sims,
            "hypervolume": float(np.mean(hypervolumes)),
            "ipc_rmse": rmses["ipc"],
            "power_rmse": rmses["power"],
        }
        for name, value in quality.items():
            if not math.isfinite(value) or value <= 0:
                errors.append(f"{name} = {value!r} is not a positive finite number")
        if fresh_sims > self.fresh_sims_cap():
            errors.append(f"fresh_sims {fresh_sims} exceeds the budget {self.fresh_sims_cap()}")
        digest.update(json.dumps(quality, sort_keys=True).encode())
        quality["digest"] = digest.hexdigest()
        return quality, errors


def run(args) -> dict:
    sizes = TINY if args.tiny else FULL
    bench = Bench(args.workload, args.seed, sizes)
    setup_s = time.perf_counter() - _STARTED
    if args.setup_only:
        return {"setup_s": setup_s}

    recorder = None
    if args.trace:
        from repro import obs

        recorder = ledger.Recorder()
    evaluations = bench.simulator.evaluation_count
    before = host_counters()
    if recorder is None:
        start = time.perf_counter()
        campaign = bench.timed()
        wall_s = time.perf_counter() - start
    else:
        with ledger.instrument(recorder), obs.tracing(args.trace):
            with recorder.span(ledger.ROOT):
                start = time.perf_counter()
                campaign = bench.timed()
                wall_s = time.perf_counter() - start
    after = host_counters()
    fresh_sims = (bench.simulator.evaluation_count - evaluations) / PHASES

    quality, errors = bench.outputs(campaign, fresh_sims)
    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": after["max_rss_kb"] / 1024.0,
        **quality,
        "host": host_delta(before, after),
        "errors": errors,
    }
    if recorder is not None:
        record["layers"] = ledger.layer_metrics(recorder, obs.read_trace(args.trace))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", help="trace the timed section into this file")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
