"""Labelled-dataset generation (the paper's "Datasets Generation" step).

For every workload, a set of design points is sampled from the Table I space
and simulated, producing IPC and power labels.  The same design points are
used for every workload (a "full factorial over workloads" layout), which is
how the paper's artefact sweeps gem5 and what the Wasserstein similarity
analysis of Fig. 2 requires (it compares label distributions over a common
set of configurations).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.designspace.encoding import OrdinalEncoder
from repro.designspace.sampling import RandomSampler, make_sampler
from repro.designspace.space import Configuration, DesignSpace
from repro.sim.simulator import Simulator
from repro.utils.rng import SeedLike, as_rng

#: Metrics every dataset carries, in canonical order.
METRICS = ("ipc", "power")


@dataclass
class WorkloadDataset:
    """Labelled design points of a single workload.

    Attributes
    ----------
    workload:
        The workload name (e.g. ``"605.mcf_s"``).
    features:
        Encoded configurations, shape ``(n, num_parameters)``.
    labels:
        Mapping from metric name (``"ipc"``, ``"power"``) to an ``(n,)``
        label vector.
    configs:
        The raw configurations, kept so results can be traced back to
        concrete design points.
    """

    workload: str
    features: np.ndarray
    labels: dict[str, np.ndarray]
    configs: list[Configuration] = field(default_factory=list)

    def __post_init__(self) -> None:
        n = self.features.shape[0]
        for metric, values in self.labels.items():
            if values.shape != (n,):
                raise ValueError(
                    f"label {metric!r} has shape {values.shape}, expected ({n},)"
                )

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        """Feature dimensionality (number of architectural parameters)."""
        return self.features.shape[1]

    def metric(self, name: str) -> np.ndarray:
        """Return the label vector for *name* (defensive copy not taken)."""
        try:
            return self.labels[name]
        except KeyError:
            raise KeyError(
                f"dataset for {self.workload!r} has no metric {name!r}; "
                f"available: {sorted(self.labels)}"
            ) from None

    def subset(self, indices: Sequence[int]) -> "WorkloadDataset":
        """Return a new dataset restricted to *indices*."""
        indices = np.asarray(indices, dtype=np.int64)
        return WorkloadDataset(
            workload=self.workload,
            features=self.features[indices],
            labels={k: v[indices] for k, v in self.labels.items()},
            configs=[self.configs[int(i)] for i in indices] if self.configs else [],
        )

    def split(self, first_size: int, *, seed: SeedLike = None) -> tuple["WorkloadDataset", "WorkloadDataset"]:
        """Randomly split into two disjoint datasets (first has *first_size* rows)."""
        if not 0 <= first_size <= len(self):
            raise ValueError(
                f"first_size must be in [0, {len(self)}], got {first_size}"
            )
        rng = as_rng(seed)
        order = rng.permutation(len(self))
        return self.subset(order[:first_size]), self.subset(order[first_size:])


@dataclass
class DSEDataset:
    """A collection of per-workload datasets sharing the same design points."""

    space: DesignSpace
    per_workload: dict[str, WorkloadDataset]

    def __len__(self) -> int:
        return len(self.per_workload)

    def __contains__(self, workload: str) -> bool:
        return workload in self.per_workload

    def __getitem__(self, workload: str) -> WorkloadDataset:
        try:
            return self.per_workload[workload]
        except KeyError:
            raise KeyError(
                f"no dataset for workload {workload!r}; available: {self.workloads}"
            ) from None

    @property
    def workloads(self) -> list[str]:
        """Workload names in insertion order."""
        return list(self.per_workload)

    @property
    def num_points(self) -> int:
        """Number of design points per workload."""
        if not self.per_workload:
            return 0
        return len(next(iter(self.per_workload.values())))

    def subset_workloads(self, names: Iterable[str]) -> "DSEDataset":
        """Restrict the collection to the given workloads (order preserved)."""
        return DSEDataset(
            space=self.space,
            per_workload={name: self[name] for name in names},
        )


def generate_dataset(
    simulator: Optional[Simulator] = None,
    *,
    workloads: Optional[Sequence[str]] = None,
    num_points: int = 500,
    sampler_kind: str = "random",
    seed: SeedLike = 2024,
    executor=None,
) -> DSEDataset:
    """Sample and simulate a labelled dataset.

    Parameters
    ----------
    simulator:
        The simulation substrate; a default :class:`Simulator` is built when
        omitted.
    workloads:
        Workload names to label; defaults to every workload the simulator
        knows (the 17 SPEC CPU 2017 profiles).
    num_points:
        Number of design points (shared by all workloads).
    sampler_kind:
        ``"random"`` / ``"lhs"`` / ``"oa"`` — see :mod:`repro.designspace.sampling`.
    seed:
        Controls design-point sampling (the simulator has its own seed).
    executor:
        Optional :class:`~repro.runtime.executors.Executor`: the labelling
        sweep is sharded over ``(configs x workloads)`` and produces a
        bitwise-identical dataset (see ``docs/runtime.md``).
    """
    if num_points < 1:
        raise ValueError(f"num_points must be >= 1, got {num_points}")
    simulator = simulator if simulator is not None else Simulator()
    space = simulator.space
    names = list(workloads) if workloads is not None else simulator.workload_names()

    sampler = make_sampler(sampler_kind, space, seed=seed)
    configs = sampler.sample(num_points)
    encoder = OrdinalEncoder(space)
    features = encoder.encode_batch(configs)

    per_workload: dict[str, WorkloadDataset] = {}
    # run_sweep returns freshly-allocated metric arrays, so the labels can
    # be stored without defensive copies.
    for name, batch in simulator.run_sweep(configs, names, executor=executor).items():
        labels = {
            "ipc": batch.ipc,
            "power": batch.power_w,
        }
        per_workload[name] = WorkloadDataset(
            workload=name, features=features.copy(), labels=labels, configs=list(configs)
        )
    return DSEDataset(space=space, per_workload=per_workload)
