"""Saving and loading labelled DSE datasets.

Generating labels is the expensive step of the pipeline (the stand-in for
running gem5 on SPEC CPU 2017), so the CLI and the examples persist datasets
to a single compressed ``.npz`` archive and reload them later.  The archive
stores, per workload, the encoded feature matrix, every metric vector and the
per-parameter *index* matrix of the underlying configurations, plus the
design-space parameter names so a mismatched space is detected at load time.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Optional

import numpy as np

from repro.datasets.generation import DSEDataset, WorkloadDataset
from repro.designspace.space import DesignSpace
from repro.designspace.spec import build_table1_space
from repro.utils.atomic import write_atomic

#: Archive format marker (bumped on incompatible layout changes).
FORMAT_VERSION = 1


def save_dataset(dataset: DSEDataset, path: "str | Path") -> Path:
    """Write *dataset* to a compressed ``.npz`` archive and return its path.

    The ``.npz`` suffix is appended when missing.  The archive is built in
    memory and published with :func:`~repro.utils.atomic.write_atomic`, so
    an interrupted save leaves any previous archive at *path* intact.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    if not dataset.per_workload:
        raise ValueError("cannot save an empty dataset")
    arrays: dict[str, np.ndarray] = {
        "format_version": np.array([FORMAT_VERSION], dtype=np.int64),
        "parameter_names": np.array(dataset.space.parameter_names, dtype=np.str_),
        "workloads": np.array(dataset.workloads, dtype=np.str_),
    }
    for name, data in dataset.per_workload.items():
        arrays[f"features::{name}"] = data.features
        for metric, values in data.labels.items():
            arrays[f"label::{name}::{metric}"] = values
        if data.configs:
            arrays[f"indices::{name}"] = np.stack(
                [dataset.space.to_indices(config) for config in data.configs], axis=0
            )
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(path, buffer.getvalue())
    return path


def load_dataset(path: "str | Path", *, space: Optional[DesignSpace] = None) -> DSEDataset:
    """Load a dataset previously written by :func:`save_dataset`.

    The design space defaults to the Table I space; pass *space* explicitly
    when the archive was generated from a custom space with the same
    parameter names.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no dataset archive at {path}")
    archive = np.load(path, allow_pickle=False)
    version = int(archive["format_version"][0])
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported dataset archive version {version} (expected {FORMAT_VERSION})"
        )
    space = space if space is not None else build_table1_space()
    stored_names = [str(name) for name in archive["parameter_names"]]
    if stored_names != space.parameter_names:
        raise ValueError(
            "dataset archive was generated from a different design space: "
            f"{stored_names} vs {space.parameter_names}"
        )

    per_workload: dict[str, WorkloadDataset] = {}
    for name in (str(w) for w in archive["workloads"]):
        features = archive[f"features::{name}"]
        labels = {}
        prefix = f"label::{name}::"
        for key in archive.files:
            if key.startswith(prefix):
                labels[key[len(prefix):]] = archive[key]
        configs = []
        indices_key = f"indices::{name}"
        if indices_key in archive.files:
            configs = [space.from_indices(row) for row in archive[indices_key]]
        per_workload[name] = WorkloadDataset(
            workload=name, features=features, labels=labels, configs=configs
        )
    return DSEDataset(space=space, per_workload=per_workload)
