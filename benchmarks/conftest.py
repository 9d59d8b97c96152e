"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  The expensive
artefacts (labelled dataset, meta-trained predictors, baseline pre-training)
are built once per session and shared; each benchmark then times the phase
that is specific to it (adaptation / evaluation) and asserts its bands.  The
regenerated table is written to ``benchmarks/results/<name>.json`` only when
``REPRO_RECORD_RESULTS=1`` is set (the ``make bench*`` targets export it), so
a plain ``pytest`` run never rewrites the committed results.

Scale is controlled by ``METADSE_FULL_EVAL``:

* unset (default) — reduced settings sized for a single CPU core
  (hundreds of design points, a few meta-epochs);
* set — the paper-scale settings of Section VI-A (thousands of design
  points, 15 meta-epochs, 200 tasks per workload).  Expect hours of runtime.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.baselines.trendse import TrEnDSETransformer  # noqa: E402
from repro.core.config import experiment_config, is_full_eval  # noqa: E402
from repro.core.metadse import MetaDSE  # noqa: E402
from repro.datasets.generation import generate_dataset  # noqa: E402
from repro.datasets.splits import paper_split  # noqa: E402
from repro.sim.simulator import Simulator  # noqa: E402

#: Directory where regenerated tables are written.
RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Number of labelled design points per workload.
NUM_POINTS = 3000 if is_full_eval() else 300

#: SimPoint phases per workload in the simulation substrate.
SIMPOINT_PHASES = 16 if is_full_eval() else 4

#: Support size used for downstream adaptation unless a sweep says otherwise.
ADAPTATION_SUPPORT = 10

#: Query points used to evaluate each adapted model.
EVALUATION_QUERY = 1000 if is_full_eval() else 200


def record_result(name: str, payload: dict) -> Path:
    """Write a regenerated table to ``benchmarks/results/<name>.json``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    return path


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Expose each phase's report on the item so fixtures can see pass/fail."""
    outcome = yield
    report = outcome.get_result()
    setattr(item, "rep_" + report.when, report)


#: Opt-in to persisting results; ``make bench*`` sets it, tier-1 does not.
RECORD_RESULTS = os.environ.get("REPRO_RECORD_RESULTS") == "1"


@pytest.fixture()
def record(request):
    """Stage results; persist to ``results/`` only on opt-in and a pass.

    The JSONs under ``benchmarks/results/`` are committed baselines (see
    docs/benchmarks.md).  A plain test run only asserts the bands and must
    leave them untouched — timing payloads differ run to run — so nothing
    is written unless ``REPRO_RECORD_RESULTS=1``.  Even then a failing run
    (an asserted band violated, a noisy machine) must never overwrite them:
    writes are deferred to teardown and dropped unless the call phase passed.
    """
    staged = []

    def _record(name: str, payload: dict) -> Path:
        staged.append((name, payload))
        return RESULTS_DIR / f"{name}.json"

    yield _record
    report = getattr(request.node, "rep_call", None)
    if RECORD_RESULTS and report is not None and report.passed:
        for name, payload in staged:
            record_result(name, payload)


@pytest.fixture(scope="session")
def simulator():
    """The gem5 + McPAT substitute used by every experiment."""
    return Simulator(simpoint_phases=SIMPOINT_PHASES, seed=2017)


@pytest.fixture(scope="session")
def dataset(simulator):
    """Labelled dataset over all 17 SPEC CPU 2017 workloads."""
    return generate_dataset(simulator, num_points=NUM_POINTS, seed=1)


@pytest.fixture(scope="session")
def split():
    """The 7/5/5 split whose test set matches Table II."""
    return paper_split(seed=0)


@pytest.fixture(scope="session")
def metadse_ipc(dataset, split):
    """MetaDSE meta-trained for IPC prediction (shared across benchmarks)."""
    model = MetaDSE(dataset.space.num_parameters, config=experiment_config(seed=0))
    model.pretrain(dataset, split, metric="ipc")
    return model


@pytest.fixture(scope="session")
def metadse_power(dataset, split):
    """MetaDSE meta-trained for power prediction."""
    model = MetaDSE(dataset.space.num_parameters, config=experiment_config(seed=0))
    model.pretrain(dataset, split, metric="power")
    return model


@pytest.fixture(scope="session")
def trendse_transformer_ipc(dataset, split):
    """TrEnDSE-Transformer pre-trained for IPC (Fig. 5 baseline)."""
    epochs = 40 if is_full_eval() else 12
    model = TrEnDSETransformer(
        dataset.space.num_parameters, pretrain_epochs=epochs, finetune_steps=20, seed=0
    )
    model.pretrain(dataset, split, metric="ipc")
    return model
