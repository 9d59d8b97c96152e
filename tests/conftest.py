"""Shared fixtures for the test suite.

Everything heavier than a unit test (dataset generation, simulators) is
session-scoped so the suite stays fast on a single CPU core.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# Allow running the tests from a fresh checkout without installing the
# package (pip installs are not always possible in offline environments).
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.datasets.generation import generate_dataset  # noqa: E402
from repro.datasets.splits import WorkloadSplit  # noqa: E402
from repro.designspace.spec import build_table1_space  # noqa: E402
from repro.sim.simulator import Simulator  # noqa: E402
from repro.workloads.spec2017 import spec2017_suite  # noqa: E402

#: Workloads used by the fast integration fixtures (kept small on purpose).
FAST_WORKLOADS = (
    "605.mcf_s",
    "625.x264_s",
    "648.exchange2_s",
    "602.gcc_s",
    "638.imagick_s",
    "620.omnetpp_s",
)


@pytest.fixture(scope="session")
def table1_space():
    """The full Table I design space."""
    return build_table1_space()


@pytest.fixture(scope="session")
def suite():
    """The 17-workload SPEC CPU 2017 suite."""
    return spec2017_suite()


@pytest.fixture(scope="session")
def fast_simulator(table1_space, suite):
    """A deterministic single-phase simulator (fast, fully analytical)."""
    return Simulator(table1_space, suite, simpoint_phases=1, seed=123)


@pytest.fixture(scope="session")
def phased_simulator(table1_space, suite):
    """A simulator with SimPoint phase decomposition enabled."""
    return Simulator(table1_space, suite, simpoint_phases=5, seed=123)


@pytest.fixture(scope="session")
def small_dataset(fast_simulator):
    """A small labelled dataset over six workloads (session-scoped)."""
    return generate_dataset(
        fast_simulator, workloads=list(FAST_WORKLOADS), num_points=120, seed=7
    )


@pytest.fixture(scope="session")
def small_split():
    """A train/validation/test split over the fast workloads."""
    return WorkloadSplit(
        train=("625.x264_s", "648.exchange2_s", "602.gcc_s"),
        validation=("638.imagick_s",),
        test=("605.mcf_s", "620.omnetpp_s"),
    )


@pytest.fixture()
def default_configuration(table1_space):
    """A valid mid-range configuration of the Table I space."""
    return table1_space.from_indices(table1_space.cardinalities() // 2)
