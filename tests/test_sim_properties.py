"""Property-based tests of the simulation substrate over random design points.

The directed simulator tests check specific architectural intuitions on
hand-picked configurations; these hypothesis tests assert the invariants that
must hold for *every* point of the Table I space, because the dataset
generator feeds arbitrary sampled configurations straight into the models.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.designspace.spec import build_table1_space
from repro.sim.simulator import Simulator
from repro.workloads.spec2017 import spec2017_suite

# Module-level substrate shared by the hypothesis tests (hypothesis forbids
# function-scoped fixtures, so these are built once here).
SPACE = build_table1_space()
SUITE = spec2017_suite()
SIMULATOR = Simulator(SPACE, SUITE, simpoint_phases=1, seed=7)

#: Strategy producing a valid configuration as a per-parameter index vector.
configuration_indices = st.tuples(
    *[st.integers(min_value=0, max_value=p.cardinality - 1) for p in SPACE.parameters]
)

#: A behaviourally diverse subset of workloads (memory-, branch- and FP-bound).
PROPERTY_WORKLOADS = ("605.mcf_s", "641.leela_s", "649.fotonik3d_s", "625.x264_s")

RELAXED = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@RELAXED
@given(indices=configuration_indices, workload=st.sampled_from(PROPERTY_WORKLOADS))
def test_every_configuration_yields_sane_metrics(indices, workload):
    """IPC, power, area and energy are positive, finite and self-consistent."""
    config = SPACE.from_indices(list(indices))
    result = SIMULATOR.run(config, workload)

    assert np.isfinite(result.ipc) and result.ipc > 0
    assert np.isfinite(result.power_w) and result.power_w > 0
    assert np.isfinite(result.area_mm2) and result.area_mm2 > 0
    assert np.isfinite(result.energy_per_instruction_nj) and result.energy_per_instruction_nj > 0

    # IPC cannot exceed the machine width (no value prediction in the model).
    assert result.ipc <= config["pipeline_width"] + 1e-9
    # BIPS and energy are consistent with IPC, frequency and power.
    assert result.bips == pytest.approx(result.ipc * config["core_frequency_ghz"], rel=1e-6)
    assert result.energy_per_instruction_nj == pytest.approx(
        result.power_w / result.bips, rel=1e-6
    )


@RELAXED
@given(indices=configuration_indices, workload=st.sampled_from(PROPERTY_WORKLOADS))
def test_simulation_is_deterministic(indices, workload):
    """The noiseless simulator is a pure function of (configuration, workload)."""
    config = SPACE.from_indices(list(indices))
    first = SIMULATOR.run(config, workload)
    second = SIMULATOR.run(config, workload)
    assert first.ipc == second.ipc
    assert first.power_w == second.power_w
    assert first.area_mm2 == second.area_mm2


@RELAXED
@given(indices=configuration_indices)
def test_frequency_scaling_monotonicity(indices):
    """At a fixed microarchitecture, higher frequency never reduces BIPS and
    never reduces power (the analytical model has no thermal throttling)."""
    config = dict(SPACE.from_indices(list(indices)))
    frequencies = [1.0, 2.0, 3.0]
    bips, power = [], []
    for frequency in frequencies:
        config["core_frequency_ghz"] = frequency
        result = SIMULATOR.run(config, "625.x264_s")
        bips.append(result.bips)
        power.append(result.power_w)
    assert bips[0] <= bips[1] + 1e-9 <= bips[2] + 2e-9
    assert power[0] <= power[1] + 1e-9 <= power[2] + 2e-9


@RELAXED
@given(indices=configuration_indices)
def test_structure_growth_never_shrinks_area(indices):
    """Growing the ROB and register files never shrinks the core's area."""
    small = dict(SPACE.from_indices(list(indices)))
    small["rob_size"] = 32
    small["int_rf_size"] = 64
    small["fp_rf_size"] = 64
    large = dict(small)
    large["rob_size"] = 256
    large["int_rf_size"] = 256
    large["fp_rf_size"] = 256
    assert (
        SIMULATOR.run(large, "625.x264_s").area_mm2
        >= SIMULATOR.run(small, "625.x264_s").area_mm2 - 1e-9
    )


@RELAXED
@given(indices=configuration_indices, workload=st.sampled_from(PROPERTY_WORKLOADS))
def test_bigger_caches_do_not_hurt_ipc(indices, workload):
    """At equal latency parameters, enlarging both cache levels never lowers IPC."""
    small = dict(SPACE.from_indices(list(indices)))
    small["l1i_size_kb"] = 16
    small["l2_size_kb"] = 128
    large = dict(small)
    large["l1i_size_kb"] = 64
    large["l2_size_kb"] = 256
    assert SIMULATOR.run(large, workload).ipc >= SIMULATOR.run(small, workload).ipc - 1e-9


def test_workloads_disagree_about_the_best_configuration():
    """Cross-workload DSE is only interesting because rankings differ; verify
    the substrate preserves that motivating property over a random pool."""
    from repro.designspace.sampling import RandomSampler

    configs = RandomSampler(SPACE, seed=5).sample(60)
    # Spearman's rho: the correlation of the two rankings.
    ranks = {
        workload: np.argsort(
            np.argsort([SIMULATOR.run(c, workload).ipc for c in configs])
        )
        for workload in ("605.mcf_s", "648.exchange2_s")
    }
    rho = np.corrcoef(ranks["605.mcf_s"], ranks["648.exchange2_s"])[0, 1]
    # Correlated (same machine) but far from identical (different bottlenecks).
    assert rho < 0.98
