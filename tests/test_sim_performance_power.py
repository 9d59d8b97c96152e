"""Tests for repro.sim.performance and repro.sim.power."""

import numpy as np
import pytest

from repro.sim.performance import PerformanceModel
from repro.sim.power import PowerModel
from repro.sim.technology import DEFAULT_TECHNOLOGY, TechnologyParameters
from repro.workloads.spec2017 import build_spec2017_profiles


@pytest.fixture(scope="module")
def profiles():
    return build_spec2017_profiles()


@pytest.fixture(scope="module")
def performance_model():
    return PerformanceModel()


@pytest.fixture(scope="module")
def power_model():
    return PowerModel()


def beefy(space):
    config = space.from_indices(space.cardinalities() // 2)
    config.update(
        pipeline_width=8, rob_size=256, inst_queue_size=80,
        int_rf_size=256, fp_rf_size=256, load_queue_size=48, store_queue_size=48,
        l1i_size_kb=64, l2_size_kb=256, branch_predictor="TournamentBP",
    )
    return config


def wimpy(space):
    config = space.from_indices(space.cardinalities() // 2)
    config.update(
        pipeline_width=1, rob_size=32, inst_queue_size=16,
        int_rf_size=64, fp_rf_size=64, load_queue_size=20, store_queue_size=20,
        l1i_size_kb=16, l2_size_kb=128, branch_predictor="BiModeBP",
    )
    return config


class TestPerformanceModel:
    def test_ipc_positive_and_bounded(self, performance_model, table1_space, profiles):
        config = table1_space.from_indices(table1_space.cardinalities() // 2)
        for workload in profiles.values():
            result = performance_model.evaluate(config, workload, table1_space)
            assert 0.0 < result.ipc <= config["pipeline_width"]
            assert result.cpi == pytest.approx(1.0 / result.ipc)

    def test_beefy_core_beats_wimpy_core(self, performance_model, table1_space, profiles):
        for name in ("602.gcc_s", "625.x264_s", "638.imagick_s"):
            workload = profiles[name]
            big = performance_model.evaluate(beefy(table1_space), workload, table1_space)
            small = performance_model.evaluate(wimpy(table1_space), workload, table1_space)
            assert big.ipc > small.ipc

    def test_compute_bound_codes_reach_higher_ipc(self, performance_model, table1_space, profiles):
        config = beefy(table1_space)
        imagick = performance_model.evaluate(config, profiles["638.imagick_s"], table1_space)
        mcf = performance_model.evaluate(config, profiles["605.mcf_s"], table1_space)
        assert imagick.ipc > 2.0 * mcf.ipc

    def test_bips_is_ipc_times_frequency(self, performance_model, table1_space, profiles):
        config = table1_space.from_indices(table1_space.cardinalities() // 2)
        result = performance_model.evaluate(config, profiles["602.gcc_s"], table1_space)
        assert result.bips == pytest.approx(result.ipc * config["core_frequency_ghz"])

    def test_frequency_helps_compute_bound_more(self, performance_model, table1_space, profiles):
        base = table1_space.from_indices(table1_space.cardinalities() // 2)
        slow = dict(base, core_frequency_ghz=1.0)
        fast = dict(base, core_frequency_ghz=3.0)
        compute = profiles["648.exchange2_s"]
        memory = profiles["605.mcf_s"]
        compute_gain = (
            performance_model.evaluate(fast, compute, table1_space).bips
            / performance_model.evaluate(slow, compute, table1_space).bips
        )
        memory_gain = (
            performance_model.evaluate(fast, memory, table1_space).bips
            / performance_model.evaluate(slow, memory, table1_space).bips
        )
        assert compute_gain > memory_gain


class TestPowerModel:
    def test_power_positive(self, performance_model, power_model, table1_space, profiles):
        config = table1_space.from_indices(table1_space.cardinalities() // 2)
        for workload in profiles.values():
            perf = performance_model.evaluate(config, workload, table1_space)
            power = power_model.evaluate(config, workload, table1_space, perf)
            assert power.dynamic_power_w > 0
            assert power.static_power_w > 0

    def test_bigger_core_burns_more_power(self, performance_model, power_model, table1_space, profiles):
        workload = profiles["602.gcc_s"]
        big_cfg, small_cfg = beefy(table1_space), wimpy(table1_space)
        big = power_model.evaluate(
            big_cfg, workload, table1_space,
            performance_model.evaluate(big_cfg, workload, table1_space),
        )
        small = power_model.evaluate(
            small_cfg, workload, table1_space,
            performance_model.evaluate(small_cfg, workload, table1_space),
        )
        assert big.total_power_w > small.total_power_w
        assert big.area_mm2 > small.area_mm2

    def test_higher_frequency_costs_power(self, performance_model, power_model, table1_space, profiles):
        workload = profiles["625.x264_s"]
        base = table1_space.from_indices(table1_space.cardinalities() // 2)
        slow = dict(base, core_frequency_ghz=1.0)
        fast = dict(base, core_frequency_ghz=3.0)
        slow_power = power_model.evaluate(
            slow, workload, table1_space,
            performance_model.evaluate(slow, workload, table1_space),
        )
        fast_power = power_model.evaluate(
            fast, workload, table1_space,
            performance_model.evaluate(fast, workload, table1_space),
        )
        assert fast_power.total_power_w > slow_power.total_power_w

    def test_area_breakdown_sums(self, power_model, table1_space):
        area = power_model.area(table1_space.from_indices(table1_space.cardinalities() // 2), table1_space)
        parts = (
            area.core_logic + area.register_files + area.queues
            + area.caches + area.branch_unit + area.functional_units
        )
        assert area.total == pytest.approx(parts)

    def test_tournament_predictor_larger_than_bimode(self, power_model, table1_space):
        base = table1_space.from_indices(table1_space.cardinalities() // 2)
        bimode = power_model.area(dict(base, branch_predictor="BiModeBP"), table1_space)
        tournament = power_model.area(dict(base, branch_predictor="TournamentBP"), table1_space)
        assert tournament.branch_unit > bimode.branch_unit


class TestTechnology:
    def test_vdd_is_nominal_at_the_reference_frequency(self):
        tech = DEFAULT_TECHNOLOGY
        assert tech.vdd_at(tech.reference_frequency_ghz) == tech.nominal_vdd

    def test_vdd_follows_the_dvfs_line_and_its_floor(self):
        tech = TechnologyParameters(nominal_vdd=0.9, vdd_slope_per_ghz=0.05)
        assert tech.vdd_at(3.0) == pytest.approx(0.95)
        assert tech.vdd_at(1.0) == pytest.approx(0.85)
        assert TechnologyParameters(vdd_slope_per_ghz=0.5).vdd_at(0.5) == 0.6

    def test_vdd_of_a_vector_matches_each_scalar(self):
        frequencies = np.array([1.0, 1.5, 2.0, 2.5, 3.0])
        expected = [DEFAULT_TECHNOLOGY.vdd_at(float(f)) for f in frequencies]
        np.testing.assert_array_equal(DEFAULT_TECHNOLOGY.vdd_at(frequencies), expected)

    def test_dram_latency_is_fixed_in_time(self):
        tech = DEFAULT_TECHNOLOGY
        assert tech.dram_latency_cycles(2.0) == tech.dram_latency_ns * 2.0
        assert tech.dram_latency_cycles(3.0) / tech.dram_latency_cycles(1.5) == pytest.approx(2.0)

    def test_l2_latency_grows_slower_than_frequency(self):
        tech = DEFAULT_TECHNOLOGY
        assert tech.l2_latency_cycles(tech.reference_frequency_ghz) == pytest.approx(
            tech.l2_hit_cycles
        )
        slow, fast = tech.l2_latency_cycles(1.0), tech.l2_latency_cycles(4.0)
        assert slow < tech.l2_hit_cycles < fast
        assert fast / slow < 4.0

