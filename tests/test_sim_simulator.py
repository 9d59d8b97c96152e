"""Tests for repro.sim.simulator (the gem5 + McPAT substitute facade)."""

import numpy as np
import pytest

from repro.designspace.sampling import RandomSampler
from repro.sim.simulator import Simulator


class TestSimulatorBasics:
    def test_workload_names(self, fast_simulator):
        assert len(fast_simulator.workload_names()) == 17

    def test_run_returns_sane_metrics(self, fast_simulator, default_configuration):
        result = fast_simulator.run(default_configuration, "602.gcc_s")
        assert result.ipc > 0
        assert result.power_w > 0
        assert result.area_mm2 > 0
        assert result.bips == pytest.approx(
            result.ipc * default_configuration["core_frequency_ghz"]
        )
        assert result.energy_per_instruction_nj > 0

    def test_run_accepts_profile_objects(self, fast_simulator, suite, default_configuration):
        by_name = fast_simulator.run(default_configuration, "605.mcf_s")
        by_profile = fast_simulator.run(default_configuration, suite["605.mcf_s"])
        assert by_name.ipc == pytest.approx(by_profile.ipc)

    def test_unknown_workload_raises(self, fast_simulator, default_configuration):
        with pytest.raises(KeyError):
            fast_simulator.run(default_configuration, "500.perlbench_r")

    def test_invalid_config_raises(self, fast_simulator, default_configuration):
        bad = dict(default_configuration, rob_size=999)
        with pytest.raises(Exception):
            fast_simulator.run(bad, "602.gcc_s")

    def test_run_batch(self, fast_simulator, table1_space):
        configs = RandomSampler(table1_space, seed=0).sample(4)
        results = fast_simulator.run_batch(configs, "625.x264_s")
        assert len(results) == 4

    def test_convenience_accessors(self, fast_simulator, default_configuration):
        assert fast_simulator.ipc(default_configuration, "602.gcc_s") > 0
        assert fast_simulator.power(default_configuration, "602.gcc_s") > 0

    def test_evaluation_counter_increases(self, table1_space, suite, default_configuration):
        simulator = Simulator(table1_space, suite, simpoint_phases=1, seed=0)
        before = simulator.evaluation_count
        simulator.run(default_configuration, "602.gcc_s")
        assert simulator.evaluation_count == before + 1


class TestDeterminismAndNoise:
    def test_deterministic_without_noise(self, table1_space, suite, default_configuration):
        a = Simulator(table1_space, suite, simpoint_phases=3, seed=5)
        b = Simulator(table1_space, suite, simpoint_phases=3, seed=5)
        ra = a.run(default_configuration, "605.mcf_s")
        rb = b.run(default_configuration, "605.mcf_s")
        assert ra.ipc == pytest.approx(rb.ipc)
        assert ra.power_w == pytest.approx(rb.power_w)

    def test_repeated_runs_are_identical(self, table1_space, suite, default_configuration):
        simulator = Simulator(table1_space, suite, simpoint_phases=1, seed=1)
        values = {simulator.run(default_configuration, "602.gcc_s").ipc for _ in range(3)}
        assert len(values) == 1

    def test_invalid_phase_count_rejected(self, table1_space, suite):
        with pytest.raises(ValueError):
            Simulator(table1_space, suite, simpoint_phases=0)


class TestSimPointHandling:
    def test_single_phase_mode(self, fast_simulator, default_configuration):
        result = fast_simulator.run(default_configuration, "602.gcc_s")
        assert result.num_phases == 1

    def test_phased_mode_uses_multiple_phases(self, phased_simulator, default_configuration):
        result = phased_simulator.run(default_configuration, "605.mcf_s")
        assert result.num_phases >= 2

    def test_simpoints_are_cached(self, phased_simulator):
        first = phased_simulator.simpoints_for("605.mcf_s")
        second = phased_simulator.simpoints_for("605.mcf_s")
        assert first is second

    def test_phase_aggregate_within_phase_range(self, table1_space, suite, default_configuration):
        simulator = Simulator(table1_space, suite, simpoint_phases=6, seed=3)
        profile = suite["602.gcc_s"]
        simpoints = simulator.simpoints_for(profile)
        per_phase = [
            simulator.performance_model.evaluate(default_configuration, p.profile, table1_space).ipc
            for p in simpoints
        ]
        aggregate = simulator.run(default_configuration, profile).ipc
        assert min(per_phase) - 1e-9 <= aggregate <= max(per_phase) + 1e-9


class TestCrossWorkloadStructure:
    def test_workload_rankings_differ_between_configs(self, fast_simulator, table1_space):
        """Different workloads must react differently to the same configs.

        This is the property that makes cross-workload DSE non-trivial (and
        motivates Fig. 2 of the paper).
        """
        configs = RandomSampler(table1_space, seed=11).sample(20)
        ipc_matrix = np.array([
            [fast_simulator.run(c, w).ipc for c in configs]
            for w in ("605.mcf_s", "638.imagick_s")
        ])
        correlation = np.corrcoef(ipc_matrix)[0, 1]
        assert correlation < 0.999
