"""Equivalence of the vectorized batch path and the scalar reference path.

``Simulator.run_scalar`` is the executable specification: it pushes one
configuration at a time through the scalar analytical models, exactly as the
original substrate did.  ``Simulator.run_batch`` must reproduce its labels to
within 1e-12 for every metric, workload, and SimPoint
setting — that is the contract that lets every consumer switch to the batch
path without re-validating downstream results.
"""

import dataclasses

import numpy as np
import pytest

from repro.designspace.sampling import RandomSampler
from repro.runtime.executors import ProcessExecutor, SerialExecutor
from repro.sim.performance import PerformanceModel
from repro.sim.power import PowerModel
from repro.sim.simulator import BatchSimulationResult, SimulationResult, Simulator

METRIC_FIELDS = ("ipc", "power_w", "area_mm2", "bips", "energy_per_instruction_nj")

WORKLOAD_SAMPLE = ("605.mcf_s", "602.gcc_s", "638.imagick_s", "620.omnetpp_s")


def _max_abs_diff(batch: BatchSimulationResult, scalars: list[SimulationResult], field: str) -> float:
    reference = np.array([getattr(result, field) for result in scalars])
    return float(np.max(np.abs(getattr(batch, field) - reference)))


class TestBatchScalarEquivalence:
    @pytest.mark.parametrize("workload", WORKLOAD_SAMPLE)
    def test_phased_equivalence(self, table1_space, suite, workload):
        simulator = Simulator(table1_space, suite, simpoint_phases=6, seed=41)
        configs = RandomSampler(table1_space, seed=17).sample(24)
        batch = simulator.run_batch(configs, workload)
        scalars = [simulator.run_scalar(config, workload) for config in configs]
        for field in METRIC_FIELDS:
            assert _max_abs_diff(batch, scalars, field) <= 1e-12, field

    def test_single_phase_equivalence(self, fast_simulator, table1_space):
        configs = RandomSampler(table1_space, seed=29).sample(16)
        batch = fast_simulator.run_batch(configs, "625.x264_s")
        scalars = [fast_simulator.run_scalar(config, "625.x264_s") for config in configs]
        for field in METRIC_FIELDS:
            assert _max_abs_diff(batch, scalars, field) <= 1e-12, field

    @pytest.mark.parametrize(
        "make_executor",
        [SerialExecutor, lambda: ProcessExecutor(2)],
        ids=["serial", "process"],
    )
    def test_profile_outside_the_suite(self, table1_space, suite, make_executor):
        # run_batch accepts a WorkloadProfile; one the suite does not hold
        # must evaluate like a member, in the parent and in workers alike.
        profile = dataclasses.replace(suite["605.mcf_s"], name="custom.w")
        simulator = Simulator(table1_space, suite, simpoint_phases=3, seed=41)
        configs = RandomSampler(table1_space, seed=13).sample(6)
        with make_executor() as executor:
            batch = simulator.run_batch(configs, profile, executor=executor)
        scalars = [simulator.run_scalar(config, profile) for config in configs]
        assert batch.workload == "custom.w"
        for field in METRIC_FIELDS:
            assert _max_abs_diff(batch, scalars, field) <= 1e-12, field

    def test_run_is_batch_of_one(self, fast_simulator, default_configuration):
        single = fast_simulator.run(default_configuration, "602.gcc_s")
        batch = fast_simulator.run_batch([default_configuration], "602.gcc_s")
        assert single == batch[0]

    def test_batch_is_partition_invariant_bitwise(self, fast_simulator, table1_space):
        # A configuration's labels must not depend on which batch (or
        # executor shard) it was evaluated in: any split of the batch —
        # down to batches of one — reproduces the full batch bitwise.
        # This is what makes sharded campaigns independent of the shard
        # count (tests/test_dse_portfolio_equivalence.py).
        configs = RandomSampler(table1_space, seed=31).sample(9)
        batch = fast_simulator.run_batch(configs, "605.mcf_s")
        for splits in ([3, 3, 3], [2, 2, 2, 2, 1], [4, 5]):
            start = 0
            rows = []
            for width in splits:
                rows.append(fast_simulator.run_batch(
                    configs[start : start + width], "605.mcf_s"
                ))
                start += width
            for field in METRIC_FIELDS:
                np.testing.assert_array_equal(
                    np.concatenate([getattr(part, field) for part in rows]),
                    getattr(batch, field),
                    err_msg=f"{splits}/{field}",
                )
        for index, config in enumerate(configs):
            single = fast_simulator.run(config, "605.mcf_s")
            for field in METRIC_FIELDS:
                assert getattr(single, field) == getattr(batch, field)[index]

    def test_evaluation_count_matches_scalar_semantics(self, table1_space, suite):
        simulator = Simulator(table1_space, suite, simpoint_phases=3, seed=3)
        configs = RandomSampler(table1_space, seed=1).sample(5)
        before = simulator.evaluation_count
        batch = simulator.run_batch(configs, "605.mcf_s")
        assert simulator.evaluation_count == before + len(configs) * batch.num_phases


def _assert_fields_match(batch, scalars, tolerance=1e-12):
    """Every dataclass field of *batch* row ``i`` equals ``scalars[i]``'s."""
    for field in dataclasses.fields(batch):
        value = getattr(batch, field.name)
        if dataclasses.is_dataclass(value):
            _assert_fields_match(value, [getattr(s, field.name) for s in scalars], tolerance)
            continue
        reference = np.array([getattr(s, field.name) for s in scalars], dtype=np.float64)
        np.testing.assert_allclose(value, reference, rtol=0, atol=tolerance, err_msg=field.name)


class TestComponentBatchEquivalence:
    """Each analytical model's ``evaluate_batch`` mirrors its scalar ``evaluate``.

    The simulator-level suite above compares aggregated metrics; this one
    compares every intermediate field (miss rates, penalties, limits, area
    parts), so a compensating pair of errors cannot hide.
    """

    @pytest.fixture(scope="class")
    def encoded(self, table1_space, suite):
        configs = RandomSampler(table1_space, seed=5).sample(20)
        params, _ = Simulator(table1_space, suite, simpoint_phases=1).encode_batch(configs)
        return configs, params

    @pytest.mark.parametrize("workload", WORKLOAD_SAMPLE)
    def test_performance_breakdown(self, table1_space, suite, encoded, workload):
        configs, params = encoded
        model, profile = PerformanceModel(), suite[workload]
        batch = model.evaluate_batch(params, profile)
        _assert_fields_match(batch, [model.evaluate(c, profile, table1_space) for c in configs])

    @pytest.mark.parametrize("workload", WORKLOAD_SAMPLE)
    def test_power_breakdown(self, table1_space, suite, encoded, workload):
        configs, params = encoded
        performance, power, profile = PerformanceModel(), PowerModel(), suite[workload]
        batch = power.evaluate_batch(params, profile, performance.evaluate_batch(params, profile))
        scalars = [
            power.evaluate(c, profile, table1_space, performance.evaluate(c, profile, table1_space))
            for c in configs
        ]
        _assert_fields_match(batch, scalars)
        np.testing.assert_allclose(
            batch.total_power_w, [s.total_power_w for s in scalars], rtol=0, atol=1e-12
        )

    def test_area_is_workload_independent_and_matches_scalar(self, table1_space, encoded):
        configs, params = encoded
        model = PowerModel()
        area = model.area_batch(params)
        _assert_fields_match(area, [model.area(c, table1_space) for c in configs])
        np.testing.assert_allclose(
            area.total, [model.area(c, table1_space).total for c in configs], rtol=0, atol=1e-12
        )


class TestBatchResultContainer:
    def test_sequence_protocol(self, fast_simulator, table1_space):
        configs = RandomSampler(table1_space, seed=2).sample(4)
        batch = fast_simulator.run_batch(configs, "605.mcf_s")
        assert len(batch) == 4
        assert all(isinstance(result, SimulationResult) for result in batch)
        assert [result.ipc for result in batch] == list(batch.ipc)

    def test_objective_aliases(self, fast_simulator, table1_space):
        configs = RandomSampler(table1_space, seed=2).sample(3)
        batch = fast_simulator.run_batch(configs, "605.mcf_s")
        np.testing.assert_array_equal(batch.objective("power"), batch.power_w)
        np.testing.assert_array_equal(batch.objective("ipc"), batch.ipc)
        with pytest.raises(KeyError):
            batch.objective("latency")

    def test_run_sweep_covers_workloads(self, fast_simulator, table1_space):
        configs = RandomSampler(table1_space, seed=8).sample(3)
        sweep = fast_simulator.run_sweep(configs, ["605.mcf_s", "602.gcc_s"])
        assert sorted(sweep) == ["602.gcc_s", "605.mcf_s"]
        assert all(len(batch) == 3 for batch in sweep.values())


class TestEvaluationCache:
    def test_repeated_configs_are_free(self, table1_space, suite):
        simulator = Simulator(
            table1_space, suite, simpoint_phases=2, seed=11, evaluation_cache=True
        )
        configs = RandomSampler(table1_space, seed=3).sample(8)
        first = simulator.run_batch(configs, "605.mcf_s")
        count_after_first = simulator.evaluation_count
        second = simulator.run_batch(configs, "605.mcf_s")
        assert simulator.evaluation_count == count_after_first
        for field in METRIC_FIELDS:
            np.testing.assert_array_equal(getattr(first, field), getattr(second, field))

    def test_partial_hits_only_evaluate_novel_configs(self, table1_space, suite):
        simulator = Simulator(
            table1_space, suite, simpoint_phases=2, seed=11, evaluation_cache=True
        )
        configs = RandomSampler(table1_space, seed=3).sample(8)
        simulator.run_batch(configs[:5], "605.mcf_s")
        count = simulator.evaluation_count
        mixed = simulator.run_batch(configs, "605.mcf_s")
        phases = mixed.num_phases
        assert simulator.evaluation_count == count + 3 * phases
        # Cached and fresh rows agree with an uncached simulator.
        plain = Simulator(table1_space, suite, simpoint_phases=2, seed=11)
        reference = plain.run_batch(configs, "605.mcf_s")
        np.testing.assert_allclose(mixed.ipc, reference.ipc, rtol=0, atol=1e-12)

    def test_cache_is_per_workload(self, table1_space, suite):
        simulator = Simulator(
            table1_space, suite, simpoint_phases=1, seed=11, evaluation_cache=True
        )
        configs = RandomSampler(table1_space, seed=3).sample(4)
        a = simulator.run_batch(configs, "605.mcf_s")
        b = simulator.run_batch(configs, "602.gcc_s")
        assert not np.array_equal(a.ipc, b.ipc)
