"""Simulator integration tests for the persistent measurement store tier.

The lookup order is ``in-memory cache -> store -> simulate``: store hits
must be bitwise identical to fresh simulation, skip the evaluation counter,
and survive process-pool pickling (workers reopen the store read-only).
Also covers the bounded evaluation cache (FIFO eviction) riding on top.
"""

import numpy as np
import pytest

from repro.designspace.sampling import RandomSampler
from repro.runtime.executors import ProcessExecutor, ThreadExecutor
from repro.sim.simulator import Simulator
from repro.store import MeasurementStore, StoreMismatchError, fingerprint_digest

METRICS = ("ipc", "power_w", "area_mm2", "bips", "energy_per_instruction_nj")
WORKLOADS = ("605.mcf_s", "625.x264_s")


def make_simulator(tmp_path=None, **kwargs):
    kwargs.setdefault("simpoint_phases", 3)
    kwargs.setdefault("seed", 17)
    if tmp_path is not None:
        kwargs.setdefault("store", str(tmp_path / "m.store"))
    return Simulator(**kwargs)


def sample_configs(simulator, n, seed=0):
    return RandomSampler(simulator.space, seed=seed).sample(n)


def assert_batches_equal(a, b):
    for metric in METRICS:
        np.testing.assert_array_equal(getattr(a, metric), getattr(b, metric))


class TestStoreTier:
    def test_warm_simulator_serves_everything_from_store(self, tmp_path):
        cold = make_simulator(tmp_path)
        configs = sample_configs(cold, 15)
        reference = cold.run_batch(configs, "605.mcf_s")
        assert cold.evaluation_count == 15 * 3
        assert cold.store_hit_count == 0

        warm = make_simulator(tmp_path)
        result = warm.run_batch(configs, "605.mcf_s")
        assert warm.evaluation_count == 0
        assert warm.store_hit_count == 15
        assert_batches_equal(reference, result)

    def test_store_works_without_evaluation_cache(self, tmp_path):
        cold = make_simulator(tmp_path, evaluation_cache=False)
        configs = sample_configs(cold, 6)
        reference = cold.run_batch(configs, "605.mcf_s")
        # Same batch again: the store (not the absent cache) serves it.
        again = cold.run_batch(configs, "605.mcf_s")
        assert cold.evaluation_count == 6 * 3
        assert cold.store_hit_count == 6
        assert_batches_equal(reference, again)

    def test_memory_cache_shields_the_store(self, tmp_path):
        simulator = make_simulator(tmp_path, evaluation_cache=True)
        configs = sample_configs(simulator, 6)
        simulator.run_batch(configs, "605.mcf_s")
        simulator.run_batch(configs, "605.mcf_s")
        # Second pass hit the in-memory dict, never reached the store tier.
        assert simulator.store_hit_count == 0

    def test_flush_happens_per_run_batch_join(self, tmp_path):
        simulator = make_simulator(tmp_path)
        for i in range(3):
            simulator.run_batch(sample_configs(simulator, 4, seed=i), "605.mcf_s")
        assert simulator.store.stats().num_segments == 3
        assert len(simulator.store) == 12

    def test_run_sweep_flushes_once(self, tmp_path):
        simulator = make_simulator(tmp_path)
        simulator.run_sweep(sample_configs(simulator, 5), WORKLOADS)
        stats = simulator.store.stats()
        assert stats.num_segments == 1
        assert stats.num_records == 10  # 5 configs x 2 workloads

    @pytest.mark.parametrize("executor_factory", [
        lambda: ThreadExecutor(jobs=2),
        lambda: ProcessExecutor(jobs=2),
    ], ids=["thread", "process"])
    def test_parallel_workers_see_the_store(self, tmp_path, executor_factory):
        cold = make_simulator(tmp_path, evaluation_cache=True)
        configs = sample_configs(cold, 8)
        reference = cold.run_sweep(configs, WORKLOADS)
        assert cold.evaluation_count == 8 * 3 * len(WORKLOADS)

        warm = make_simulator(tmp_path, evaluation_cache=True)
        with executor_factory() as executor:
            result = warm.run_sweep(configs, WORKLOADS, executor=executor)
        # Workers looked the rows up in the (read-only) store — no shard
        # re-simulated anything, even in the process pool whose workers
        # start with an empty cache copy.
        assert warm.evaluation_count == 0
        assert warm.store_hit_count == 8 * len(WORKLOADS)
        for workload in WORKLOADS:
            assert_batches_equal(reference[workload], result[workload])

    def test_scalar_and_batch_paths_agree_through_the_store(self, tmp_path):
        simulator = make_simulator(tmp_path)
        config = sample_configs(simulator, 1)[0]
        batch = simulator.run(config, "605.mcf_s")
        warm = make_simulator(tmp_path)
        served = warm.run(config, "605.mcf_s")
        assert warm.evaluation_count == 0
        assert served == batch


class TestValidation:
    def test_fingerprint_digest_is_pinned(self):
        # Existing stores are matched by this digest; a change to the
        # fingerprint's fields (or to its constant "noise_free": True)
        # would orphan every store written before it.
        fingerprint = make_simulator().measurement_fingerprint()
        assert fingerprint["noise_free"] is True
        assert fingerprint_digest(fingerprint) == (
            "02841bb5cd4cced35b4227d4e1726743314aae0e5d79b24acdcadc42f625148a"
        )

    def test_attach_twice_is_rejected(self, tmp_path):
        simulator = make_simulator(tmp_path)
        with pytest.raises(ValueError, match="already attached"):
            simulator.attach_store(str(tmp_path / "other.store"))

    def test_mismatched_store_is_rejected_typed(self, tmp_path):
        make_simulator(tmp_path)  # creates the store with phases=3
        with pytest.raises(StoreMismatchError):
            make_simulator(tmp_path, simpoint_phases=5)

    def test_attach_preopened_store_checks_fingerprint(self, tmp_path):
        donor = make_simulator(simpoint_phases=5)
        store = MeasurementStore(
            tmp_path / "m.store", donor.measurement_fingerprint()
        )
        simulator = make_simulator()  # phases=3
        with pytest.raises(StoreMismatchError):
            simulator.attach_store(store)

    def test_fingerprint_is_stable_across_instances(self):
        a = make_simulator().measurement_fingerprint()
        b = make_simulator().measurement_fingerprint()
        assert a == b
        assert make_simulator(seed=18).measurement_fingerprint() != a

    def test_refresh_store_without_store_is_noop(self):
        assert make_simulator().refresh_store() == 0
