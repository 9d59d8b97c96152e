"""Tests for executors and deterministic sharding (`repro.runtime`)."""

import os

import numpy as np
import pytest

from repro.runtime.executors import (
    BroadcastHandle,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    default_jobs,
    resolve_broadcast,
    resolve_executor,
)
from repro.runtime.sharding import plan_sweep_shards, split_evenly


def _square(x):
    return x * x


def _raise(message):
    raise ValueError(message)


def _resolved_value(handle):
    return resolve_broadcast(handle).value


class _Payload:
    """Picklable value with an observable identity for broadcast tests."""

    def __init__(self, value):
        self.value = value


class _CountingPayload(_Payload):
    """Payload that records every parent-side pickle (module-level so the
    pickled bytes reconstruct in worker processes)."""

    pickles: list = []

    def __getstate__(self):
        type(self).pickles.append(1)
        return self.__dict__


class TestSerialExecutor:
    def test_submit_runs_inline_and_returns_future(self):
        future = SerialExecutor().submit(_square, 7)
        assert future.done()
        assert future.result() == 49

    def test_exception_is_captured_in_the_future(self):
        future = SerialExecutor().submit(_raise, "nope")
        with pytest.raises(ValueError, match="nope"):
            future.result()

    def test_jobs_is_one(self):
        assert SerialExecutor().jobs == 1


class TestPoolExecutors:
    @pytest.mark.parametrize("executor_cls", [ThreadExecutor, ProcessExecutor])
    def test_submitted_tasks_run_concurrently_to_their_futures(self, executor_cls):
        with executor_cls(2) as executor:
            futures = [executor.submit(_square, i) for i in range(10)]
            results = [future.result() for future in futures]
        assert results == [i * i for i in range(10)]

    def test_context_manager_shuts_down(self):
        executor = ThreadExecutor(2)
        with executor:
            executor.submit(_square, 2).result()
        assert executor._pool is None

    def test_shutdown_is_idempotent(self):
        executor = ThreadExecutor(2)
        executor.shutdown()
        executor.shutdown()

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            ThreadExecutor(0)

    @pytest.mark.parametrize("executor_cls", [ThreadExecutor, ProcessExecutor])
    def test_width_defaults_to_one_worker_per_core_and_starts_lazily(self, executor_cls):
        executor = executor_cls()
        assert executor.jobs == default_jobs() == (os.cpu_count() or 1)
        assert executor._pool is None
        executor.shutdown()


class TestResolveExecutor:
    def test_none_jobs_is_serial(self):
        # Every campaign runs on an executor: the default is the serial one.
        assert isinstance(resolve_executor(None), SerialExecutor)

    def test_jobs_one_is_serial(self):
        assert isinstance(resolve_executor(1), SerialExecutor)
        assert isinstance(resolve_executor(4, "serial"), SerialExecutor)

    def test_kinds(self):
        thread = resolve_executor(3, "thread")
        process = resolve_executor(3, "process")
        try:
            assert isinstance(thread, ThreadExecutor) and thread.jobs == 3
            assert isinstance(process, ProcessExecutor) and process.jobs == 3
        finally:
            thread.shutdown()
            process.shutdown()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown executor kind"):
            resolve_executor(2, "gpu")

    def test_nonpositive_jobs_rejected(self):
        with pytest.raises(ValueError):
            resolve_executor(0)


class TestBroadcast:
    def test_in_process_executors_broadcast_by_identity(self):
        payload = _Payload(3)
        assert SerialExecutor().broadcast(payload) is payload
        with ThreadExecutor(2) as executor:
            assert executor.broadcast(payload) is payload

    def test_resolve_passes_non_handles_through(self):
        payload = _Payload(5)
        assert resolve_broadcast(payload) is payload
        assert resolve_broadcast(None) is None

    def test_process_broadcast_resolves_in_workers_cold_pool(self):
        payload = _Payload(11)
        with ProcessExecutor(2) as executor:
            handle = executor.broadcast(payload)
            assert isinstance(handle, BroadcastHandle)
            # Cold pool: the initializer delivers the value, the handle
            # travels without a payload copy.
            assert handle.payload is None
            futures = [executor.submit(_resolved_value, handle) for _ in range(6)]
            results = [future.result() for future in futures]
        assert results == [11] * 6

    def test_process_broadcast_resolves_in_workers_warm_pool(self):
        payload = _Payload(13)
        with ProcessExecutor(2) as executor:
            executor.submit(_square, 2).result()  # warm the pool first
            handle = executor.broadcast(payload)
            # Warm pool: workers may predate the broadcast, so the handle
            # carries the pickled payload as a fallback.
            assert handle.payload is not None
            futures = [executor.submit(_resolved_value, handle) for _ in range(6)]
            results = [future.result() for future in futures]
        assert results == [13] * 6

    def test_rebroadcasting_the_same_object_pickles_once(self):
        _CountingPayload.pickles = []
        counted = _CountingPayload(7)
        with ProcessExecutor(2) as executor:
            first = executor.broadcast(counted)
            second = executor.broadcast(counted)
        assert first.key == second.key
        assert len(_CountingPayload.pickles) == 1

    def test_unknown_handle_without_payload_is_an_error(self):
        with pytest.raises(RuntimeError, match="not installed"):
            resolve_broadcast(BroadcastHandle("missing-key"))


class TestSimulatorBroadcast:
    """The simulator crosses the pickle boundary once per pool, not per shard."""

    def test_sweep_pickles_simulator_once_across_sweeps(self, monkeypatch):
        from repro.designspace.sampling import RandomSampler
        from repro.sim.simulator import Simulator

        calls = []
        original = Simulator.__getstate__

        def counting(self):
            calls.append(1)
            return original(self)

        monkeypatch.setattr(Simulator, "__getstate__", counting)
        simulator = Simulator(simpoint_phases=1, seed=3)
        configs = RandomSampler(simulator.space, seed=5).sample(8)
        workloads = ("605.mcf_s", "625.x264_s")
        with ProcessExecutor(2) as executor:
            first = simulator.run_sweep(configs, workloads, executor=executor)
            second = simulator.run_sweep(configs, workloads, executor=executor)
        # Two sweeps over two workloads fan out many shard tasks, yet the
        # simulator is pickled exactly once (at broadcast time).
        assert len(calls) == 1
        reference = simulator.run_sweep(configs, workloads)
        for workload in workloads:
            np.testing.assert_array_equal(first[workload].ipc, reference[workload].ipc)
            np.testing.assert_array_equal(second[workload].ipc, reference[workload].ipc)

    def test_thread_sweep_does_not_pickle_at_all(self, monkeypatch):
        from repro.designspace.sampling import RandomSampler
        from repro.sim.simulator import Simulator

        calls = []
        original = Simulator.__getstate__

        def counting(self):
            calls.append(1)
            return original(self)

        monkeypatch.setattr(Simulator, "__getstate__", counting)
        simulator = Simulator(simpoint_phases=1, seed=3)
        configs = RandomSampler(simulator.space, seed=5).sample(6)
        with ThreadExecutor(2) as executor:
            simulator.run_sweep(configs, ("605.mcf_s",), executor=executor)
        assert calls == []


class TestSplitEvenly:
    def test_concatenation_reproduces_the_range(self):
        for count in (0, 1, 5, 16, 17, 100):
            for parts in (1, 2, 3, 7, 32):
                shards = split_evenly(count, parts)
                flat = [i for shard in shards for i in shard]
                assert flat == list(range(count)), (count, parts)

    def test_sizes_differ_by_at_most_one(self):
        shards = split_evenly(17, 5)
        sizes = [len(shard) for shard in shards]
        assert max(sizes) - min(sizes) <= 1
        assert len(shards) == 5

    def test_small_counts_drop_empty_shards(self):
        assert len(split_evenly(3, 8)) == 3
        assert split_evenly(0, 4) == []

    def test_is_deterministic(self):
        assert split_evenly(100, 7) == split_evenly(100, 7)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            split_evenly(-1, 2)
        with pytest.raises(ValueError):
            split_evenly(5, 0)


class TestPlanSweepShards:
    def test_enough_tasks_to_occupy_every_worker(self):
        for num_workloads in (1, 3, 8, 17):
            for jobs in (1, 2, 4, 16):
                shards = plan_sweep_shards(64, num_workloads, jobs)
                assert num_workloads * len(shards) >= min(jobs, 64)

    def test_workloads_beyond_jobs_use_one_shard_each(self):
        assert len(plan_sweep_shards(100, 8, 4)) == 1

    def test_shards_cover_all_configs(self):
        shards = plan_sweep_shards(33, 2, 8)
        assert [i for shard in shards for i in shard] == list(range(33))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            plan_sweep_shards(10, 0, 2)
        with pytest.raises(ValueError):
            plan_sweep_shards(10, 2, 0)
