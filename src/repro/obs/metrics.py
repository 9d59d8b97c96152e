"""Counters for the trace session (docs/observability.md).

:class:`MetricsRegistry` is a plain name → number accumulator owned by the
active :class:`~repro.obs.spans.TraceSession`; worker-side increments land
in :class:`~repro.obs.spans.WorkerTelemetry` buffers and are merged in at
splice time, so counter totals are identical across serial, thread and
process executors (the satellite contract of
``tests/test_runtime_equivalence.py``).

:func:`add_counter` routes to whatever collector is active on the calling
thread and is a no-op when tracing is off, mirroring :func:`repro.obs.span`.

Counter taxonomy (dotted, ``layer.quantity``):

``sim.configs`` / ``sim.fresh`` / ``sim.cache_hits`` / ``sim.store_hits``
    batch-simulation tier accounting (requested keys; simulated fresh;
    served by the in-memory cache; served by the persistent store).
``sim.evaluations``
    per-(config, phase) analytical-model evaluations — mirrors
    ``Simulator.evaluation_count``.
``store.flushes`` / ``store.flushed_records`` / ``store.refresh_records``
    persistent-store segment flushes, the rows they carried, and rows
    picked up from other campaigns by ``refresh``.
``dag.jobs`` / ``dag.inline_jobs``
    scheduled DAG jobs by kind (executor-submitted vs join-node inline).
``campaign.rounds`` / ``campaign.union_configs``
    campaign-runtime progress accounting.
``bandit.observations``
    portfolio arm/reward observations recorded by ``observe_round``.
"""

from __future__ import annotations

from repro.obs import spans as _spans


class MetricsRegistry:
    """Monotonic counters."""

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}

    def add(self, name: str, value: float = 1.0) -> None:
        self._counters[name] = self._counters.get(name, 0) + value

    def merge(self, counters) -> None:
        """Fold a worker buffer's counter deltas into this registry."""
        for name, value in counters.items():
            self.add(name, value)

    def counters(self) -> dict[str, float]:
        return dict(sorted(self._counters.items()))

    def snapshot(self) -> dict:
        return {"counters": self.counters()}


def add_counter(name: str, value: float = 1.0) -> None:
    """Increment a counter on the active collector; no-op when tracing is off."""
    collector = _spans._collector()
    if collector is not None:
        collector.add_counter(name, value)
