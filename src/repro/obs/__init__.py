"""Observability: zero-perturbation tracing and metrics (docs/observability.md).

The package follows the house policy-API style (``repro.nn.precision``,
``repro.nn.parallel``): a process-global session activated by a scoped
context manager, off by default with near-zero cost.

    from repro.obs import tracing, span

    with tracing("campaign.trace.jsonl"):
        with span("campaign.round", round=0):
            ...

The load-bearing invariant is **tracing on == tracing off bitwise**: spans
never touch RNG streams and never reorder work — they only read wall
clocks and append to an in-memory buffer that is published atomically
(temp + fsync + rename, the measurement-store discipline).  Worker-side
spans and counters under ``ThreadExecutor``/``ProcessExecutor`` are
recorded into :class:`WorkerTelemetry` buffers and carried back through
the existing join paths, then spliced under their parent span in shard
order, so the trace joins up identically across executors.
"""

from repro.obs.metrics import MetricsRegistry, add_counter
from repro.obs.report import render_summary, render_timeline, summarize_trace, timeline_rows
from repro.obs.sink import TRACE_VERSION, TraceSink, read_trace, validate_trace
from repro.obs.spans import (
    TraceSession,
    WorkerTelemetry,
    capture,
    event,
    record_span,
    run_captured,
    span,
    splice,
    trace_active,
    tracing,
)

__all__ = [
    "MetricsRegistry",
    "TRACE_VERSION",
    "TraceSession",
    "TraceSink",
    "WorkerTelemetry",
    "add_counter",
    "capture",
    "event",
    "read_trace",
    "record_span",
    "render_summary",
    "render_timeline",
    "run_captured",
    "span",
    "splice",
    "summarize_trace",
    "timeline_rows",
    "trace_active",
    "tracing",
    "validate_trace",
]
