"""Process-global trace session, spans, and worker-side capture buffers.

Policy-API shape (``repro.nn.precision`` is the exemplar): a module-global
session installed by the :func:`tracing` context manager, restored on
exit even under exceptions.  With no session installed every entry point
(:func:`span`, :func:`event`, counter helpers) is a near-zero-cost no-op
— two attribute reads and an early return — so instrumented code paths
cost nothing in the default, untraced configuration.

Two collectors implement the same small protocol:

* :class:`TraceSession` — the parent-side collector.  Assigns global span
  ids, buffers records into the :class:`~repro.obs.sink.TraceSink`, and
  owns the :class:`~repro.obs.metrics.MetricsRegistry`.  Spans are
  *emitted at close* (children therefore appear before their parents in
  the file; ids resolve the tree), which is what lets
  ``validate_trace`` certify "every span closed" from the end record.
* :class:`WorkerTelemetry` — a plain list-of-dicts buffer used inside
  executor tasks.  Workers never talk to the session (it does not exist
  in a spawned process); they record into a buffer that rides back on
  the task's return value through the existing join path, and the parent
  :func:`splice`\\ s it under the enclosing span in shard order.  Because
  the capture wrapper is installed for **every** executor kind, the trace
  has the same shape under serial, thread and process executors.

Timestamps are ``time.time()`` (epoch seconds): unlike ``perf_counter``,
whose epoch is per-process, wall-clock instants from process workers land
correctly on the parent timeline.

Determinism contract: nothing here reads or seeds any RNG, and nothing
reorders work — collectors only observe.  ``tracing on == tracing off
bitwise`` for every computed result (pinned by tests/test_obs_trace.py).
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from repro.obs.sink import TRACE_VERSION, TraceSink


class _ThreadState(threading.local):
    """Per-thread collector override and active parent span id."""

    def __init__(self) -> None:
        self.capture = None  # WorkerTelemetry shadowing the session, or None
        self.parent = None  # span id in the *current* collector's id space


_STATE = _ThreadState()

#: The process-global session; ``None`` means tracing is off.
_session = None


class WorkerTelemetry:
    """Side-channel buffer for spans/events/counters recorded in a worker.

    Local span ids are list indices; ``parent`` references are indices
    into the same list (``None`` for buffer roots).  The buffer is a
    plain picklable value object so it can ride back on executor task
    results.
    """

    __slots__ = ("entries", "counters")

    def __init__(self) -> None:
        self.entries: list[dict] = []
        self.counters: dict[str, float] = {}

    def __bool__(self) -> bool:
        return bool(self.entries) or bool(self.counters)

    def open_span(self, name, start, attrs, parent):
        self.entries.append(
            {
                "kind": "span",
                "name": name,
                "t_start": start,
                "t_end": None,
                "attrs": attrs,
                "parent": parent,
            }
        )
        return len(self.entries) - 1

    def close_span(self, local_id, end) -> None:
        self.entries[local_id]["t_end"] = end

    def add_event(self, name, ts, attrs, parent) -> None:
        self.entries.append(
            {
                "kind": "event",
                "name": name,
                "t_start": ts,
                "t_end": ts,
                "attrs": attrs,
                "parent": parent,
            }
        )

    def add_counter(self, name, value) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def absorb(self, other: "WorkerTelemetry", parent) -> None:
        """Graft *other* (a nested capture) under *parent* in this buffer.

        Mirrors :meth:`TraceSession.splice` with list indices as the id
        space, so a captured task that joins its own sub-tasks still hands
        a single flat buffer back through the executor.
        """
        local_to_here: dict[int, int] = {}
        for local_id, entry in enumerate(other.entries):
            mapped_parent = entry["parent"]
            if mapped_parent is not None:
                mapped_parent = local_to_here.get(mapped_parent)
            if mapped_parent is None:
                mapped_parent = parent
            grafted = dict(entry, parent=mapped_parent)
            self.entries.append(grafted)
            local_to_here[local_id] = len(self.entries) - 1
        for name, value in other.counters.items():
            self.add_counter(name, value)


class TraceSession:
    """Parent-side collector bound to one trace file for one ``tracing`` scope."""

    def __init__(self, path) -> None:
        from repro.obs.metrics import MetricsRegistry

        self.path = Path(path)
        self.sink = TraceSink(self.path)
        self.registry = MetricsRegistry()
        self._lock = threading.RLock()
        self._next_id = 1
        self._opened = 0
        self._closed = 0
        self._pending: dict[int, tuple] = {}
        self._finished = False
        self.sink.append(
            {
                "type": "meta",
                "version": TRACE_VERSION,
                "t_start": time.time(),
                "pid": os.getpid(),
            }
        )
        self.sink.flush(durable=False)

    # -- collector protocol -------------------------------------------------

    def open_span(self, name, start, attrs, parent):
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            self._opened += 1
            self._pending[span_id] = (name, start, attrs, parent)
            return span_id

    def close_span(self, span_id, end) -> None:
        with self._lock:
            if self._finished or span_id not in self._pending:
                return
            name, start, attrs, parent = self._pending.pop(span_id)
            self._closed += 1
            self._emit_span(name, start, end, attrs, parent, span_id)
            if not self._pending:
                # Top-level span closed: publish the trace so the on-disk
                # file tracks campaign progress (non-durable and rate-limited
                # by the sink; the final flush in finish() always fsyncs).
                self.sink.flush(durable=False)

    def add_event(self, name, ts, attrs, parent) -> None:
        with self._lock:
            record = {"type": "event", "name": name, "ts": ts}
            if parent is not None:
                record["parent"] = parent
            if attrs:
                record["attrs"] = attrs
            self.sink.append(record)

    def add_counter(self, name, value) -> None:
        self.registry.add(name, value)

    # -- parent-side services ----------------------------------------------

    def _emit_span(self, name, start, end, attrs, parent, span_id, worker=False):
        record = {
            "type": "span",
            "id": span_id,
            "parent": parent,
            "name": name,
            "t_start": start,
            "t_end": end,
            "dur": end - start,
        }
        if worker:
            record["worker"] = True
        if attrs:
            record["attrs"] = attrs
        self.sink.append(record)

    def splice(self, telemetry: WorkerTelemetry, parent) -> None:
        """Graft a worker buffer under *parent* (a session span id or None).

        Entries are replayed in buffer order (open order), so splicing the
        shard buffers in shard order reproduces a deterministic trace
        regardless of executor kind.  Unclosed worker entries (a task that
        died mid-span) are dropped rather than poisoning the span count.
        """
        if telemetry is None:
            return
        with self._lock:
            local_to_global: dict[int, int] = {}
            for local_id, entry in enumerate(telemetry.entries):
                mapped_parent = entry["parent"]
                if mapped_parent is not None:
                    mapped_parent = local_to_global.get(mapped_parent)
                if mapped_parent is None:
                    mapped_parent = parent
                if entry["kind"] == "event":
                    self.add_event(
                        entry["name"], entry["t_start"], entry["attrs"], mapped_parent
                    )
                    continue
                if entry["t_end"] is None:
                    continue
                span_id = self._next_id
                self._next_id += 1
                self._opened += 1
                self._closed += 1
                local_to_global[local_id] = span_id
                self._emit_span(
                    entry["name"],
                    entry["t_start"],
                    entry["t_end"],
                    entry["attrs"],
                    mapped_parent,
                    span_id,
                    worker=True,
                )
            self.registry.merge(telemetry.counters)

    def finish(self) -> None:
        with self._lock:
            if self._finished:
                return
            self._finished = True
            snapshot = self.registry.snapshot()
            if snapshot["counters"]:
                self.sink.append({"type": "counters", **snapshot})
            self.sink.append(
                {
                    "type": "end",
                    "t_end": time.time(),
                    "spans": self._closed,
                    "open": self._opened - self._closed,
                }
            )
            self.sink.close()


# -- public policy API -----------------------------------------------------


def trace_active() -> bool:
    """True when this call should carry telemetry (session or capture)."""
    return _session is not None or _STATE.capture is not None


def _collector():
    capture = _STATE.capture
    if capture is not None:
        return capture
    return _session


@contextmanager
def tracing(path):
    """Activate tracing to *path* for the dynamic extent of the block.

    Exactly one session may be active per process; nesting raises.  The
    session is finalised (counters + end record, atomic flush) and the
    global cleared on exit, exceptions included.
    """
    global _session
    if _session is not None:
        raise RuntimeError("tracing is already active in this process")
    session = TraceSession(path)
    _session = session
    try:
        yield session
    finally:
        _session = None
        session.finish()


@contextmanager
def span(name, **attrs):
    """Record a wall-time span around the block; no-op when tracing is off."""
    collector = _collector()
    if collector is None:
        yield None
        return
    state = _STATE
    span_id = collector.open_span(name, time.time(), attrs, state.parent)
    previous = state.parent
    state.parent = span_id
    try:
        yield span_id
    finally:
        state.parent = previous
        collector.close_span(span_id, time.time())


def event(name, **attrs) -> None:
    """Record a zero-duration event under the active span (no-op when off)."""
    collector = _collector()
    if collector is None:
        return
    collector.add_event(name, time.time(), attrs, _STATE.parent)


def record_span(name, start, end, parent=None, **attrs):
    """Record an already-timed interval (e.g. a DAG job's run window).

    Returns the span id so children (worker buffers) can be spliced under
    it; ``None`` when tracing is off.  *parent* defaults to the thread's
    active span.
    """
    collector = _collector()
    if collector is None:
        return None
    if parent is None:
        parent = _STATE.parent
    span_id = collector.open_span(name, start, attrs, parent)
    collector.close_span(span_id, end)
    return span_id


@contextmanager
def capture():
    """Divert this thread's spans/counters into a fresh worker buffer.

    Entered at executor-task boundaries (every executor kind, including
    serial) so worker-side telemetry always travels through the join path
    instead of racing the session.
    """
    telemetry = WorkerTelemetry()
    state = _STATE
    previous = (state.capture, state.parent)
    state.capture, state.parent = telemetry, None
    try:
        yield telemetry
    finally:
        state.capture, state.parent = previous


def run_captured(fn, *args, **kwargs):
    """Invoke ``fn`` under :func:`capture`; returns ``(result, telemetry)``."""
    with capture() as telemetry:
        result = fn(*args, **kwargs)
    return result, telemetry


def splice(telemetry, parent=None) -> None:
    """Graft a worker buffer into the active collector (no-op when off).

    *parent* defaults to the calling thread's active span, which is the
    join point's enclosing span — exactly where shard work belongs.  A
    join running under :func:`capture` (a worker that fans out its own
    sub-tasks) absorbs the buffer into its capture instead, keeping the
    session single-writer.
    """
    if telemetry is None:
        return
    target = _STATE.capture
    if target is not None:
        target.absorb(telemetry, parent if parent is not None else _STATE.parent)
        return
    session = _session
    if session is None:
        return
    if parent is None:
        parent = _STATE.parent
    session.splice(telemetry, parent)
