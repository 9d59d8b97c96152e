"""Pluggable executors behind one tiny, determinism-friendly interface.

The runtime never exposes completion order to its callers: work is
submitted, futures are collected, and results are merged in the order the
work was *submitted* (see :mod:`repro.runtime.sharding`).  An
:class:`Executor` therefore only needs ``submit`` — everything else
(broadcast, context management) is shared plumbing.

Three implementations cover the repository's needs:

* :class:`SerialExecutor` — runs the work inline at ``submit`` time.  It is
  the executable reference every parallel result is compared against
  (``tests/test_runtime_equivalence.py`` pins thread/process == serial
  **bitwise**), and the default: ``jobs=1`` (or ``None``) resolves to it.
* :class:`ThreadExecutor` — :class:`concurrent.futures.ThreadPoolExecutor`.
  The default kind for ``jobs > 1``: NumPy kernels release the GIL,
  nothing needs to be picklable, and workers share the process (so e.g.
  the simulator's memoized phase tables are shared for free).
* :class:`ProcessExecutor` — :class:`concurrent.futures.ProcessPoolExecutor`.
  True parallelism for pure-Python hot loops (tree-surrogate refits, the
  scalar models); task functions and arguments must be picklable, and
  worker-side state mutations are discarded (see the per-worker
  evaluation-cache contract on :class:`repro.sim.simulator.Simulator`).

``resolve_executor`` maps the user-facing ``jobs=N`` knob
(:meth:`MetaDSE.explore`, ``python -m repro dse --jobs N``) to an executor
instance.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Optional, Sequence


def default_jobs() -> int:
    """Worker count used when ``jobs`` is not given: one per CPU core."""
    return os.cpu_count() or 1


class BroadcastHandle:
    """Lightweight stand-in for a value broadcast to process-pool workers.

    Produced by :meth:`ProcessExecutor.broadcast`; consumed worker-side by
    :func:`resolve_broadcast`.  ``payload`` is the pickled value for the
    warm-pool fallback path; it is ``None`` when the value was delivered
    through the pool initializer instead.
    """

    __slots__ = ("key", "payload")

    def __init__(self, key: str, payload: Optional[bytes] = None) -> None:
        self.key = key
        self.payload = payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        via = "initializer" if self.payload is None else f"{len(self.payload)}B"
        return f"BroadcastHandle({self.key!r}, {via})"


#: Worker-side cache of broadcast values, keyed by handle key.  Filled by
#: the pool initializer (cold pools) or lazily on first resolve (warm
#: pools); either way each worker materialises a broadcast value once.
_WORKER_BROADCASTS: dict[str, object] = {}


def _install_broadcasts(payloads: dict[str, bytes]) -> None:
    """Process-pool initializer: unpickle broadcast values once per worker."""
    for key, payload in payloads.items():
        _WORKER_BROADCASTS[key] = pickle.loads(payload)


def resolve_broadcast(value):
    """Materialise *value* if it is a :class:`BroadcastHandle`.

    Non-handles pass through unchanged, so task functions can resolve
    unconditionally and stay executor-agnostic (serial and thread executors
    broadcast by identity).  Handle resolution hits the worker's cache
    first; a warm-pool handle that misses unpickles its carried payload and
    caches it, so later tasks on the same worker reuse the object.
    """
    if not isinstance(value, BroadcastHandle):
        return value
    cached = _WORKER_BROADCASTS.get(value.key)
    if cached is None:
        if value.payload is None:
            raise RuntimeError(
                f"broadcast {value.key!r} was not installed in this worker "
                f"and carries no payload"
            )
        cached = pickle.loads(value.payload)
        _WORKER_BROADCASTS[value.key] = cached
    return cached


class Executor:
    """Minimal executor interface: ``submit`` returning a future.

    Attributes
    ----------
    kind:
        Short name (``"serial"`` / ``"thread"`` / ``"process"``) used in
        reports and error messages.
    jobs:
        The parallelism width.  Sharding layers size their work splits from
        this (never from completion timing), so the *shape* of the
        computation is a pure function of ``(inputs, jobs)``.
    """

    kind: str = "abstract"

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs

    def submit(self, fn: Callable, /, *args, **kwargs) -> Future:
        raise NotImplementedError

    def broadcast(self, value):
        """Publish *value* once for reuse across this executor's tasks.

        The returned object substitutes for *value* in ``submit`` argument
        lists; task functions recover it with :func:`resolve_broadcast`.
        In-process executors broadcast by identity (the value itself);
        :class:`ProcessExecutor` overrides this to pickle the value once
        and hand out a :class:`BroadcastHandle`, so a simulator shared by
        hundreds of shard tasks crosses the pickle boundary once per
        worker instead of once per task.
        """
        return value

    def shutdown(self, wait: bool = True) -> None:
        """Release worker resources (idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(jobs={self.jobs})"


class SerialExecutor(Executor):
    """Run everything inline at ``submit`` time (the reference executor)."""

    kind = "serial"

    def __init__(self) -> None:
        super().__init__(jobs=1)

    def submit(self, fn: Callable, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as error:  # KeyboardInterrupt/SystemExit propagate
            future.set_exception(error)
        return future


class _PoolExecutor(Executor):
    """Shared plumbing for the two ``concurrent.futures`` wrappers."""

    def __init__(self, jobs: Optional[int] = None) -> None:
        super().__init__(jobs if jobs is not None else default_jobs())
        self._pool = None

    def _make_pool(self):
        raise NotImplementedError

    def submit(self, fn: Callable, /, *args, **kwargs) -> Future:
        if self._pool is None:
            # Lazy: constructing an executor costs nothing until used, so
            # APIs can build one speculatively (e.g. from a CLI flag).
            self._pool = self._make_pool()
        return self._pool.submit(fn, *args, **kwargs)

    def shutdown(self, wait: bool = True) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=wait)
            self._pool = None


class ThreadExecutor(_PoolExecutor):
    """Thread-pool executor (shared memory, no pickling)."""

    kind = "thread"

    def _make_pool(self):
        return ThreadPoolExecutor(max_workers=self.jobs)


class ProcessExecutor(_PoolExecutor):
    """Process-pool executor (true parallelism, picklable tasks only).

    Values shared across many tasks should go through :meth:`broadcast`:
    each distinct object is pickled exactly once in the parent, delivered
    to workers through the pool initializer (cold pool) or a cached
    payload (warm pool), and reused by every task that resolves its
    handle — pinned by the pickle-count test in
    ``tests/test_runtime_executors.py``.
    """

    kind = "process"

    def __init__(self, jobs: Optional[int] = None) -> None:
        super().__init__(jobs)
        # id(value) -> (key, value) — the strong reference keeps id() valid
        # for the executor's lifetime, so re-broadcasting the same object
        # reuses the existing payload instead of pickling again.
        self._broadcast_keys: dict[int, tuple[str, object]] = {}
        self._broadcast_payloads: dict[str, bytes] = {}

    def _make_pool(self):
        return ProcessPoolExecutor(
            max_workers=self.jobs,
            initializer=_install_broadcasts,
            initargs=(dict(self._broadcast_payloads),),
        )

    def broadcast(self, value) -> BroadcastHandle:
        entry = self._broadcast_keys.get(id(value))
        if entry is not None and entry[1] is value:
            key = entry[0]
        else:
            key = f"broadcast-{os.getpid()}-{id(self)}-{len(self._broadcast_keys)}"
            self._broadcast_keys[id(value)] = (key, value)
            self._broadcast_payloads[key] = pickle.dumps(value)
        if self._pool is None:
            # The pool does not exist yet: the initializer will install the
            # payload in every worker, so the handle travels weightless.
            return BroadcastHandle(key)
        # Warm pool: workers may predate this broadcast, so the handle
        # carries the payload; each worker unpickles it at most once.
        return BroadcastHandle(key, self._broadcast_payloads[key])


#: Executor kinds accepted by :func:`resolve_executor` and the CLI.
EXECUTOR_KINDS: Sequence[str] = ("serial", "thread", "process")


def resolve_executor(jobs: Optional[int], kind: str = "thread") -> Executor:
    """Map the user-facing ``jobs=N`` knob to an executor instance.

    ``jobs`` of ``1`` or ``None``, or ``kind="serial"``, is the
    :class:`SerialExecutor` reference; otherwise a thread or process pool
    of the requested width.  The executor only sets the throughput: every
    executor gives the same result.
    """
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if kind not in EXECUTOR_KINDS:
        raise ValueError(f"unknown executor kind {kind!r}; choose from {EXECUTOR_KINDS}")
    if jobs is None or jobs == 1 or kind == "serial":
        return SerialExecutor()
    if kind == "process":
        return ProcessExecutor(jobs)
    return ThreadExecutor(jobs)
