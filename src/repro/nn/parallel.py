"""Thread fan-out for the graph-free stacked inference pass.

``StackedPredictorSurrogate.predict`` streams a candidate pool through
``TransformerPredictor.stacked_inference`` in fixed row blocks
(:func:`tile_spans`), and :func:`run_tiles` runs those blocks across a
shared thread pool.  The pool width is one process-global worker count
(default 1), set with ``set_num_threads(n)`` or the scoped ``threads(n)``,
mirroring the dtype policy of :mod:`repro.nn.precision`.  NumPy releases
the GIL inside its kernels, so the blocks overlap on multi-core machines.

Block boundaries are a pure function of the row count, never of the worker
count, and every block writes its own rows, so predictions are bitwise
identical for every worker count.  The autodiff kernels of
:mod:`repro.nn.tensor` do not read the worker count: each has one
whole-array implementation.

See ``docs/kernels.md``.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

from repro import obs

#: Rows per block of the stacked inference pass.
DEFAULT_TILE = 64

_num_threads: int = 1

_pool: Optional[ThreadPoolExecutor] = None
_pool_width: int = 0
_pool_lock = threading.Lock()

# Marks the pool's own worker threads so nested calls (a block whose work
# itself calls run_tiles) run inline instead of deadlocking a fully-occupied
# pool.
_worker = threading.local()


def num_threads() -> int:
    """Worker count of the block fan-out (default 1)."""
    return _num_threads


def set_num_threads(count: int) -> int:
    """Set the worker count (``>= 1``), returning the previous one."""
    global _num_threads
    count = int(count)
    if count < 1:
        raise ValueError(f"thread count must be >= 1, got {count}")
    previous = _num_threads
    _num_threads = count
    return previous


@contextmanager
def threads(count: int) -> Iterator[None]:
    """Scoped worker count (mirrors ``precision(...)``; nests)."""
    previous = set_num_threads(count)
    try:
        yield
    finally:
        set_num_threads(previous)


def tile_spans(total: int) -> list[tuple[int, int]]:
    """Fixed ``[start, stop)`` blocks of :data:`DEFAULT_TILE` rows covering
    ``range(total)``.

    A pure function of *total*, independent of the worker count.
    """
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    return [
        (start, min(start + DEFAULT_TILE, total))
        for start in range(0, total, DEFAULT_TILE)
    ]


def _get_pool(width: int) -> ThreadPoolExecutor:
    global _pool, _pool_width
    with _pool_lock:
        if _pool is None or _pool_width != width:
            if _pool is not None:
                _pool.shutdown(wait=False)
            _pool = ThreadPoolExecutor(
                max_workers=width,
                thread_name_prefix="repro-nn",
                initializer=_mark_worker,
            )
            _pool_width = width
        return _pool


def _mark_worker() -> None:
    _worker.flag = True


def shutdown_pool() -> None:
    """Tear down the shared pool (it is rebuilt lazily on demand)."""
    global _pool, _pool_width
    with _pool_lock:
        if _pool is not None:
            _pool.shutdown(wait=True)
            _pool = None
            _pool_width = 0


def run_tiles(
    work: Callable[[int, int], None], spans: list[tuple[int, int]]
) -> None:
    """Run ``work(start, stop)`` for every span, possibly across threads.

    The worker count only decides *where* each span runs; the spans, their
    inputs and their output slices are identical for every count, so the
    result bits are too.  Exceptions propagate in span order.  Nested calls
    from inside a pool worker run inline (no pool-starvation deadlock).
    Each call adds the spans to the ``nn.tiles`` counter and the rows they
    cover to ``nn.tile_rows`` (no-ops without an active trace).
    """
    obs.add_counter("nn.tiles", len(spans))
    obs.add_counter("nn.tile_rows", sum(stop - start for start, stop in spans))
    width = num_threads()
    if width <= 1 or len(spans) <= 1 or getattr(_worker, "flag", False):
        for start, stop in spans:
            work(start, stop)
        return
    pool = _get_pool(width)
    futures = [pool.submit(work, start, stop) for start, stop in spans]
    for future in futures:
        future.result()
