"""Thread-parallel tiled execution policy for the nn kernels.

The fused kernels in :mod:`repro.nn.tensor` are single-threaded numpy by
default.  This module adds a process-global *worker-pool policy*, mirroring
the dtype policy of :mod:`repro.nn.precision`: ``set_num_threads(n)``
switches the hot kernels (``affine``, ``layer_norm``, ``gelu``,
``scaled_dot_product_attention``) to **tiled** implementations whose tiles
fan out across a shared thread pool, for both the forward pass and the
backward closures.  NumPy releases the GIL inside its kernels, so the tiles
genuinely overlap on multi-core machines.

Determinism contract (pinned by ``tests/test_nn_parallel_equivalence.py``):

* **Tile boundaries are a pure function of the problem size** and the tile
  size (:func:`tile_spans`) — never of the thread count.  Every thread
  count computes the *same tiles*.
* **Tiles write disjoint output slices**; cross-tile reductions (``affine``
  weight/bias gradients) accumulate per-tile partial sums **in tile
  order** after the join.
* Therefore kernel results are **bitwise invariant to the thread count**:
  ``threads(n)`` produces the same bits as ``threads(1)`` for every ``n``.

The tiled kernels additionally restrict themselves to *slice-stable* numpy
forms (batched matmuls over a leading batch axis instead of flattened
GEMMs), so evaluating a batch in blocks yields the same bits as evaluating
it whole — the property the graph-free stacked inference pass
(``TransformerPredictor.stacked_inference``, streamed over
:func:`tile_spans` blocks by ``StackedPredictorSurrogate.predict``) relies
on.  The trade: a flattened GEMM and the batched form differ in BLAS
reduction order, so *activating* the policy moves ``affine`` results within
the usual float tail (``docs/numerics.md``); with the policy **off** (the
default) the kernels are byte-for-byte the legacy single-threaded code.

See ``docs/kernels.md`` for the full policy/tiling documentation.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

#: Default tile length (in leading-axis items) for the tiled kernels.
DEFAULT_TILE = 64

_num_threads: Optional[int] = None  # None = policy off (legacy serial kernels)
_tile: int = DEFAULT_TILE

_pool: Optional[ThreadPoolExecutor] = None
_pool_width: int = 0
_pool_lock = threading.Lock()

# Marks the pool's own worker threads so nested kernel calls (a tile whose
# work itself hits a tiled kernel) run inline instead of deadlocking a
# fully-occupied pool.
_worker = threading.local()


def num_threads() -> int:
    """Effective worker count of the kernel policy (1 when the policy is off)."""
    return _num_threads if _num_threads is not None else 1


def active() -> bool:
    """Whether the tiled-kernel policy is engaged."""
    return _num_threads is not None


def set_num_threads(count: Optional[int]) -> Optional[int]:
    """Set the kernel thread policy, returning the previous setting.

    ``count >= 1`` engages the tiled kernels with that many workers
    (``1`` = tiled but inline — the serial reference of the equivalence
    suite); ``None`` restores the legacy untiled kernels.
    """
    global _num_threads
    if count is not None:
        count = int(count)
        if count < 1:
            raise ValueError(f"thread count must be >= 1, got {count}")
    previous = _num_threads
    _num_threads = count
    return previous


@contextmanager
def threads(count: Optional[int]) -> Iterator[None]:
    """Scoped kernel thread policy (mirrors ``precision(...)``; nests)."""
    previous = set_num_threads(count)
    try:
        yield
    finally:
        set_num_threads(previous)


def tile_length() -> int:
    """Current kernel tile length (leading-axis items per tile)."""
    return _tile


def set_tile_length(length: int) -> int:
    """Set the kernel tile length, returning the previous value.

    Changing the tile length changes *which* fixed boundaries every thread
    count shares; results stay bitwise thread-count-invariant at any fixed
    length, but ``affine`` results at different lengths differ within the
    float tail (see ``docs/kernels.md``).
    """
    global _tile
    length = int(length)
    if length < 1:
        raise ValueError(f"tile length must be >= 1, got {length}")
    previous = _tile
    _tile = length
    return previous


def tile_spans(total: int, tile: Optional[int] = None) -> list[tuple[int, int]]:
    """Fixed ``[start, stop)`` tile boundaries covering ``range(total)``.

    A pure function of *total* and the tile length — independent of the
    thread count, which is the root of the bitwise-invariance contract.
    """
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    tile = _tile if tile is None else int(tile)
    if tile < 1:
        raise ValueError(f"tile must be >= 1, got {tile}")
    return [(start, min(start + tile, total)) for start in range(0, total, tile)]


def kernel_spans(total: int) -> Optional[list[tuple[int, int]]]:
    """Spans for a kernel's leading axis, or ``None`` for the legacy path.

    Returns ``None`` when the policy is off or the axis is too short to
    tile (a single item takes the identical batched form either way).
    """
    if _num_threads is None or total < 2:
        return None
    return tile_spans(total)


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
    """Tear down the shared kernel pool (it is rebuilt lazily on demand)."""
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

    The thread count only decides *where* each tile runs; the tiles, their
    inputs and their output slices are identical for every count, so the
    result bits are too.  Exceptions propagate in span order.  Nested calls
    from inside a pool worker run inline (no pool-starvation deadlock).
    """
    width = num_threads()
    if width <= 1 or len(spans) <= 1 or getattr(_worker, "flag", False):
        for start, stop in spans:
            work(start, stop)
        return
    pool = _get_pool(width)
    futures = [pool.submit(work, start, stop) for start, stop in spans]
    for future in futures:
        future.result()


def ordered_sum(partials: list):
    """Reduce per-tile partial results in tile order (deterministic merge)."""
    total = partials[0]
    for partial in partials[1:]:
        total = total + partial
    return total

