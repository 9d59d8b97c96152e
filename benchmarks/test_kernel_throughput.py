"""Inference-pass throughput: the block fan-out of ``threads(n)`` vs one thread.

:mod:`repro.nn.parallel` keeps one worker count, read only by
``run_tiles`` for the block fan-out of the graph-free stacked inference
pass.  NumPy releases the GIL inside its kernels, so the blocks genuinely
overlap on multi-core machines.

The pinned workload is one **wide-predictor screening round** — a
:class:`StackedPredictorSurrogate` answering two objectives for a large
candidate pool with its graph-free inference pass, streamed over fixed
64-row blocks (exactly what ``CampaignEngine`` runs per round when
screening with adapted predictors).  The two arms run the *same blocks
over the same boundaries* — ``threads(1)`` vs ``threads(N)`` — so their
predictions are **bitwise identical** (asserted below; the worker count
only decides where each block runs, never what it computes).  The
measured ratio is recorded in ``benchmarks/results/kernel_speedup.json``
(``make bench-kernels``) through the pass-gated ``record`` fixture.

The claim is a *parallel* speed-up, so the benchmark requires at least 4
CPU cores and skips otherwise (a 1-core machine cannot observe it; the
bitwise equality of the inference pass and the autodiff forward is pinned
core-count-independently in ``tests/test_dse_engine_equivalence.py``).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from benchmarks.helpers import interleaved_best_of
from repro.dse.surrogates import StackedPredictorSurrogate
from repro.nn import parallel as nn_parallel
from repro.nn.transformer import TransformerPredictor

#: Table I design-space width (tokens per candidate).
NUM_PARAMETERS = 22

#: Wide-predictor capacity — the memory/compute-bound screening regime
#: (the default predictor is sized for few-shot CPU training; the claim is
#: about the wide end where the blocks carry real numpy work).
EMBED_DIM = 192
NUM_HEADS = 4
NUM_LAYERS = 2
HEAD_HIDDEN = 128

#: Candidate-pool size of the screened round.
CANDIDATE_POOL = 2048

#: Minimum speed-up of the multi-threaded inference pass over one thread.
MIN_SPEEDUP = 1.5

#: Cores needed before a parallel speed-up claim is observable at all.
MIN_CORES = 4

CORES = os.cpu_count() or 1


def _surrogate() -> StackedPredictorSurrogate:
    predictors = [
        TransformerPredictor(
            NUM_PARAMETERS,
            embed_dim=EMBED_DIM,
            num_heads=NUM_HEADS,
            num_layers=NUM_LAYERS,
            head_hidden=HEAD_HIDDEN,
            seed=seed,
        )
        for seed in (0, 1)
    ]
    return StackedPredictorSurrogate(predictors, ("ipc", "power"))


def _candidate_pool() -> np.ndarray:
    rng = np.random.default_rng(7)
    return rng.random((CANDIDATE_POOL, NUM_PARAMETERS))


@pytest.mark.multicore
@pytest.mark.skipif(
    CORES < MIN_CORES,
    reason=f"inference-pass thread speed-up needs >= {MIN_CORES} cores, have {CORES}",
)
def test_threaded_screening_round_vs_single_thread_speedup(record):
    """The thread-parallel screening round must beat one thread >= 1.5x."""
    workers = min(8, CORES)
    surrogate = _surrogate()
    assert surrogate.is_stacked  # the stacked inference pass is what the round runs
    features = _candidate_pool()

    def run_single():
        with nn_parallel.threads(1):
            return surrogate.predict(features)

    def run_threaded():
        with nn_parallel.threads(workers):
            return surrogate.predict(features)

    try:
        # Warm both arms (thread-pool spin-up, allocator, BLAS init).
        run_single()
        run_threaded()

        (single_seconds, single_result), (threaded_seconds, threaded_result) = (
            interleaved_best_of(3, run_single, run_threaded)
        )
    finally:
        nn_parallel.shutdown_pool()
    speedup = single_seconds / threaded_seconds

    # Both arms run the same blocks over the same boundaries; the thread
    # count only decides where each block runs, so the screened
    # predictions are bitwise identical.
    np.testing.assert_array_equal(single_result, threaded_result)

    record(
        "kernel_speedup",
        {
            "cores": CORES,
            "workers": workers,
            "num_parameters": NUM_PARAMETERS,
            "embed_dim": EMBED_DIM,
            "num_heads": NUM_HEADS,
            "num_layers": NUM_LAYERS,
            "head_hidden": HEAD_HIDDEN,
            "candidate_pool": CANDIDATE_POOL,
            "block_rows": nn_parallel.DEFAULT_TILE,
            "round": "stacked 2-objective wide-predictor screening round "
                     "(graph-free inference pass over 64-row blocks), "
                     "threads(N) vs threads(1)",
            "single_thread_seconds": single_seconds,
            "threaded_seconds": threaded_seconds,
            "speedup": speedup,
            "results_bitwise_identical": True,
        },
    )
    assert speedup >= MIN_SPEEDUP, (
        f"the threaded inference pass is only {speedup:.2f}x faster than one thread "
        f"on {CORES} cores ({threaded_seconds * 1e3:.0f} ms vs "
        f"{single_seconds * 1e3:.0f} ms)"
    )
