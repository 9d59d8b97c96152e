"""Kernel-equivalence property suite for the thread-parallel nn kernels.

The contract of :mod:`repro.nn.parallel` (``docs/kernels.md``): every fused
kernel — ``affine``, ``layer_norm``, ``gelu``, ``scaled_dot_product_attention``
— produces **bitwise identical** forward outputs and gradients for every
worker-thread count, in both supported dtypes, including ragged batch sizes
that do not divide the tile length.  Tile boundaries are a pure function of
the problem size, never of the thread count, and cross-tile reductions merge
partial sums in fixed tile order, so ``threads(1)`` (the tiled serial
reference) and ``threads(n)`` walk the exact same float operations.

The suite pins that property end to end: raw kernels forward+backward,
gradcheck under an active policy, full training steps through the optimizer,
and checkpoint round-trips.
"""

import numpy as np
import pytest

from repro.nn import parallel as par
from repro.nn.gradcheck import check_tensor_gradient
from repro.nn.optim import Adam
from repro.nn.serialization import load_model, save_model
from repro.nn.tensor import (
    Tensor,
    affine,
    affine_forward,
    attention_forward,
    gelu_forward,
    layer_norm_forward,
    scaled_dot_product_attention,
)
from repro.nn.transformer import TransformerPredictor

THREAD_COUNTS = (1, 2, 7)
DTYPES = (np.float32, np.float64)
#: Small tile so the 13-row batches below are ragged (13 = 3 * 4 + 1).
TILE = 4


@pytest.fixture(autouse=True)
def _clean_policy():
    """Every test leaves the process-global policy exactly as it found it."""
    previous_threads = par.num_threads() if par.active() else None
    previous_tile = par.tile_length()
    yield
    par.set_num_threads(previous_threads)
    par.set_tile_length(previous_tile)
    par.shutdown_pool()


def _rng(seed=0):
    return np.random.default_rng(seed)


# -- kernel runners --------------------------------------------------------------
# Each runner builds fresh leaf tensors from the given arrays, runs one
# forward + backward with a fixed non-uniform output gradient, and returns
# (forward data, input gradients) for bit-exact comparison.

def _run_gelu(arrays):
    (x,) = arrays
    leaf = Tensor(x.copy(), requires_grad=True)
    out = leaf.gelu()
    out.backward(np.arange(out.data.size, dtype=out.data.dtype).reshape(out.data.shape) * 0.01 + 1.0)
    return out.data, (leaf.grad,)


def _run_layer_norm(arrays):
    x, gamma, beta = arrays
    leaves = [Tensor(a.copy(), requires_grad=True) for a in (x, gamma, beta)]
    out = leaves[0].layer_norm(leaves[1], leaves[2])
    out.backward(np.arange(out.data.size, dtype=out.data.dtype).reshape(out.data.shape) * 0.01 + 1.0)
    return out.data, tuple(leaf.grad for leaf in leaves)


def _run_affine(arrays):
    x, weight, bias = arrays
    leaves = [Tensor(a.copy(), requires_grad=True) for a in (x, weight, bias)]
    out = affine(leaves[0], leaves[1], leaves[2])
    out.backward(np.arange(out.data.size, dtype=out.data.dtype).reshape(out.data.shape) * 0.01 + 1.0)
    return out.data, tuple(leaf.grad for leaf in leaves)


def _run_attention(arrays):
    q, k, v = arrays[:3]
    mask = arrays[3] if len(arrays) > 3 else None
    leaves = [Tensor(a.copy(), requires_grad=True) for a in (q, k, v)]
    mask_leaf = Tensor(mask.copy(), requires_grad=True) if mask is not None else None
    out, attention = scaled_dot_product_attention(
        leaves[0], leaves[1], leaves[2], 2, scale=0.5, mask=mask_leaf
    )
    out.backward(np.arange(out.data.size, dtype=out.data.dtype).reshape(out.data.shape) * 0.01 + 1.0)
    grads = [leaf.grad for leaf in leaves]
    if mask_leaf is not None:
        grads.append(mask_leaf.grad)
    return np.concatenate([out.data.ravel(), attention.ravel()]), tuple(grads)


def _case_arrays(name, dtype):
    """Deterministic ragged-shaped inputs for each kernel case."""
    rng = _rng(7)
    make = lambda *shape: rng.normal(size=shape).astype(dtype)
    cases = {
        "gelu": (_run_gelu, (make(13, 5),)),
        "gelu-3d": (_run_gelu, (make(13, 3, 5),)),
        "layer_norm": (_run_layer_norm, (make(13, 7, 6), make(6), make(6))),
        # gamma/beta carrying a leading batch axis exercise the sliced
        # cross-tile gradient path instead of the ordered partial sums.
        "layer_norm-batched-params": (
            _run_layer_norm,
            (make(13, 1, 6), make(13, 1, 6), make(13, 1, 6)),
        ),
        "affine-2d": (_run_affine, (make(13, 5), make(5, 4), make(4))),
        "affine-3d": (_run_affine, (make(13, 9, 5), make(5, 4), make(4))),
        "affine-stacked": (
            _run_affine,
            (make(3, 13, 5), make(3, 5, 4), make(3, 4)),
        ),
        "affine-stacked-4d": (
            _run_affine,
            (make(3, 13, 2, 5), make(3, 5, 4), make(3, 4)),
        ),
        "attention": (_run_attention, (make(13, 6, 8), make(13, 6, 8), make(13, 6, 8))),
        "attention-masked": (
            _run_attention,
            (make(13, 6, 8), make(13, 6, 8), make(13, 6, 8), make(6, 6)),
        ),
        "attention-batched-mask": (
            _run_attention,
            (make(13, 6, 8), make(13, 6, 8), make(13, 6, 8), make(13, 1, 6, 6)),
        ),
    }
    return cases[name]


KERNEL_CASES = (
    "gelu",
    "gelu-3d",
    "layer_norm",
    "layer_norm-batched-params",
    "affine-2d",
    "affine-3d",
    "affine-stacked",
    "affine-stacked-4d",
    "attention",
    "attention-masked",
    "attention-batched-mask",
)


def _assert_bitwise(reference, candidate, label):
    ref_out, ref_grads = reference
    cand_out, cand_grads = candidate
    assert ref_out.dtype == cand_out.dtype, label
    np.testing.assert_array_equal(ref_out, cand_out, err_msg=f"{label}: forward")
    assert len(ref_grads) == len(cand_grads)
    for index, (ref, cand) in enumerate(zip(ref_grads, cand_grads)):
        assert ref.dtype == cand.dtype, (label, index)
        np.testing.assert_array_equal(ref, cand, err_msg=f"{label}: grad[{index}]")


# -- thread-count invariance ------------------------------------------------------
class TestThreadCountInvariance:
    @pytest.mark.parametrize("dtype", DTYPES, ids=("f32", "f64"))
    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_kernels_bitwise_across_thread_counts(self, case, dtype):
        runner, arrays = _case_arrays(case, dtype)
        par.set_tile_length(TILE)
        with par.threads(1):
            reference = runner(arrays)
        for count in THREAD_COUNTS[1:]:
            with par.threads(count):
                _assert_bitwise(reference, runner(arrays), f"{case}@threads={count}")

    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_tile_length_does_not_depend_on_thread_count(self, case):
        """Spans are a pure function of size — rerunning at another width
        reuses identical boundaries, so results stay stable mid-session."""
        runner, arrays = _case_arrays(case, np.float64)
        par.set_tile_length(TILE)
        with par.threads(2):
            first = runner(arrays)
        with par.threads(7):
            second = runner(arrays)
        with par.threads(2):
            third = runner(arrays)
        _assert_bitwise(first, second, f"{case}: 2 vs 7")
        _assert_bitwise(first, third, f"{case}: 2 vs 2-again")


# -- tiled kernels against the untiled legacy path -------------------------------
class TestTiledAgainstLegacy:
    """The tiled kernels against the policy-off untiled reference (float64).

    gelu, layer_norm and attention walk the same float operations per row
    as the legacy kernels, so they match bitwise; affine's legacy path runs
    one flattened GEMM whose BLAS blocking differs from the batch-sliced
    form, so it (and the cross-tile weight/bias reductions) carry a tight
    analytic band instead.
    """

    BITWISE = ("gelu", "gelu-3d", "attention", "attention-batched-mask")

    @pytest.mark.parametrize("case", BITWISE)
    def test_row_stable_kernels_match_legacy_bitwise(self, case):
        runner, arrays = _case_arrays(case, np.float64)
        legacy = runner(arrays)  # policy off: untiled kernels
        par.set_tile_length(TILE)
        with par.threads(2):
            _assert_bitwise(legacy, runner(arrays), case)

    # attention-masked sits here for its *mask* gradient only: an unbatched
    # mask sums the tile gradients cross-tile (ordered partials), while the
    # forward and q/k/v gradients stay row-stable.
    @pytest.mark.parametrize(
        "case",
        (
            "layer_norm",
            "layer_norm-batched-params",
            "affine-2d",
            "affine-3d",
            "affine-stacked",
            "attention-masked",
        ),
    )
    def test_reduction_kernels_match_legacy_within_band(self, case):
        runner, arrays = _case_arrays(case, np.float64)
        legacy_out, legacy_grads = runner(arrays)
        par.set_tile_length(TILE)
        with par.threads(2):
            tiled_out, tiled_grads = runner(arrays)
        np.testing.assert_allclose(tiled_out, legacy_out, rtol=1e-12, atol=1e-12)
        for ref, cand in zip(legacy_grads, tiled_grads):
            np.testing.assert_allclose(cand, ref, rtol=1e-10, atol=1e-12)

    def test_policy_off_is_the_untouched_legacy_path(self):
        """With the policy off (the default), kernel_spans never engages."""
        assert not par.active()
        assert par.kernel_spans(1000) is None


# -- the shared array-level forwards ---------------------------------------------
#: Row blocks that straddle the 4-row kernel tiles.
BLOCK = 5


def _gelu_block(x):
    out = np.empty_like(x)
    gelu_forward(x, out, np.empty_like(x))
    return out


#: case -> (kernel forward on tensors, shared forward on arrays, row axis,
#: number of leading arguments that carry the row axis).
SHARED_FORWARDS = {
    "gelu": (lambda x: x.gelu().data, _gelu_block, 0, 1),
    "layer_norm": (
        lambda x, g, b: x.layer_norm(g, b).data,
        lambda x, g, b: layer_norm_forward(x, g, b, 1e-5)[0],
        0,
        1,
    ),
    "affine-3d": (lambda x, w, b: affine(x, w, b).data, affine_forward, 0, 1),
    "affine-stacked": (lambda x, w, b: affine(x, w, b).data, affine_forward, 1, 1),
    "attention-masked": (
        lambda q, k, v, m: scaled_dot_product_attention(q, k, v, 2, scale=0.5, mask=m)[0].data,
        lambda q, k, v, m: attention_forward(q, k, v, 2, 0.5, m)[0],
        0,
        3,
    ),
}


class TestSharedForwardFunctions:
    """The array-level forwards of ``repro.nn.tensor`` are the kernels' own.

    Run block by block over a ragged batch, each forward function gives the
    tiled kernel's forward output bit for bit; the graph-free stacked
    inference pass relies on exactly this.
    """

    @pytest.mark.parametrize("dtype", DTYPES, ids=("f32", "f64"))
    @pytest.mark.parametrize("case", tuple(SHARED_FORWARDS))
    def test_blockwise_forward_matches_tiled_kernel_bitwise(self, case, dtype):
        kernel_forward, forward, axis, sliced = SHARED_FORWARDS[case]
        _, arrays = _case_arrays(case, dtype)
        par.set_tile_length(TILE)
        with par.threads(1):
            expected = kernel_forward(*(Tensor(a) for a in arrays))
        blocks = []
        for start, stop in par.tile_spans(arrays[0].shape[axis], BLOCK):
            rows = (slice(None),) * axis + (slice(start, stop),)
            blocks.append(
                forward(*(a[rows] if i < sliced else a for i, a in enumerate(arrays)))
            )
        got = np.concatenate(blocks, axis=axis)
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)


# -- gradcheck under an active policy ---------------------------------------------
class TestGradcheckUnderThreads:
    """Numerical gradient checks with threaded tiled kernels (float64-only)."""

    def test_gelu(self):
        par.set_tile_length(TILE)
        with par.threads(2):
            check_tensor_gradient(lambda t: t.gelu(), _rng(1).normal(size=(13, 5)))

    def test_layer_norm(self):
        gamma = Tensor(_rng(2).normal(size=6))
        beta = Tensor(_rng(3).normal(size=6))
        par.set_tile_length(TILE)
        with par.threads(2):
            check_tensor_gradient(
                lambda t: t.layer_norm(gamma, beta), _rng(4).normal(size=(13, 6))
            )

    def test_affine(self):
        weight = Tensor(_rng(5).normal(size=(5, 4)))
        bias = Tensor(_rng(6).normal(size=4))
        par.set_tile_length(TILE)
        with par.threads(2):
            check_tensor_gradient(
                lambda t: affine(t, weight, bias), _rng(7).normal(size=(13, 5))
            )

    def test_attention(self):
        k = Tensor(_rng(8).normal(size=(13, 4, 8)))
        v = Tensor(_rng(9).normal(size=(13, 4, 8)))
        par.set_tile_length(TILE)
        with par.threads(2):
            check_tensor_gradient(
                lambda t: scaled_dot_product_attention(t, k, v, 2, scale=0.5)[0],
                _rng(10).normal(size=(13, 4, 8)),
            )


# -- policy API ------------------------------------------------------------------
class TestPolicyAPI:
    def test_set_num_threads_round_trips_and_returns_previous(self):
        assert not par.active()
        assert par.set_num_threads(3) is None
        assert par.active() and par.num_threads() == 3
        assert par.set_num_threads(None) == 3
        assert not par.active()
        assert par.num_threads() == 1  # effective width with the policy off

    @pytest.mark.parametrize("bad", (0, -1))
    def test_invalid_thread_counts_rejected(self, bad):
        with pytest.raises(ValueError):
            par.set_num_threads(bad)

    def test_threads_scope_restores_on_exit_and_on_error(self):
        with par.threads(5):
            assert par.num_threads() == 5
            with par.threads(2):
                assert par.num_threads() == 2
            assert par.num_threads() == 5
        assert not par.active()
        with pytest.raises(RuntimeError):
            with par.threads(4):
                raise RuntimeError("boom")
        assert not par.active()

    def test_tile_length_round_trip(self):
        previous = par.set_tile_length(8)
        assert par.tile_length() == 8
        par.set_tile_length(previous)
        with pytest.raises(ValueError):
            par.set_tile_length(0)

    def test_tile_spans_cover_the_range_in_order(self):
        for total in (0, 1, 4, 13, 64, 100):
            for tile in (1, 3, 4, 64):
                spans = par.tile_spans(total, tile)
                flat = [i for a, b in spans for i in range(a, b)]
                assert flat == list(range(total)), (total, tile)
                assert all(b - a <= tile for a, b in spans)

    def test_kernel_spans_gate(self):
        assert par.kernel_spans(100) is None  # policy off
        par.set_tile_length(TILE)
        with par.threads(2):
            assert par.kernel_spans(1) is None  # singleton batch: legacy path
            spans = par.kernel_spans(13)
            assert spans == [(0, 4), (4, 8), (8, 12), (12, 13)]

    def test_run_tiles_writes_every_disjoint_slice(self):
        spans = par.tile_spans(13, 4)
        out = np.zeros(13)
        with par.threads(3):
            par.run_tiles(lambda a, b: out.__setitem__(slice(a, b), np.arange(a, b)), spans)
        np.testing.assert_array_equal(out, np.arange(13.0))

    def test_run_tiles_propagates_worker_exceptions(self):
        def explode(a, b):
            if a >= 4:
                raise RuntimeError(f"tile {a}")

        with par.threads(3):
            with pytest.raises(RuntimeError, match="tile 4"):
                par.run_tiles(explode, [(0, 4), (4, 8), (8, 13)])

    def test_run_tiles_nested_from_worker_runs_inline(self):
        """A kernel called from inside a worker must not deadlock the pool."""
        seen = []
        spans = [(0, 2), (2, 4)]

        def outer(a, b):
            par.run_tiles(lambda c, d: seen.append((a, b, c, d)), spans)

        with par.threads(2):
            par.run_tiles(outer, spans)
        assert sorted(seen) == [
            (0, 2, 0, 2),
            (0, 2, 2, 4),
            (2, 4, 0, 2),
            (2, 4, 2, 4),
        ]

    def test_ordered_sum_folds_in_tile_order(self):
        parts = [np.float64(0.1), np.float64(0.2), np.float64(0.3)]
        expected = (parts[0] + parts[1]) + parts[2]
        assert par.ordered_sum(parts) == expected


# -- training and checkpoints ------------------------------------------------------
def _make_model(dtype="float64"):
    model = TransformerPredictor(
        5, embed_dim=8, num_heads=2, num_layers=1, head_hidden=8, dropout=0.0, seed=3
    )
    if dtype != "float64":
        model.to_dtype(dtype)
    return model


def _train_steps(model, steps=3):
    rng = _rng(11)
    features = rng.uniform(size=(13, 5)).astype(model.dtype)
    targets = rng.normal(size=13).astype(model.dtype)
    optimizer = Adam(model.parameters(), 1e-2)
    for _ in range(steps):
        model.zero_grad()
        out = model.forward(Tensor(features))
        loss = ((out.reshape(-1) - Tensor(targets)) ** 2).sum()
        loss.backward()
        optimizer.step()
    return model.state_dict()


class TestTrainingInvariance:
    """Acceptance pin: bitwise invariance through optimizer updates and
    checkpoint round-trips, not just single forwards."""

    @pytest.mark.parametrize("dtype", ("float32", "float64"))
    def test_optimizer_updates_bitwise_across_thread_counts(self, dtype):
        par.set_tile_length(TILE)
        with par.threads(1):
            reference = _train_steps(_make_model(dtype))
        for count in THREAD_COUNTS[1:]:
            with par.threads(count):
                state = _train_steps(_make_model(dtype))
            assert set(state) == set(reference)
            for name in reference:
                np.testing.assert_array_equal(
                    state[name], reference[name], err_msg=f"{name}@threads={count}"
                )

    def test_checkpoint_round_trip_bitwise_across_thread_counts(self, tmp_path):
        par.set_tile_length(TILE)
        with par.threads(2):
            trained = _make_model()
            _train_steps(trained)
            path = tmp_path / "model.npz"
            save_model(trained, path)
        features = _rng(12).uniform(size=(13, 5))
        with par.threads(1):
            restored = _make_model()
            load_model(restored, path)
            reference = restored.predict(features)
        with par.threads(2):
            # The round-trip is lossless: the saved model and its restored
            # twin agree bitwise under the same policy.
            np.testing.assert_array_equal(trained.predict(features), reference)
        for count in THREAD_COUNTS[1:]:
            with par.threads(count):
                restored = _make_model()
                load_model(restored, path)
                np.testing.assert_array_equal(restored.predict(features), reference)
