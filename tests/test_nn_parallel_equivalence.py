"""One forward per nn kernel, and the worker-count API of the inference pass.

Each fused kernel of :mod:`repro.nn.tensor` — ``affine``, ``layer_norm``,
``gelu``, ``scaled_dot_product_attention`` — has one whole-array
implementation whose forward is its shared array function
(``affine_forward``, ``layer_norm_forward``, ``gelu_forward``,
``attention_forward``).  The graph-free stacked inference pass runs the
same functions block by block, so it equals the autodiff forward bit for
bit (``docs/kernels.md``).  The suite pins that at every batch layout the
kernels take — serially and fanned out over the shared pool for several
worker counts — and checks each kernel's one backward closure for every
input, numerically in float64 and against float64 in float32.

:mod:`repro.nn.parallel` keeps one worker count, read only by ``run_tiles``
for the block fan-out of ``StackedPredictorSurrogate.predict``; the API
tests below pin its scoping, validation, the fan-out width and the
nested-inline guard.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import parallel as par
from repro.nn.gradcheck import check_tensor_gradient
from repro.nn.tensor import (
    Tensor,
    _row_max,
    _row_sum,
    affine,
    affine_forward,
    attention_forward,
    gelu_forward,
    layer_norm_forward,
    scaled_dot_product_attention,
)

DTYPES = (np.float32, np.float64)
#: Worker counts the fanned-out block forwards run under.
THREAD_COUNTS = (1, 2, 7)


@pytest.fixture(autouse=True)
def _clean_pool():
    """Tear the shared pool down after every test.

    Tests that change the worker count restore it themselves (``threads``
    scopes, or the round-trip test's ``finally``).
    """
    yield
    par.shutdown_pool()


def _rng(seed=0):
    return np.random.default_rng(seed)


def _case_arrays(name, dtype):
    """Deterministic 13-row inputs for each kernel case."""
    rng = _rng(7)
    make = lambda *shape: rng.normal(size=shape).astype(dtype)
    cases = {
        "gelu": (make(13, 5),),
        "gelu-3d": (make(13, 3, 5),),
        "layer_norm": (make(13, 7, 6), make(6), make(6)),
        "layer_norm-2d": (make(13, 6), make(6), make(6)),
        # gamma/beta carrying the batch axis: their gradients are the
        # kernel's per-row products, not sums over the batch.
        "layer_norm-batched-params": (make(13, 1, 6), make(13, 1, 6), make(13, 1, 6)),
        "affine-2d": (make(13, 5), make(5, 4), make(4)),
        "affine-3d": (make(13, 9, 5), make(5, 4), make(4)),
        "affine-stacked": (make(3, 13, 5), make(3, 5, 4), make(3, 4)),
        "affine-stacked-4d": (make(3, 13, 2, 5), make(3, 5, 4), make(3, 4)),
        "attention": (make(13, 6, 8), make(13, 6, 8), make(13, 6, 8)),
        "attention-masked": (make(13, 6, 8), make(13, 6, 8), make(13, 6, 8), make(6, 6)),
        "attention-batched-mask": (
            make(13, 6, 8), make(13, 6, 8), make(13, 6, 8), make(13, 1, 6, 6)
        ),
    }
    return cases[name]


# -- the shared array-level forwards ---------------------------------------------
#: Row blocks that do not divide the 13-row batches.
BLOCK = 5


def _spans(total, block):
    """``[start, stop)`` blocks of *block* rows covering ``range(total)``."""
    return [(start, min(start + block, total)) for start in range(0, total, block)]


def _gelu_block(x):
    out = np.empty_like(x)
    gelu_forward(x, out, np.empty_like(x))
    return out


def _layer_norm_block(x, gamma, beta):
    return layer_norm_forward(x, gamma, beta, 1e-5)[0]


def _attention(q, k, v, mask=None):
    return scaled_dot_product_attention(q, k, v, 2, scale=0.5, mask=mask)[0]


def _attention_block(q, k, v, mask=None):
    return attention_forward(q, k, v, 2, 0.5, mask)[0]


#: case -> (autodiff kernel on tensors, shared forward on arrays, row axis,
#: number of leading arguments that carry the row axis).
SHARED_FORWARDS = {
    "gelu": (Tensor.gelu, _gelu_block, 0, 1),
    "gelu-3d": (Tensor.gelu, _gelu_block, 0, 1),
    "layer_norm": (Tensor.layer_norm, _layer_norm_block, 0, 1),
    "layer_norm-2d": (Tensor.layer_norm, _layer_norm_block, 0, 1),
    "layer_norm-batched-params": (Tensor.layer_norm, _layer_norm_block, 0, 3),
    "affine-2d": (affine, affine_forward, 0, 1),
    "affine-3d": (affine, affine_forward, 0, 1),
    "affine-stacked": (affine, affine_forward, 1, 1),
    "affine-stacked-4d": (affine, affine_forward, 1, 1),
    "attention": (_attention, _attention_block, 0, 3),
    "attention-masked": (_attention, _attention_block, 0, 3),
    "attention-batched-mask": (_attention, _attention_block, 0, 4),
}


def _kernel_forward(case, arrays):
    return SHARED_FORWARDS[case][0](*(Tensor(a) for a in arrays)).data


def _block_forward(case, arrays, start, stop):
    """The shared forward of *case* on rows ``[start, stop)``."""
    _, forward, axis, sliced = SHARED_FORWARDS[case]
    rows = (slice(None),) * axis + (slice(start, stop),)
    return forward(*(a[rows] if i < sliced else a for i, a in enumerate(arrays)))


class TestSharedForwardFunctions:
    """The array-level forwards of ``repro.nn.tensor`` are the kernels' own.

    Run block by block over a ragged batch, each forward function gives the
    autodiff kernel's forward output bit for bit; the graph-free stacked
    inference pass relies on exactly this.
    """

    @pytest.mark.parametrize("dtype", DTYPES, ids=("f32", "f64"))
    @pytest.mark.parametrize("case", tuple(SHARED_FORWARDS))
    def test_blockwise_forward_matches_kernel_bitwise(self, case, dtype):
        axis = SHARED_FORWARDS[case][2]
        arrays = _case_arrays(case, dtype)
        expected = _kernel_forward(case, arrays)
        got = np.concatenate(
            [
                _block_forward(case, arrays, start, stop)
                for start, stop in _spans(arrays[0].shape[axis], BLOCK)
            ],
            axis=axis,
        )
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("dtype", DTYPES, ids=("f32", "f64"))
    @pytest.mark.parametrize("case", tuple(SHARED_FORWARDS))
    def test_fanned_out_blocks_match_kernel_for_every_worker_count(self, case, dtype):
        """The blocks written concurrently by ``run_tiles`` into one output,
        as the stacked inference pass does, give the kernel's bits for
        every worker count."""
        axis = SHARED_FORWARDS[case][2]
        arrays = _case_arrays(case, dtype)
        expected = _kernel_forward(case, arrays)
        for count in THREAD_COUNTS:
            out = np.full_like(expected, np.nan)

            def block(start, stop):
                rows = (slice(None),) * axis + (slice(start, stop),)
                out[rows] = _block_forward(case, arrays, start, stop)

            with par.threads(count):
                par.run_tiles(block, _spans(arrays[0].shape[axis], BLOCK))
            np.testing.assert_array_equal(out, expected, err_msg=f"threads={count}")


# -- affine input shapes -----------------------------------------------------------
# -- the short last-axis reductions the kernels share --------------------------
#: Values that make ties, signed zeros, infinities and NaNs common.
SPECIAL_VALUES = (0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, np.nan)

_UINT = {np.float32: np.uint32, np.float64: np.uint64}


def _bits(array):
    return array.view(_UINT[array.dtype.type])


@st.composite
def _rows_with_specials(draw, dtype):
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=4, min_side=1, max_side=9))
    width = 32 if dtype is np.float32 else 64
    elements = st.one_of(
        st.sampled_from(SPECIAL_VALUES),
        st.floats(width=width, allow_nan=False, allow_infinity=False),
    )
    return draw(hnp.arrays(dtype, shape, elements=elements))


class TestShortAxisReductions:
    """The column fold and the per-item GEMV that replace numpy's short-row
    reductions in the kernels (``docs/kernels.md``)."""

    @pytest.mark.parametrize("dtype", DTYPES, ids=("f32", "f64"))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_row_max_fold_equals_max_reduction(self, dtype, data):
        x = data.draw(_rows_with_specials(dtype))
        expected = x.max(axis=-1, keepdims=True)
        got = _row_max(x)
        assert got.shape == expected.shape and got.dtype == expected.dtype
        # Bitwise, NaN and infinities included; a zero maximum among zeros
        # of both signs may carry either sign (numpy's SIMD reduction picks
        # by lane order), so zeros compare by value.
        zero = expected == 0
        np.testing.assert_array_equal(_bits(got)[~zero], _bits(expected)[~zero])
        np.testing.assert_array_equal(got[zero], 0)
        # The softmax shift it serves is bitwise either way.
        with np.errstate(invalid="ignore"):
            np.testing.assert_array_equal(
                _bits(np.exp(x - got)), _bits(np.exp(x - expected))
            )

    @pytest.mark.parametrize("dtype", DTYPES, ids=("f32", "f64"))
    @settings(max_examples=60, deadline=None)
    @given(
        lead=st.lists(st.integers(1, 9), min_size=1, max_size=3),
        width=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
        bounds=st.tuples(st.integers(0, 9), st.integers(0, 9)),
    )
    def test_row_sum_gemv_is_slice_stable_and_near_np_sum(
        self, dtype, lead, width, seed, bounds
    ):
        rng = np.random.default_rng(seed)
        x = (rng.normal(size=(*lead, width)) * 10.0 ** rng.integers(-3, 4)).astype(dtype)
        whole = _row_sum(x)
        reference = x.sum(axis=-1, keepdims=True)
        assert whole.shape == reference.shape and whole.dtype == reference.dtype
        start, stop = sorted(bounds)
        np.testing.assert_array_equal(_bits(_row_sum(x[start:stop])), _bits(whole[start:stop]))
        # Another accumulation order: a few ULPs of the magnitude sum apart.
        magnitude = np.abs(x).sum(axis=-1, keepdims=True)
        assert np.all(np.abs(whole - reference) <= 8 * np.spacing(magnitude))


class TestAffineShapes:
    """Inputs outside the ``(..., in)`` / ``(T, ..., in)`` batch layouts.

    A 1-D input against a plain weight and a ``(T, in)`` input against a
    task-stacked weight are one row each and work forward and backward; a
    stacked weight against an input whose leading axis is not its task axis
    raises ``ValueError`` instead of regrouping rows across tasks.
    """

    def test_vector_input_with_plain_weight(self):
        weight = Tensor(_rng(1).normal(size=(5, 4)))
        bias = Tensor(_rng(2).normal(size=4))
        x = _rng(3).normal(size=5)
        out = affine(Tensor(x), weight, bias)
        assert out.shape == (4,)
        np.testing.assert_allclose(out.data, x @ weight.data + bias.data, rtol=1e-12)
        check_tensor_gradient(lambda t: affine(t, weight, bias), x)

    def test_one_row_per_task_with_stacked_weight(self):
        weight = Tensor(_rng(4).normal(size=(3, 5, 4)))
        bias = Tensor(_rng(5).normal(size=(3, 4)))
        x = _rng(6).normal(size=(3, 5))
        out = affine(Tensor(x), weight, bias)
        assert out.shape == (3, 4)
        expected = np.einsum("ti,tio->to", x, weight.data) + bias.data
        np.testing.assert_allclose(out.data, expected, rtol=1e-12)
        check_tensor_gradient(lambda t: affine(t, weight, bias), x)

    @pytest.mark.parametrize(
        "shape",
        ((5,), (2, 5), (6, 5), (6, 7, 5), (1, 7, 5)),
        ids=("vector", "rows-not-tasks", "task-multiple", "lead-not-tasks", "lead-one"),
    )
    def test_stacked_weight_rejects_a_foreign_leading_axis(self, shape):
        weight = Tensor(_rng(7).normal(size=(3, 5, 4)))
        bias = Tensor(_rng(8).normal(size=(3, 4)))
        with pytest.raises(ValueError, match="task-stacked weight"):
            affine(Tensor(_rng(9).normal(size=shape)), weight, bias)
        with pytest.raises(ValueError, match="task-stacked weight"):
            affine_forward(_rng(9).normal(size=shape), weight.data, bias.data)


# -- gradcheck of the kernels on ragged 13-row batches -----------------------------
class TestKernelGradcheck:
    """Numerical gradient checks of the fused kernels (float64-only)."""

    def test_gelu(self):
        check_tensor_gradient(lambda t: t.gelu(), _rng(1).normal(size=(13, 5)))

    def test_layer_norm(self):
        gamma = Tensor(_rng(2).normal(size=6))
        beta = Tensor(_rng(3).normal(size=6))
        check_tensor_gradient(
            lambda t: t.layer_norm(gamma, beta), _rng(4).normal(size=(13, 6))
        )

    def test_affine(self):
        weight = Tensor(_rng(5).normal(size=(5, 4)))
        bias = Tensor(_rng(6).normal(size=4))
        check_tensor_gradient(
            lambda t: affine(t, weight, bias), _rng(7).normal(size=(13, 5))
        )

    def test_attention(self):
        k = Tensor(_rng(8).normal(size=(13, 4, 8)))
        v = Tensor(_rng(9).normal(size=(13, 4, 8)))
        check_tensor_gradient(
            lambda t: scaled_dot_product_attention(t, k, v, 2, scale=0.5)[0],
            _rng(10).normal(size=(13, 4, 8)),
        )

    @pytest.mark.parametrize("case", tuple(SHARED_FORWARDS))
    def test_every_input_gradient(self, case):
        """The one backward closure of each kernel, for every input it takes
        (weights, biases, gamma/beta and masks too), under a non-uniform
        output gradient."""
        kernel = SHARED_FORWARDS[case][0]
        arrays = _case_arrays(case, np.float64)
        upstream = Tensor(_rng(11).normal(size=_kernel_forward(case, arrays).shape))
        for index, array in enumerate(arrays):

            def operation(t, index=index):
                inputs = [Tensor(a) for a in arrays]
                inputs[index] = t
                return kernel(*inputs) * upstream

            check_tensor_gradient(operation, array)


def _forward_backward(case, arrays, upstream):
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = SHARED_FORWARDS[case][0](*leaves)
    (out * Tensor(upstream.astype(out.dtype))).sum().backward()
    return out.data, [leaf.grad for leaf in leaves]


class TestFloat32Kernels:
    """The float32 fast path through each kernel's forward and backward."""

    @pytest.mark.parametrize("case", tuple(SHARED_FORWARDS))
    def test_forward_and_gradients_stay_float32(self, case):
        """No kernel widens a float32 batch, and its float32 results track
        the float64 ones computed from the same (float32) inputs."""
        arrays32 = _case_arrays(case, np.float32)
        upstream = _rng(12).normal(size=_kernel_forward(case, arrays32).shape)
        out32, grads32 = _forward_backward(case, arrays32, upstream)
        out64, grads64 = _forward_backward(
            case, [a.astype(np.float64) for a in arrays32], upstream
        )
        assert out32.dtype == np.float32
        np.testing.assert_allclose(out32, out64, rtol=1e-4, atol=1e-5)
        for index, (grad32, grad64) in enumerate(zip(grads32, grads64)):
            assert grad32.dtype == np.float32, index
            np.testing.assert_allclose(
                grad32, grad64, rtol=1e-4, atol=1e-4, err_msg=f"grad[{index}]"
            )


# -- worker-count API ------------------------------------------------------------
class TestPolicyAPI:
    def test_set_num_threads_round_trips_and_returns_previous(self):
        assert par.num_threads() == 1  # the default
        previous = par.set_num_threads(3)
        try:
            assert previous == 1
            assert par.num_threads() == 3
        finally:
            assert par.set_num_threads(previous) == 3
        assert par.num_threads() == 1

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
        assert par.num_threads() == 1
        with pytest.raises(RuntimeError):
            with par.threads(4):
                raise RuntimeError("boom")
        assert par.num_threads() == 1

    def test_tile_spans_rejects_a_negative_total(self):
        with pytest.raises(ValueError):
            par.tile_spans(-1)

    def test_tile_spans_cover_the_range_in_order(self):
        for total in (0, 1, 13, 64, 65, 130):
            spans = par.tile_spans(total)
            flat = [i for a, b in spans for i in range(a, b)]
            assert flat == list(range(total)), total
            assert all(b - a == par.DEFAULT_TILE for a, b in spans[:-1])
            assert all(0 < b - a <= par.DEFAULT_TILE for a, b in spans)

    def test_run_tiles_writes_every_disjoint_slice(self):
        spans = _spans(13, 4)
        out = np.zeros(13)
        with par.threads(3):
            par.run_tiles(lambda a, b: out.__setitem__(slice(a, b), np.arange(a, b)), spans)
        np.testing.assert_array_equal(out, np.arange(13.0))

    @pytest.mark.parametrize("count", (2, 3, 4))
    def test_run_tiles_fans_out_to_the_worker_count(self, count):
        """*count* spans that each wait for all the others only finish when
        *count* pool workers run them at once."""
        barrier = threading.Barrier(count, timeout=30)
        names = []

        def work(a, b):
            barrier.wait()
            names.append(threading.current_thread().name)

        with par.threads(count):
            par.run_tiles(work, _spans(count, 1))
        assert len(set(names)) == count
        assert all(name.startswith("repro-nn") for name in names)

    @pytest.mark.parametrize(
        "count,spans",
        ((1, [(0, 4), (4, 8), (8, 13)]), (3, [(0, 13)])),
        ids=("one-worker", "one-span"),
    )
    def test_run_tiles_runs_inline_on_the_caller(self, count, spans):
        seen = []
        with par.threads(count):
            par.run_tiles(lambda a, b: seen.append((a, b, threading.current_thread())), spans)
        assert [(a, b) for a, b, _ in seen] == spans
        assert all(thread is threading.current_thread() for _, _, thread in seen)

    def test_run_tiles_with_no_spans_runs_nothing(self):
        def work(a, b):
            raise AssertionError("no span to run")

        with par.threads(3):
            par.run_tiles(work, [])

    def test_pool_is_rebuilt_after_shutdown(self):
        out = np.zeros(8)
        spans = _spans(8, 4)
        par.shutdown_pool()
        par.shutdown_pool()  # idempotent without a pool
        with par.threads(2):
            par.run_tiles(lambda a, b: out.__setitem__(slice(a, b), 1.0), spans)
            par.shutdown_pool()
            par.run_tiles(lambda a, b: out.__setitem__(slice(a, b), 2.0), spans)
        np.testing.assert_array_equal(out, 2.0)

    def test_run_tiles_propagates_worker_exceptions(self):
        def explode(a, b):
            if a >= 4:
                raise RuntimeError(f"tile {a}")

        with par.threads(3):
            with pytest.raises(RuntimeError, match="tile 4"):
                par.run_tiles(explode, [(0, 4), (4, 8), (8, 13)])

    def test_run_tiles_nested_from_worker_runs_inline(self):
        """A nested run_tiles from inside a worker must not deadlock the pool."""
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
