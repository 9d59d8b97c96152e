"""A small reverse-mode automatic-differentiation engine on top of numpy.

No deep-learning framework is available in the offline environment, so the
transformer predictor and the MAML training loop are built on this engine.
The design follows the familiar define-by-run pattern:

* a :class:`Tensor` wraps a float numpy array, a gradient buffer, and a
  closure that knows how to propagate gradients to its parents;
* operations build the computation graph on the fly;
* :meth:`Tensor.backward` topologically sorts the graph and runs the stored
  closures in reverse order.

Only the operations the library actually needs are implemented, but each one
supports full numpy broadcasting (gradients are "un-broadcast" by summing
over the broadcast axes), which keeps layer implementations natural.

**Precision.**  Tensors are not pinned to ``float64``: data that already
carries an explicit float dtype keeps it, and everything else (Python
scalars, lists, integer arrays) is allocated in the policy dtype of
:mod:`repro.nn.precision`.  Scalar constants folded into binary operations
(``x * 0.5``) take the dtype of their tensor operand, so a float32 graph
stays float32 end to end; mixing float tensors of different widths follows
numpy promotion (float32 ⊕ float64 → float64).  The fused kernels below
(``affine``, ``layer_norm``, ``scaled_dot_product_attention``, ``gelu``)
allocate their outputs and intermediates in the dtype of their inputs.
The contract is spelled out in ``docs/numerics.md``.

**Fused kernels.**  Each fused kernel is one graph node with one forward
and one backward closure.  Its forward is a shared array-level function
(``affine_forward``, ``layer_norm_forward``, ``gelu_forward``,
``attention_forward``), the same one the graph-free inference pass runs, so
the two agree bit for bit (``docs/kernels.md``).

**Stacked-parameter convention.**  The task-batched execution layer (see
:mod:`repro.nn.module`) binds parameters with one extra leading task axis;
the fused primitives here dispatch on that rank.  A minimal example of the
convention at the tensor level::

    w = Tensor(np.zeros((4, 3, 5)))         # 4 task slices of a (3, 5) weight
    b = Tensor(np.zeros((4, 5)))            # and of a (5,) bias
    x = Tensor(np.ones((4, 10, 3)))         # task t's rows meet slice t
    y = affine(x, w, b)                     # (4, 10, 5), one stacked GEMM
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.nn.precision import default_dtype

ArrayLike = Union[float, int, Sequence, np.ndarray, "Tensor"]


def _as_array(value: ArrayLike, dtype: Optional[np.dtype] = None) -> np.ndarray:
    """Coerce *value* to a float numpy array.

    With an explicit *dtype* the result is cast to it.  Otherwise a numpy
    array that already carries a supported float dtype is passed through
    unchanged (an explicit dtype choice wins), and everything else — Python
    scalars, lists, integer or boolean arrays — is allocated in the policy
    dtype of :func:`repro.nn.precision.default_dtype`.
    """
    if isinstance(value, Tensor):
        value = value.data
    if dtype is not None:
        return np.asarray(value, dtype=dtype)
    if isinstance(value, (np.ndarray, np.generic)) and value.dtype in (
        np.float32,
        np.float64,
    ):
        return np.asarray(value)
    return np.asarray(value, dtype=default_dtype())


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum *grad* over axes that were broadcast to reach *shape*'s gradient.

    If ``a`` with shape ``shape`` was broadcast to produce an output whose
    gradient is *grad*, the gradient with respect to ``a`` is obtained by
    summing over the added leading axes and over every axis where ``a`` had
    extent one.
    """
    if grad.shape == shape:
        return grad
    # Sum over extra leading dimensions.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes where the original extent was 1 but the gradient is wider.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _coerce_operand(other: ArrayLike, like: np.ndarray) -> "Tensor":
    """Wrap the non-Tensor operand of a binary op.

    Python/numpy scalars are folded to the dtype of the tensor operand
    *like*, so scalar constants never widen a float32 graph (numpy's NEP 50
    rules make 0-d float64 arrays "strong", which would otherwise promote
    every ``x * 0.5``).  Arrays go through the usual :func:`_as_array`
    policy and participate in ordinary numpy promotion.
    """
    if isinstance(other, Tensor):
        return other
    if isinstance(other, (int, float, np.number)):
        return Tensor(np.asarray(other, dtype=like.dtype))
    return Tensor(other)


class Tensor:
    """A node in the autodiff graph."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")
    __array_priority__ = 100  # make numpy defer to Tensor's reflected operators

    def __init__(
        self,
        data: ArrayLike,
        *,
        dtype: Optional[np.dtype] = None,
        requires_grad: bool = False,
        parents: tuple["Tensor", ...] = (),
        backward: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
    ) -> None:
        self.data = _as_array(data, dtype=dtype)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents = parents
        self._backward = backward
        self.name = name

    # -- basic introspection -------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        """Dtype of the underlying array."""
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def item(self) -> float:
        """Return the single element of a scalar tensor."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    # -- gradient bookkeeping ---------------------------------------------------
    def zero_grad(self) -> None:
        """Clear the accumulated gradient."""
        self.grad = None

    def _accumulate_grad(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        # A leaf's gradient always matches the leaf's dtype: a mixed-width
        # graph (float32 parameters, float64 inputs) computes in float64 but
        # hands float32 gradients to float32 parameters, so optimizer
        # updates never silently widen the model.
        if grad.dtype != self.data.dtype:
            grad = grad.astype(self.data.dtype)
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad = self.grad + grad

    def backward(self) -> None:
        """Run reverse-mode differentiation from this scalar tensor.

        The seed gradient is one, in the output's own dtype, so a float32
        graph accumulates float32 gradients.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        grad = np.ones_like(self.data)

        # Topological order of the graph reachable from self.
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        self._accumulate_grad(grad)
        for node in reversed(order):
            node_grad = grads.pop(id(node), None)
            if node_grad is None or node._backward is None:
                continue
            parent_grads = node._backward(node_grad)
            for parent, pgrad in zip(node._parents, parent_grads):
                if pgrad is None:
                    continue
                if parent.requires_grad or parent._parents:
                    existing = grads.get(id(parent))
                    grads[id(parent)] = pgrad if existing is None else existing + pgrad
            # Accumulate into leaf .grad buffers.
            for parent, pgrad in zip(node._parents, parent_grads):
                if pgrad is not None and parent.requires_grad and parent._backward is None:
                    parent._accumulate_grad(pgrad)

    # -- graph construction helpers -----------------------------------------
    @staticmethod
    def _needs_graph(*tensors: "Tensor") -> bool:
        return any(t.requires_grad or t._parents for t in tensors)

    @classmethod
    def _make(
        cls,
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward: Callable[[np.ndarray], tuple],
    ) -> "Tensor":
        if cls._needs_graph(*parents):
            return cls(data, requires_grad=False, parents=parents, backward=backward)
        return cls(data)

    # -- arithmetic -------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = _coerce_operand(other, self.data)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> tuple:
            return (
                _unbroadcast(grad, self.shape),
                _unbroadcast(grad, other.shape),
            )

        return Tensor._make(out_data, (self, other), backward)

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> tuple:
            return (-grad,)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = _coerce_operand(other, self.data)
        out_data = self.data - other.data

        def backward(grad: np.ndarray) -> tuple:
            return (
                _unbroadcast(grad, self.shape),
                _unbroadcast(-grad, other.shape),
            )

        return Tensor._make(out_data, (self, other), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return _coerce_operand(other, self.data).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = _coerce_operand(other, self.data)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> tuple:
            return (
                _unbroadcast(grad * other.data, self.shape),
                _unbroadcast(grad * self.data, other.shape),
            )

        return Tensor._make(out_data, (self, other), backward)

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = _coerce_operand(other, self.data)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> tuple:
            return (
                _unbroadcast(grad / other.data, self.shape),
                _unbroadcast(-grad * self.data / (other.data ** 2), other.shape),
            )

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return _coerce_operand(other, self.data).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        if exponent == 2:  # fast path: np.power is slow for small powers
            out_data = self.data * self.data

            def backward_sq(grad: np.ndarray) -> tuple:
                return (grad * (2.0 * self.data),)

            return Tensor._make(out_data, (self,), backward_sq)
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> tuple:
            return (grad * exponent * self.data ** (exponent - 1),)

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)  # arrays only
        out_data = np.matmul(self.data, other.data)

        def backward(grad: np.ndarray) -> tuple:
            a, b = self.data, other.data
            # Treat 1-D operands by temporarily promoting them, as matmul does.
            a2 = a[None, :] if a.ndim == 1 else a
            b2 = b[:, None] if b.ndim == 1 else b
            g = grad
            if a.ndim == 1:
                g = np.expand_dims(g, axis=-2)
            if b.ndim == 1:
                g = np.expand_dims(g, axis=-1)
            grad_a = np.matmul(g, np.swapaxes(b2, -1, -2))
            grad_b = np.matmul(np.swapaxes(a2, -1, -2), g)
            if a.ndim == 1:
                grad_a = np.squeeze(grad_a, axis=-2)
            if b.ndim == 1:
                grad_b = np.squeeze(grad_b, axis=-1)
            return (
                _unbroadcast(grad_a, self.shape),
                _unbroadcast(grad_b, other.shape),
            )

        return Tensor._make(out_data, (self, other), backward)

    # -- elementwise nonlinearities ------------------------------------------
    def gelu(self) -> "Tensor":
        """Gaussian error linear unit (tanh approximation).

        The hottest elementwise op in transformer training on this engine,
        so it is written tightly: ``x*x`` instead of ``np.power``, and the
        intermediate buffers are updated in place.
        """
        x = self.data
        x_sq, out_data = np.empty_like(x), np.empty_like(x)
        tanh_inner = gelu_forward(x, out_data, x_sq)

        def backward(grad: np.ndarray) -> tuple:
            sech2 = 1.0 - tanh_inner * tanh_inner
            d_inner = (3 * 0.044715) * x_sq
            d_inner += 1.0
            d_inner *= _GELU_C
            d_inner *= sech2
            d_inner *= x
            d_inner += 1.0 + tanh_inner
            d_inner *= 0.5
            d_inner *= grad
            return (d_inner,)

        return Tensor._make(out_data, (self,), backward)

    # -- reductions ---------------------------------------------------------------
    def sum(self, axis: Optional[int | tuple[int, ...]] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> tuple:
            g = grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                axes = tuple(a % self.data.ndim for a in axes)
                for a in sorted(axes):
                    g = np.expand_dims(g, axis=a)
            return (np.broadcast_to(g, self.shape).copy(),)

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis: Optional[int | tuple[int, ...]] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- shape manipulation -----------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original_shape = self.shape

        def backward(grad: np.ndarray) -> tuple:
            return (grad.reshape(original_shape),)

        return Tensor._make(out_data, (self,), backward)

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        out_data = np.swapaxes(self.data, axis1, axis2)

        def backward(grad: np.ndarray) -> tuple:
            return (np.swapaxes(grad, axis1, axis2),)

        return Tensor._make(out_data, (self,), backward)

    def __getitem__(self, key) -> "Tensor":
        out_data = self.data[key]

        def backward(grad: np.ndarray) -> tuple:
            full = np.zeros_like(self.data)
            np.add.at(full, key, grad)
            return (full,)

        return Tensor._make(out_data, (self,), backward)

    # -- fused numerically-stable primitives ------------------------------------
    def layer_norm(
        self, gamma: "Tensor", beta: "Tensor", *, eps: float = 1e-5
    ) -> "Tensor":
        """Fused layer normalisation over the last axis.

        Equivalent to ``(x - mean) / sqrt(var + eps) * gamma + beta`` with
        biased variance, but as a single graph node with a tight backward —
        the unfused expression allocates ~10 intermediate arrays per call,
        which dominates transformer training time on this engine.  *gamma*
        and *beta* broadcast against the normalised input (they may carry
        leading task axes).
        """
        gamma = gamma if isinstance(gamma, Tensor) else Tensor(gamma)
        beta = beta if isinstance(beta, Tensor) else Tensor(beta)
        out_data, normalised, inv_std = layer_norm_forward(
            self.data, gamma.data, beta.data, eps
        )

        def backward(grad: np.ndarray) -> tuple:
            d_normalised = grad * gamma.data
            d_mean = _row_mean(d_normalised)
            d_proj = _row_mean(d_normalised * normalised)
            grad_gamma = _unbroadcast(grad * normalised, gamma.shape)
            grad_beta = _unbroadcast(grad, beta.shape)
            # Reuse d_normalised's buffer for the input gradient.
            d_normalised -= d_mean
            d_normalised -= normalised * d_proj
            d_normalised *= inv_std
            return (d_normalised, grad_gamma, grad_beta)

        return Tensor._make(out_data, (self, gamma, beta), backward)


def affine(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Fused affine transform ``x @ weight + bias`` over the last axis.

    One graph node covering the GEMM-bias pipeline of a ``Linear`` layer
    (the unfused spelling costs four nodes and two full-size temporaries
    per call).  *weight* is ``(in, out)`` — or ``(n_tasks, in,
    out)`` for the batched-parameter path, where ``x`` is ``(n_tasks, ...,
    in)`` and task ``t``'s rows meet weight slice ``t``; *bias* is ``(out,)``
    or ``(n_tasks, out)`` accordingly.  The forward is
    :func:`affine_forward`; the backward flattens the batch axes into one
    GEMM per gradient.
    """
    out_data = affine_forward(x.data, weight.data, bias.data)

    def backward(grad: np.ndarray) -> tuple:
        in_features, out_features = weight.data.shape[-2:]
        if weight.data.ndim == 3:
            n_tasks = weight.data.shape[0]
            x_flat = x.data.reshape(n_tasks, -1, in_features)
            g_flat = grad.reshape(n_tasks, -1, out_features)
            grad_w = np.matmul(x_flat.swapaxes(-1, -2), g_flat)
            grad_b = g_flat.sum(axis=1)
            grad_x = np.matmul(g_flat, weight.data.swapaxes(-1, -2))
        else:
            x_flat = x.data.reshape(-1, in_features)
            g_flat = grad.reshape(-1, out_features)
            grad_w = np.matmul(x_flat.T, g_flat)
            grad_b = g_flat.sum(axis=0)
            grad_x = np.matmul(g_flat, weight.data.T)
        return (grad_x.reshape(x.data.shape), grad_w, grad_b)

    return Tensor._make(out_data, (x, weight, bias), backward)


def scaled_dot_product_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    num_heads: int,
    *,
    scale: float,
    mask: Optional[Tensor] = None,
) -> tuple[Tensor, np.ndarray]:
    """Fused multi-head scaled-dot-product attention.

    *q*, *k*, *v* are the projected token tensors of shape
    ``(..., tokens, embed)`` (any number of leading batch/task axes); *mask*
    is an optional additive logit bias of shape ``(tokens, tokens)`` or with
    leading axes broadcastable against the ``(..., heads, tokens, tokens)``
    logits.  Returns the mixed tokens ``(..., tokens, embed)`` plus the
    attention probabilities as a plain ``(..., heads, tokens, tokens)`` array
    (detached, for the WAM statistics).

    The head split, logit matmul, softmax and context matmul run as ONE
    graph node over raw numpy with in-place updates on the ``tokens²``-sized
    temporaries — the hottest allocation site of transformer training on
    this engine, and the op the task-batched meta-training path leans on.
    """
    embed = q.data.shape[-1]
    if embed % num_heads:
        raise ValueError(f"embed ({embed}) must be divisible by num_heads ({num_heads})")
    out_data, attention = attention_forward(
        q.data, k.data, v.data, num_heads, scale, None if mask is None else mask.data
    )
    q4, k4, v4 = (_split_heads(x, num_heads) for x in (q.data, k.data, v.data))

    def backward(grad: np.ndarray) -> tuple:
        d_context = _split_heads(grad, num_heads)
        d_attention = np.matmul(d_context, v4.swapaxes(-1, -2))
        d_v = _matmul_merged(attention.swapaxes(-1, -2), d_context)
        # Softmax backward, reusing d_attention's buffer for the logits grad.
        dot = _row_sum(d_attention * attention)
        d_attention -= dot
        d_attention *= attention
        d_logits = d_attention
        d_mask = None
        if mask is not None:
            d_mask = _unbroadcast(d_logits, mask.shape)
        d_q = _matmul_merged(d_logits, k4)
        d_q *= scale
        d_k = _matmul_merged(d_logits.swapaxes(-1, -2), q4)
        d_k *= scale
        return (d_q, d_k, d_v) + ((d_mask,) if mask is not None else ())

    parents = (q, k, v) if mask is None else (q, k, v, mask)
    return Tensor._make(out_data, parents, backward), attention


# -- slice-stable forward math ------------------------------------------------
#
# One array-level forward per fused kernel.  Each kernel runs its function
# on the whole array as its forward, and the graph-free inference pass
# ``TransformerPredictor.stacked_inference`` runs the same functions once per
# row block.  Each computes item by item over its leading axes (per-item
# GEMMs and GEMVs, elementwise ufuncs, column folds), so a block of rows
# gets exactly the bits the whole batch would, and the inference pass
# equals the autodiff forward bit for bit.

_GELU_C = np.sqrt(2.0 / np.pi)


def gelu_forward(x: np.ndarray, out: np.ndarray, x_sq: np.ndarray) -> np.ndarray:
    """Tanh-approximation GELU of *x* into *out*; returns ``tanh(inner)``.

    *x_sq* receives ``x * x`` (it may alias *out* when no backward needs
    it); ``tanh(inner)`` lands in a fresh buffer.
    """
    np.multiply(x, x, out=x_sq)
    inner = x_sq * x
    inner *= 0.044715
    inner += x
    inner *= _GELU_C
    tanh_inner = np.tanh(inner, out=inner)
    np.add(1.0, tanh_inner, out=out)
    out *= x
    out *= 0.5
    return tanh_inner


def layer_norm_forward(
    x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Layer norm over the last axis: ``(out, normalised, inv_std)``."""
    centered = x - _row_mean(x)
    variance = _row_mean(centered * centered)
    variance += eps
    np.sqrt(variance, out=variance)
    inv_std = np.divide(1.0, variance, out=variance)
    centered *= inv_std
    out = centered * gamma
    out += beta
    return out, centered, inv_std


def affine_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Slice-stable ``x @ weight + bias``: one GEMM per leading item.

    *weight* is ``(in, out)`` against ``(..., in)`` inputs, or task-stacked
    ``(T, in, out)`` against ``(T, ..., in)``; *bias* is ``(out,)`` or
    ``(T, out)`` accordingly.  Inputs without a token axis run every row as
    its own ``(1, in)`` product, so no GEMM ever spans rows.  A stacked
    weight against an input whose leading axis is not its task axis raises
    ``ValueError``.
    """
    stacked = weight.ndim == 3
    if stacked and (x.ndim < 2 or x.shape[0] != weight.shape[0]):
        raise ValueError(
            f"a task-stacked weight of shape {weight.shape} needs inputs of "
            f"shape ({weight.shape[0]}, ..., in), got {x.shape}"
        )
    per_row = x.ndim <= (3 if stacked else 2)
    if per_row:
        x = x[..., None, :]
    if stacked:
        # The (T, 1, ..., in, out) view broadcasts against every batch axis,
        # keeping each item's GEMM independent of the batch extent.
        weight = weight.reshape(weight.shape[0], *([1] * (x.ndim - 3)), *weight.shape[1:])
    out = np.matmul(x, weight)
    if per_row:
        out = out[..., 0, :]
    if stacked:
        bias = bias.reshape(bias.shape[0], *([1] * (out.ndim - 2)), bias.shape[-1])
    out += bias
    return out


def _split_heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    """``(..., tokens, embed)`` -> ``(..., heads, tokens, head_dim)``; a view."""
    return x.reshape(*x.shape[:-1], num_heads, x.shape[-1] // num_heads).swapaxes(-3, -2)


def _matmul_merged(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.matmul(a, b)`` of head-split operands, in the merged layout.

    The ``(..., heads, tokens, head_dim)`` product is written straight
    into a ``(..., tokens, embed)`` array through its head-split view, so
    no merge copy follows; each item's GEMM only writes with a wider row
    stride, which leaves its bits unchanged.
    """
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    heads, tokens, head_dim = lead[-1], a.shape[-2], b.shape[-1]
    merged = np.empty((*lead[:-1], tokens, heads * head_dim), dtype=np.result_type(a, b))
    np.matmul(a, b, out=_split_heads(merged, heads))
    return merged


def _row_sum(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=-1, keepdims=True)`` as one GEMV per item against a ones column.

    Items are the ``(rows, columns)`` matrices of the last two axes (each
    row on its own below three axes), so like every kernel step the sum is
    slice-stable: a block of items gets the bits the whole batch would.
    BLAS accumulates in another order than numpy's pairwise reduction, so
    the result may differ from ``np.sum`` in the last few ULPs.
    """
    ones = np.ones((x.shape[-1], 1), dtype=x.dtype)
    if x.ndim < 3:
        return np.matmul(x[..., None, :], ones)[..., 0, :]
    return np.matmul(x, ones)


def _row_mean(x: np.ndarray) -> np.ndarray:
    """``x.mean(axis=-1, keepdims=True)`` through :func:`_row_sum`."""
    mean = _row_sum(x)
    mean /= x.shape[-1]
    return mean


def _row_max(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=-1, keepdims=True)`` as a fold of ``np.maximum`` over the columns.

    One elementwise pass per column over every row at once, instead of a
    reduction that numpy runs one short row at a time.  The maximum does
    not depend on the order it is taken in, so the values equal the
    reduction's (only a zero maximum among mixed-sign zeros may take the
    other sign, which a shift ``x - max`` cannot tell apart).
    """
    out = x[..., :1].copy()
    for column in range(1, x.shape[-1]):
        np.maximum(out, x[..., column : column + 1], out=out)
    return out


def attention_forward(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    num_heads: int,
    scale: float,
    mask: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Multi-head softmax attention: ``(context, probabilities)``.

    *q*, *k*, *v* are ``(..., tokens, embed)``; *mask* is an additive logit
    bias broadcastable against the ``(..., heads, tokens, tokens)`` logits.
    """
    q4, k4, v4 = (_split_heads(x, num_heads) for x in (q, k, v))
    logits = np.matmul(q4, k4.swapaxes(-1, -2))
    logits *= scale
    if mask is not None:
        logits += mask
    logits -= _row_max(logits)
    np.exp(logits, out=logits)
    logits /= _row_sum(logits)
    return _matmul_merged(logits, v4), logits
