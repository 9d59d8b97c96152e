"""Standard neural-network layers built on the autograd engine.

Every parameterised layer has two forward paths selected by parameter rank:

* the **plain path** — parameters at their registered rank (e.g. a 2-D
  ``Linear`` weight), inputs shaped as usual.  Leading input axes broadcast,
  so a shared (unstacked) parameter also works under task-batched inputs;
* the **batched-parameter path** — parameters bound via
  :meth:`Module.functional_call` with one extra leading ``(n_tasks,)`` axis
  (see :meth:`Module.stack_parameters`), inputs with a matching leading task
  axis.  Task ``t`` of the input is transformed by parameter slice ``t``,
  which is what lets a whole MAML meta-batch run in one graph.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.module import Module
from repro.nn.precision import default_dtype
from repro.nn.tensor import Tensor, affine
from repro.utils.rng import SeedLike, as_rng


def xavier_uniform(shape: Sequence[int], rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform initialisation (allocated in the policy dtype).

    The draw itself is always float64 so a float32 model is the *rounding*
    of the float64 model with the same seed, not a different sample.
    """
    fan_in, fan_out = shape[0], shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(default_dtype(), copy=False)


class Linear(Module):
    """Affine transform ``y = x W + b`` over the last axis."""

    def __init__(
        self, in_features: int, out_features: int, *, seed: SeedLike = None
    ) -> None:
        super().__init__()
        if in_features < 1 or out_features < 1:
            raise ValueError("Linear features must be positive")
        rng = as_rng(seed)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = self.register_parameter(
            "weight", Tensor(xavier_uniform((in_features, out_features), rng))
        )
        self.bias = self.register_parameter(
            "bias", Tensor(np.zeros(out_features, dtype=default_dtype()))
        )

    def forward(self, inputs: Tensor) -> Tensor:
        # One fused graph node: leading input axes are collapsed into a
        # single GEMM (per task slice when the weight is bound task-stacked
        # as (n_tasks, in, out) via functional_call) and the bias lands on
        # the GEMM output in place.
        return affine(inputs, self.weight, self.bias)


class LayerNorm(Module):
    """Layer normalisation over the last axis."""

    def __init__(self, normalized_shape: int, *, eps: float = 1e-5) -> None:
        super().__init__()
        if normalized_shape < 1:
            raise ValueError("normalized_shape must be positive")
        self.eps = eps
        self.normalized_shape = normalized_shape
        self.gamma = self.register_parameter(
            "gamma", Tensor(np.ones(normalized_shape, dtype=default_dtype()))
        )
        self.beta = self.register_parameter(
            "beta", Tensor(np.zeros(normalized_shape, dtype=default_dtype()))
        )

    def forward(self, inputs: Tensor) -> Tensor:
        gamma, beta = self.gamma, self.beta
        if gamma.ndim > 1:
            # Batched-parameter path: gamma/beta (T, d) align their task axis
            # with inputs (T, ..., d) via singleton middle axes.
            shape = (gamma.shape[0], *([1] * (inputs.ndim - 2)), self.normalized_shape)
            gamma = gamma.reshape(shape)
            beta = beta.reshape(shape)
        return inputs.layer_norm(gamma, beta, eps=self.eps)


class MLP(Module):
    """Multi-layer perceptron with GELU between its layers."""

    def __init__(
        self,
        in_features: int,
        hidden_features: Sequence[int],
        out_features: int,
        *,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        rng = as_rng(seed)
        dims = [in_features, *hidden_features, out_features]
        self._layer_names: list[str] = []
        for index, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
            name = f"fc{index}"
            self.register_module(name, Linear(d_in, d_out, seed=rng))
            self._layer_names.append(name)

    def forward(self, inputs: Tensor) -> Tensor:
        out = inputs
        last = len(self._layer_names) - 1
        for index, name in enumerate(self._layer_names):
            out = self._modules[name](out)
            if index != last:
                out = out.gelu()
        return out


class ParameterEmbedding(Module):
    """Embed each architectural parameter's scalar value into a token vector.

    The AttentionDSE-style predictor treats every microarchitectural
    parameter as one token.  A parameter's normalised value ``v`` is embedded
    as ``v * scale_i + positional_i`` where both ``scale_i`` (a learned
    per-parameter direction) and ``positional_i`` (a learned per-parameter
    offset that doubles as a positional embedding) are trainable.
    """

    def __init__(self, num_parameters: int, embed_dim: int, *, seed: SeedLike = None) -> None:
        super().__init__()
        if num_parameters < 1 or embed_dim < 1:
            raise ValueError("num_parameters and embed_dim must be positive")
        rng = as_rng(seed)
        self.num_parameters = num_parameters
        self.embed_dim = embed_dim
        self.value_scale = self.register_parameter(
            "value_scale",
            Tensor(
                rng.normal(0.0, 1.0, size=(num_parameters, embed_dim)).astype(
                    default_dtype(), copy=False
                )
            ),
        )
        self.positional = self.register_parameter(
            "positional",
            Tensor(
                rng.normal(0.0, 0.02, size=(num_parameters, embed_dim)).astype(
                    default_dtype(), copy=False
                )
            ),
        )

    def forward(self, inputs: Tensor) -> Tensor:
        """Map ``(..., batch, P)`` parameter values to ``(..., batch, P, d)`` tokens.

        The canonical input is ``(batch, P)``; a leading task axis
        (``(n_tasks, batch, P)``) selects the batched-parameter path when the
        embeddings are bound task-stacked as ``(n_tasks, P, d)``.
        """
        if inputs.ndim < 2 or inputs.shape[-1] != self.num_parameters:
            raise ValueError(
                f"expected inputs of shape (..., batch, {self.num_parameters}), "
                f"got {inputs.shape}"
            )
        values = inputs.reshape(*inputs.shape, 1)
        scale, positional = self.value_scale, self.positional
        if scale.ndim > 2:
            # Task-stacked embeddings (T, P, d) meet values (T, ..., P, 1):
            # insert singleton batch axes after the task axis.
            middle = [1] * (values.ndim - 3)
            shape = (scale.shape[0], *middle, self.num_parameters, self.embed_dim)
            scale = scale.reshape(shape)
            positional = positional.reshape(shape)
        return values * scale + positional
