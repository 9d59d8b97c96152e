"""The AttentionDSE-style transformer surrogate predictor.

The predictor maps an encoded CPU configuration (one normalised scalar per
Table I parameter) to a performance metric (IPC or power):

1. every parameter becomes a token via :class:`ParameterEmbedding`;
2. a stack of pre-norm transformer encoder layers mixes the tokens, letting
   the model learn parameter-parameter interactions (the attention weights of
   the *last* layer are what the WAM algorithm harvests);
3. tokens are mean-pooled and a small MLP head emits the prediction.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.layers import MLP, LayerNorm, ParameterEmbedding
from repro.nn.module import Module
from repro.nn.tensor import (
    Tensor,
    affine_forward,
    attention_forward,
    gelu_forward,
    layer_norm_forward,
)
from repro.utils.rng import SeedLike, as_rng


class TransformerEncoderLayer(Module):
    """Pre-norm transformer encoder block (attention + feed-forward)."""

    def __init__(
        self,
        embed_dim: int,
        num_heads: int,
        *,
        ff_multiplier: int = 2,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        rng = as_rng(seed)
        self.attention = MultiHeadSelfAttention(embed_dim, num_heads, seed=rng)
        self.attention_norm = LayerNorm(embed_dim)
        self.feedforward = MLP(
            embed_dim, [embed_dim * ff_multiplier], embed_dim, seed=rng
        )
        self.feedforward_norm = LayerNorm(embed_dim)

    def forward(self, tokens: Tensor) -> Tensor:
        tokens = tokens + self.attention(self.attention_norm(tokens))
        return tokens + self.feedforward(self.feedforward_norm(tokens))


class TransformerPredictor(Module):
    """Transformer-based surrogate model for CPU performance prediction.

    Parameters
    ----------
    num_parameters:
        Number of architectural parameters (tokens); 22 for Table I.
    embed_dim, num_heads, num_layers:
        Transformer capacity knobs.  The defaults are sized for few-shot
        training on a single CPU core.
    seed:
        Initialisation seed (deterministic by default).

    The forward is fixed: no dropout and no train/eval mode, GELU in every
    MLP, one scalar prediction per configuration, and an architectural mask
    only ever on the last attention layer.
    """

    def __init__(
        self,
        num_parameters: int,
        *,
        embed_dim: int = 32,
        num_heads: int = 4,
        num_layers: int = 2,
        ff_multiplier: int = 2,
        head_hidden: int = 64,
        seed: SeedLike = 0,
    ) -> None:
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        rng = as_rng(seed)
        self.num_parameters = num_parameters
        self.embed_dim = embed_dim
        self.num_layers = num_layers
        self.embedding = ParameterEmbedding(num_parameters, embed_dim, seed=rng)
        self._layer_names: list[str] = []
        for index in range(num_layers):
            name = f"encoder{index}"
            self.register_module(
                name,
                TransformerEncoderLayer(
                    embed_dim, num_heads, ff_multiplier=ff_multiplier, seed=rng
                ),
            )
            self._layer_names.append(name)
        self.final_norm = LayerNorm(embed_dim)
        self.head = MLP(embed_dim, [head_hidden], 1, seed=rng)

    # -- forward ---------------------------------------------------------------
    def forward(self, inputs: Tensor) -> Tensor:
        """Predict from encoded configurations of shape ``(batch, P)``.

        Returns a tensor of shape ``(batch,)``.  A leading task axis
        (``(n_tasks, batch, P)`` in, ``(n_tasks, batch)`` out) runs the
        task-batched path: with parameters bound task-stacked via
        :meth:`Module.functional_call` every task is predicted by its own
        parameter slice; plain parameters are shared across tasks.
        """
        if not isinstance(inputs, Tensor):
            # Raw arrays are cast to the model's own dtype (the fast path);
            # a Tensor input is taken as-is, so an explicitly float64 Tensor
            # fed to a float32 model promotes per numpy rules.
            inputs = Tensor(np.asarray(inputs, dtype=self.dtype))
        if inputs.ndim not in (2, 3):
            raise ValueError(
                f"expected (batch, {self.num_parameters}) input "
                f"(optionally with a leading task axis), got {inputs.shape}"
            )
        tokens = self.embedding(inputs)
        for name in self._layer_names:
            tokens = self._modules[name](tokens)
        pooled = self.final_norm(tokens).mean(axis=-2)
        out = self.head(pooled)
        return out.reshape(out.shape[:-1])

    def stacked_inference(
        self, params: Mapping[str, np.ndarray], inputs: np.ndarray
    ) -> np.ndarray:
        """Graph-free forward of a stacked parameter bank.

        *params* maps every parameter name to a ``(T, ...)`` stack of T
        models' values; *inputs* ``(batch, P)`` are shared by all T.
        Returns ``(T, batch)``, bit for bit what
        ``functional_call(params, Tensor(broadcast inputs))`` returns: both
        run the slice-stable forward functions of :mod:`repro.nn.tensor`,
        here on plain arrays.  Nothing is bound or recorded on the module,
        so concurrent calls are safe.
        """

        def norm(name: str, layer: LayerNorm, x: np.ndarray) -> np.ndarray:
            gamma, beta = params[f"{name}.gamma"], params[f"{name}.beta"]
            shape = (gamma.shape[0], *([1] * (x.ndim - 2)), gamma.shape[-1])
            return layer_norm_forward(
                x, gamma.reshape(shape), beta.reshape(shape), layer.eps
            )[0]

        def linear(name: str, x: np.ndarray) -> np.ndarray:
            return affine_forward(x, params[f"{name}.weight"], params[f"{name}.bias"])

        def mlp(name: str, module: MLP, x: np.ndarray) -> np.ndarray:
            # Both MLPs of this model put GELU between their layers.
            for index, layer in enumerate(module._layer_names):
                x = linear(f"{name}.{layer}", x)
                if index != len(module._layer_names) - 1:
                    activated = np.empty_like(x)
                    gelu_forward(x, activated, activated)
                    x = activated
            return x

        scale = params["embedding.value_scale"]
        shape = (scale.shape[0], 1, *scale.shape[1:])
        tokens = inputs[:, :, None] * scale.reshape(shape)
        tokens += params["embedding.positional"].reshape(shape)
        for name in self._layer_names:
            encoder: TransformerEncoderLayer = self._modules[name]
            attention = encoder.attention
            normed = norm(f"{name}.attention_norm", encoder.attention_norm, tokens)
            q, k, v = (
                linear(f"{name}.attention.{role}", normed)
                for role in ("query", "key", "value")
            )
            mask = params.get(f"{name}.attention.mask")
            if mask is not None:
                mask = mask.reshape(mask.shape[0], 1, 1, *mask.shape[1:])
            context, _ = attention_forward(
                q, k, v, attention.num_heads, 1.0 / np.sqrt(attention.head_dim), mask
            )
            tokens = tokens + linear(f"{name}.attention.output", context)
            normed = norm(f"{name}.feedforward_norm", encoder.feedforward_norm, tokens)
            tokens = tokens + mlp(f"{name}.feedforward", encoder.feedforward, normed)
        normed = norm("final_norm", self.final_norm, tokens)
        # Tensor.mean's arithmetic: the sum times the reciprocal count.
        pooled = normed.sum(axis=-2) * np.asarray(1.0 / normed.shape[-2], normed.dtype)
        return mlp("head", self.head, pooled)[..., 0]

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Numpy-in / numpy-out inference helper (no graph is built).

        Runs :meth:`stacked_inference` on a one-model stack of this model's
        own parameters over ``(batch, P)`` inputs cast to the model's dtype,
        which returns bit for bit what :meth:`forward` returns.
        """
        inputs = np.asarray(inputs, dtype=self.dtype)
        if inputs.ndim != 2:
            raise ValueError(
                f"expected (batch, {self.num_parameters}) input, got {inputs.shape}"
            )
        params = {name: p.data[None] for name, p in self.named_parameters()}
        return self.stacked_inference(params, inputs)[0]

    # -- attention access for WAM ------------------------------------------------
    @property
    def last_attention_layer(self) -> MultiHeadSelfAttention:
        """The self-attention operator of the final encoder layer."""
        final_encoder: TransformerEncoderLayer = self._modules[self._layer_names[-1]]
        return final_encoder.attention

    def install_mask(self, mask: np.ndarray) -> None:
        """Install a workload-adaptive architectural mask on the last layer.

        The last layer is the one the mask was distilled from; the mask is
        a learnable parameter of it (Algorithm 2 lines 1-2).
        """
        self.last_attention_layer.install_mask(mask)
