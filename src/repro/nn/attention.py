"""Multi-head self-attention with support for an architectural mask.

Two pieces of the paper live here:

* the attention operator of the transformer predictor, which records its
  most recent attention weights so the WAM algorithm can harvest "mask
  candidates" from the last self-attention layer during pre-training
  (Fig. 4, steps 1-2);
* the mask injection point: a WAM is an additive bias on the pre-softmax
  attention logits, installed as a parameter so it is trained together
  with the model during adaptation (Algorithm 2 sets
  ``M.required_grad = True``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.nn.tensor import Tensor, scaled_dot_product_attention
from repro.utils.rng import SeedLike, as_rng


class MultiHeadSelfAttention(Module):
    """Standard multi-head self-attention over parameter tokens.

    Parameters
    ----------
    embed_dim:
        Token embedding width.
    num_heads:
        Number of attention heads; must divide *embed_dim*.

    The layer keeps the attention probabilities of the latest forward pass
    in :attr:`last_attention`: a plain numpy array of shape ``(batch,
    heads, tokens, tokens)`` — or ``(n_tasks, batch, heads, tokens,
    tokens)`` after a task-batched forward.  The array aliases the
    (never-mutated) graph buffer rather than copying it; copy before
    writing to it.
    """

    def __init__(
        self, embed_dim: int, num_heads: int, *, seed: SeedLike = None
    ) -> None:
        super().__init__()
        if embed_dim % num_heads != 0:
            raise ValueError(
                f"embed_dim ({embed_dim}) must be divisible by num_heads ({num_heads})"
            )
        rng = as_rng(seed)
        self.embed_dim = embed_dim
        self.num_heads = num_heads
        self.head_dim = embed_dim // num_heads
        self.query = Linear(embed_dim, embed_dim, seed=rng)
        self.key = Linear(embed_dim, embed_dim, seed=rng)
        self.value = Linear(embed_dim, embed_dim, seed=rng)
        self.output = Linear(embed_dim, embed_dim, seed=rng)
        #: Attention probabilities of the last forward pass (numpy, detached).
        self.last_attention: Optional[np.ndarray] = None
        #: Optional workload-adaptive architectural mask (additive logit bias).
        self.mask: Optional[Tensor] = None

    # -- mask management -------------------------------------------------------
    def install_mask(self, mask: np.ndarray) -> Tensor:
        """Install an architectural mask as an additive attention-logit bias.

        The mask has shape ``(tokens, tokens)`` and is broadcast over batch
        and heads.  It is registered as a parameter so the adaptation stage
        fine-tunes it together with the weights (Algorithm 2 line 2).  The
        mask is cast to the layer's own parameter dtype, so installing the
        (float64) WAM statistics into a float32 model keeps the model
        uniformly float32.
        """
        mask = np.asarray(mask, dtype=self.query.weight.data.dtype)
        if mask.ndim != 2 or mask.shape[0] != mask.shape[1]:
            raise ValueError(f"mask must be square (tokens x tokens), got {mask.shape}")
        self.mask = self.register_parameter("mask", Tensor(mask.copy()))
        return self.mask

    # -- forward ---------------------------------------------------------------
    def forward(self, tokens: Tensor) -> Tensor:
        """Mix tokens of shape ``(batch, tokens, embed)``.

        A leading task axis (``(n_tasks, batch, tokens, embed)``) selects the
        batched-parameter path: the projections — and an installed mask bound
        task-stacked as ``(n_tasks, tokens, tokens)`` — are applied per task.
        """
        if tokens.ndim not in (3, 4) or tokens.shape[-1] != self.embed_dim:
            raise ValueError(
                f"expected (batch, tokens, {self.embed_dim}) input "
                f"(optionally with a leading task axis), got {tokens.shape}"
            )
        num_tokens = tokens.shape[-2]
        q = self.query(tokens)
        k = self.key(tokens)
        v = self.value(tokens)

        mask = self.mask
        if mask is not None and mask.ndim > 2:
            # Task-stacked mask (T, tokens, tokens): align the task axis with
            # the (T, batch, heads, tokens, tokens) attention logits.
            mask = mask.reshape(
                mask.shape[0], *([1] * (tokens.ndim - 2)), num_tokens, num_tokens
            )
        context, attention = scaled_dot_product_attention(
            q, k, v, self.num_heads,
            scale=1.0 / np.sqrt(self.head_dim),
            mask=mask,
        )
        # The probabilities array is never mutated afterwards (the engine is
        # functional), so recording it needs no defensive copy.
        self.last_attention = attention
        return self.output(context)
