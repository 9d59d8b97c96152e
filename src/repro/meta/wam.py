"""Workload-adaptive Architectural Mask (WAM) generation.

Section IV-C / Fig. 4 of the paper: during pre-training, the attention
weights of the *last* self-attention layer are recorded for many episodes
drawn from the source workloads ("mask candidates").  Parameter interactions
that occur with high frequency across diverse workloads are kept; the rest
are treated as noise and suppressed.  The resulting mask is installed as an
additive bias on the attention logits and is itself trainable during the
adaptation stage (Algorithm 2 lines 1-2).

Design choices made explicit:

* "frequency" is measured as the average attention probability a (query
  parameter, key parameter) pair receives, averaged over batches, heads and
  source workloads;
* a pair is *relevant* when its average attention exceeds the given quantile
  of all pairs (default: the median), mirroring the paper's "high-frequency
  correlations";
* suppressed pairs receive a negative logit bias (``-penalty``) rather than
  ``-inf`` so the adaptation stage can revive an interaction that turns out
  to matter for the target workload — this is what makes the mask
  *workload-adaptive* rather than a hard structural prune.

Beyond the mask, the harvested attention carries a second signal
(AttentionDSE, arXiv:2410.18368 — the same authors' companion paper): how
much attention each *parameter* receives identifies which design parameters
matter for a workload.  The importance-profile API at the bottom of this
module distils that into :class:`ImportanceProfile` — normalized
per-parameter scores from one task-batched forward — which the design-space
pruning layer (:class:`repro.designspace.sampling.FocusedSampler`,
:class:`repro.dse.engine.FocusedPool`) uses for *acquisition*: spending the
candidate budget on high-importance parameters while clamping or
coarse-gridding the rest.  See ``docs/pruning.md``.

Precision: the collection forwards run in the model's own dtype (a float32
surrogate is harvested in float32), but the frequency statistics accumulate
in float64 — summing thousands of small probabilities is exactly where
float32 accumulation drifts — and the distilled bias is float64;
``install_mask`` casts it to the receiving model's dtype.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.datasets.tasks import TaskSampler
from repro.nn.tensor import Tensor
from repro.nn.transformer import TransformerPredictor


@dataclass
class WAMConfig:
    """Hyper-parameters of the mask-generation step."""

    #: Quantile of pair frequencies below which an interaction is suppressed.
    keep_quantile: float = 0.5
    #: Magnitude of the negative logit bias applied to suppressed pairs.
    penalty: float = 1.0
    #: Number of episodes per source workload used to collect statistics.
    episodes_per_workload: int = 4

    def __post_init__(self) -> None:
        if not 0.0 <= self.keep_quantile < 1.0:
            raise ValueError(
                f"keep_quantile must be in [0, 1), got {self.keep_quantile}"
            )
        if self.penalty < 0:
            raise ValueError(f"penalty must be >= 0, got {self.penalty}")
        if self.episodes_per_workload < 1:
            raise ValueError("episodes_per_workload must be >= 1")


@dataclass
class ArchitecturalMask:
    """The generated mask plus the statistics it was distilled from."""

    #: Additive attention-logit bias, shape (num_parameters, num_parameters).
    bias: np.ndarray
    #: Average attention frequency per (query, key) parameter pair.
    frequency: np.ndarray
    #: Boolean matrix of the interactions that were kept.
    kept: np.ndarray
    config: WAMConfig

    @property
    def num_parameters(self) -> int:
        """Number of architectural parameters (tokens)."""
        return self.bias.shape[0]

    @property
    def sparsity(self) -> float:
        """Fraction of parameter pairs that were suppressed."""
        return float(1.0 - self.kept.mean())

    def top_interactions(self, count: int = 10) -> list[tuple[int, int, float]]:
        """The *count* strongest parameter interactions as (query, key, freq)."""
        flat = np.argsort(self.frequency, axis=None)[::-1]
        result = []
        for position in flat[:count]:
            i, j = np.unravel_index(int(position), self.frequency.shape)
            result.append((int(i), int(j), float(self.frequency[i, j])))
        return result


class WAMBuilder:
    """Accumulates attention statistics and distils them into a mask."""

    def __init__(self, num_parameters: int, config: Optional[WAMConfig] = None) -> None:
        if num_parameters < 1:
            raise ValueError("num_parameters must be >= 1")
        self.num_parameters = num_parameters
        self.config = config if config is not None else WAMConfig()
        self._sum = np.zeros((num_parameters, num_parameters), dtype=np.float64)
        self._count = 0

    # -- statistics accumulation ------------------------------------------------
    def accumulate(self, attention: np.ndarray) -> None:
        """Add one recorded attention tensor to the statistics.

        Accepts ``(tokens, tokens)`` or any higher-rank tensor whose last two
        axes are ``(tokens, tokens)`` (batch/heads are averaged out).
        """
        attention = np.asarray(attention, dtype=np.float64)
        if attention.shape[-2:] != (self.num_parameters, self.num_parameters):
            raise ValueError(
                f"attention trailing shape {attention.shape[-2:]} does not match "
                f"{self.num_parameters} parameters"
            )
        while attention.ndim > 2:
            attention = attention.mean(axis=0)
        self._sum += attention
        self._count += 1

    def collect_from_model(
        self,
        model: TransformerPredictor,
        sampler: TaskSampler,
        source_workloads: Sequence[str],
    ) -> None:
        """Run the meta-trained model over source episodes and record attention.

        This is steps 1-2 of Fig. 4: the support+query samples of episodes
        from every *source* workload are pushed through the predictor and the
        last layer's attention probabilities are harvested.  Each workload's
        episodes are stacked on a leading task axis and evaluated in a single
        batched forward (the predictor's parameters are shared across the
        axis); the recorded ``(episodes, batch, heads, tokens, tokens)``
        attention is accumulated per episode so every episode keeps equal
        weight in the frequency statistics.
        """
        if not source_workloads:
            raise ValueError("collect_from_model needs at least one source workload")
        for workload in source_workloads:
            episodes = [
                sampler.sample_task(workload)
                for _ in range(self.config.episodes_per_workload)
            ]
            inputs = np.stack(
                [
                    np.concatenate([task.support_x, task.query_x], axis=0)
                    for task in episodes
                ]
            )
            # In the model's dtype: a float64 Tensor would promote a float32
            # model's whole forward to float64.
            model(Tensor(np.asarray(inputs, dtype=model.dtype)))
            recorded = model.last_attention_layer.last_attention
            for episode_attention in recorded:
                self.accumulate(episode_attention)

    # -- distillation -----------------------------------------------------------
    @property
    def frequency(self) -> np.ndarray:
        """Average attention frequency accumulated so far."""
        if self._count == 0:
            raise RuntimeError("no attention statistics accumulated yet")
        return self._sum / self._count

    def build(self) -> ArchitecturalMask:
        """Distil the accumulated statistics into an :class:`ArchitecturalMask`.

        The diagonal (a parameter attending to itself) is always kept.
        """
        frequency = self.frequency
        threshold = float(np.quantile(frequency, self.config.keep_quantile))
        kept = frequency >= threshold
        np.fill_diagonal(kept, True)
        bias = np.where(kept, 0.0, -self.config.penalty)
        return ArchitecturalMask(
            bias=bias.astype(np.float64),
            frequency=frequency,
            kept=kept,
            config=self.config,
        )


def generate_wam(
    model: TransformerPredictor,
    sampler: TaskSampler,
    source_workloads: Sequence[str],
    *,
    config: Optional[WAMConfig] = None,
) -> ArchitecturalMask:
    """Convenience one-call WAM generation (Fig. 4 steps 1-3)."""
    builder = WAMBuilder(model.num_parameters, config)
    builder.collect_from_model(model, sampler, source_workloads)
    return builder.build()


# -- parameter-importance profiles (attention-guided pruning) -----------------------
@dataclass(frozen=True)
class ImportanceProfile:
    """Normalized per-parameter importance scores for one workload.

    ``scores`` is a float64 vector with one entry per architectural
    parameter (declaration order), every entry non-negative and the whole
    vector summing to 1 — the average attention each parameter *receives*
    across queries, heads and batch rows.  The profile is the acquisition
    signal of the pruning layer: a
    :class:`~repro.designspace.sampling.FocusedSampler` keeps the
    top-scored positions at full resolution.
    """

    scores: np.ndarray
    #: Workload the profile was harvested for (``None`` for merged profiles).
    workload: Optional[str] = None

    def __post_init__(self) -> None:
        scores = np.asarray(self.scores, dtype=np.float64)
        if scores.ndim != 1 or scores.shape[0] < 1:
            raise ValueError(
                f"scores must be a non-empty 1-D vector, got shape {scores.shape}"
            )
        if not np.all(np.isfinite(scores)) or np.any(scores < 0):
            raise ValueError("scores must be finite and non-negative")
        total = float(scores.sum())
        if total <= 0:
            raise ValueError("scores must have positive mass")
        object.__setattr__(self, "scores", scores / total)

    @property
    def num_parameters(self) -> int:
        return int(self.scores.shape[0])


def attention_importance(attention: np.ndarray) -> np.ndarray:
    """Per-parameter importance from recorded attention probabilities.

    Accepts any tensor whose last two axes are ``(queries, keys)`` over the
    architectural parameters (leading batch/heads/task axes are averaged
    out, in float64 like the WAM statistics).  A parameter's importance is
    the average attention it receives as a *key*; the result is normalized
    to sum to 1.
    """
    attention = np.asarray(attention, dtype=np.float64)
    if attention.ndim < 2 or attention.shape[-1] != attention.shape[-2]:
        raise ValueError(
            f"attention must end in square (queries, keys) axes, "
            f"got shape {attention.shape}"
        )
    scores = attention.mean(axis=tuple(range(attention.ndim - 1)))
    total = float(scores.sum())
    if not np.isfinite(total) or total <= 0:
        raise ValueError("attention probabilities must have positive finite mass")
    return scores / total


def importance_profile(
    model: TransformerPredictor,
    features: np.ndarray,
    *,
    workload: Optional[str] = None,
) -> ImportanceProfile:
    """Harvest a parameter-importance profile from one batched forward.

    Runs *features* (``(n, P)``, optionally with a leading task axis)
    through the predictor — a single forward, no RNG — and distils the last
    attention layer's probabilities with :func:`attention_importance`.
    Deterministic for a fixed model and feature matrix (the autodiff
    forward does not read the ``repro.nn.parallel`` worker count); the
    layer's stored ``last_attention`` is restored afterwards so profile
    harvesting never perturbs WAM collection state.
    """
    layer = model.last_attention_layer
    stored_attention = layer.last_attention
    try:
        model(Tensor(np.asarray(features, dtype=model.dtype)))
        scores = attention_importance(layer.last_attention)
    finally:
        layer.last_attention = stored_attention
    return ImportanceProfile(scores=scores, workload=workload)


def profile_from_predictors(
    predictors: Sequence[TransformerPredictor],
    features: np.ndarray,
    *,
    workload: Optional[str] = None,
) -> ImportanceProfile:
    """Profile averaged over several predictors of the same workload.

    A multi-objective campaign adapts one predictor per objective (IPC,
    power, ...); a parameter matters when *any* objective attends to it,
    so the per-model profiles are averaged and renormalized.
    """
    if not predictors:
        raise ValueError("profile_from_predictors needs at least one predictor")
    profiles = [
        importance_profile(model, features, workload=workload)
        for model in predictors
    ]
    return merge_profiles(profiles, workload=workload)


def merge_profiles(
    profiles: Sequence[ImportanceProfile], *, workload: Optional[str] = None
) -> ImportanceProfile:
    """Mean of several (already normalized) profiles, renormalized.

    Used to fold per-workload profiles into the single pooled profile a
    shared cross-workload candidate pool is focused with.
    """
    if not profiles:
        raise ValueError("merge_profiles needs at least one profile")
    width = profiles[0].num_parameters
    if any(profile.num_parameters != width for profile in profiles[1:]):
        raise ValueError("profiles cover different numbers of parameters")
    scores = np.mean([profile.scores for profile in profiles], axis=0)
    return ImportanceProfile(scores=scores, workload=workload)
