"""Downstream adaptation (Algorithm 2 of the paper).

Given the meta-trained predictor ``f_theta*`` and a handful of labelled
samples from the *target* workload, the adaptation stage:

1. optionally installs the workload-adaptive architectural mask in the
   last self-attention operator as a trainable parameter (Algorithm 2
   lines 1-2);
2. clones the meta-trained parameters (``theta_hat* = theta*``);
3. runs a small number of cosine-annealed SGD steps on the target support
   set with a low learning rate (Section VI-A: ten steps, ``1e-5`` with
   cosine annealing in the paper's setup);
4. returns the adapted predictor, which is then evaluated on unseen target
   design points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.meta.wam import ArchitecturalMask
from repro.nn.optim import CosineAnnealingLR, StackedSGD
from repro.nn.tensor import Tensor
from repro.nn.transformer import TransformerPredictor


@dataclass
class AdaptationConfig:
    """Hyper-parameters of the adaptation stage.

    The defaults are tuned for the synthetic substrate;
    :data:`PAPER_ADAPTATION_CONFIG` records the paper's quoted values.
    """

    steps: int = 10
    lr: float = 0.01
    #: Learning-rate multiplier for the mask parameters.  The mask is a small,
    #: structured set of knobs (one per parameter pair), so letting it move
    #: faster than the backbone weights is what makes it *workload-adaptive*
    #: within the ten-step adaptation budget.
    mask_lr_multiplier: float = 10.0

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.mask_lr_multiplier <= 0:
            raise ValueError("mask_lr_multiplier must be positive")


#: The adaptation hyper-parameters quoted in Section VI-A of the paper.
PAPER_ADAPTATION_CONFIG = AdaptationConfig(steps=10, lr=1e-5)


@dataclass
class AdaptationResult:
    """The adapted predictor plus its adaptation trajectory."""

    predictor: TransformerPredictor
    support_losses: list[float]
    used_mask: bool


def adapt_predictor(
    meta_trained: TransformerPredictor,
    support_x: np.ndarray,
    support_y: np.ndarray,
    *,
    mask: Optional[ArchitecturalMask] = None,
    config: Optional[AdaptationConfig] = None,
) -> AdaptationResult:
    """Run Algorithm 2 and return the adapted predictor.

    The meta-trained model is never modified: adaptation operates on a clone
    so the same initialisation can be reused for many target workloads (or
    many support sizes, as in Table III).  A batch-of-one wrapper over
    :func:`adapt_predictor_batch` (the stacked functional path).
    """
    return adapt_predictor_batch(
        meta_trained, [(support_x, support_y)], mask=mask, config=config
    )[0]


def adapt_predictor_batch(
    meta_trained: TransformerPredictor,
    supports: Sequence[tuple[np.ndarray, np.ndarray]],
    *,
    mask: Optional[ArchitecturalMask] = None,
    config: Optional[AdaptationConfig] = None,
) -> list[AdaptationResult]:
    """Adapt the meta-trained predictor to many target tasks in one graph.

    *supports* is a sequence of ``(support_x, support_y)`` pairs — one per
    target workload (or per support-size sweep point).  The meta-trained
    parameters are stacked along a leading task axis and every target's
    fine-tuning runs in the same stacked-tensor graph, exactly like the
    batched MAML inner loop, so every support set must have the same shape
    (``ValueError`` otherwise).  Returns one :class:`AdaptationResult` per
    target, in input order.
    """
    config = config if config is not None else AdaptationConfig()
    dtype = meta_trained.dtype  # fine-tune in the meta-trained model's precision
    supports = [
        (
            np.asarray(sx, dtype=dtype),
            np.asarray(sy, dtype=dtype),
        )
        for sx, sy in supports
    ]
    if not supports:
        raise ValueError("adapt_predictor_batch needs at least one support set")
    shapes = {(sx.shape, sy.shape) for sx, sy in supports}
    if len(shapes) > 1:
        raise ValueError(
            f"adapt_predictor_batch needs support sets of one shape, got "
            f"{sorted(shapes)}"
        )

    template: TransformerPredictor = meta_trained.clone()
    used_mask = mask is not None
    if used_mask:
        template.install_mask(mask.bias)

    n_tasks = len(supports)
    params = template.stack_parameters(n_tasks)
    lr_scales = {
        name: config.mask_lr_multiplier
        for name in params
        if name.endswith(".mask") or name == "mask"
    }
    optimizer = StackedSGD(config.lr, lr_scales=lr_scales)
    scheduler = CosineAnnealingLR(optimizer, config.steps)

    x = Tensor(np.stack([sx for sx, _ in supports]))
    y = np.stack([sy for _, sy in supports])
    step_losses: list[np.ndarray] = []
    for _ in range(config.steps):
        predictions = template.functional_call(params, x)
        diff = predictions - Tensor(y)
        per_task = (diff * diff).mean(axis=-1)
        per_task.sum().backward()
        params = optimizer.step(params)
        scheduler.step()
        step_losses.append(per_task.data.copy())

    results: list[AdaptationResult] = []
    for index in range(n_tasks):
        predictor: TransformerPredictor = template.clone()
        predictor.load_state_dict(template.unstack_state(params, index))
        results.append(
            AdaptationResult(
                predictor=predictor,
                support_losses=[float(losses[index]) for losses in step_losses],
                used_mask=used_mask,
            )
        )
    return results

