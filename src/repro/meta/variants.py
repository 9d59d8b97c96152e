"""Meta-learning variants used as ablations of the MAML pre-training stage.

The paper commits to MAML (Algorithm 1); these variants answer the natural
follow-up questions an adopter would ask, and back the
``benchmarks/test_ablation_meta_variants.py`` study:

* :class:`ANILTrainer` — *Almost No Inner Loop*: the inner loop adapts only
  the prediction head while the transformer body is updated exclusively by
  the outer loop.  Tests whether rapid adaptation needs to touch the
  attention layers at all.
* :class:`MetaSGDTrainer` — Meta-SGD: a per-parameter inner-loop learning
  rate is meta-learned alongside the initialisation, using the standard
  first-order approximation of the learning-rate gradient
  (``d L_query / d alpha ≈ -g_query ⊙ g_support``).

Both reuse the episodic machinery of :class:`~repro.meta.maml.MAMLTrainer`
(task sampling, meta-validation, best-epoch restoration), so they drop into
:class:`~repro.core.metadse.MetaDSE`-style experiments unchanged.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.meta.maml import MAMLConfig, MAMLTrainer, _per_task_mse, _stack_episodes
from repro.nn.losses import mse_loss
from repro.nn.module import Module
from repro.nn.optim import SGD, clip_grad_norm
from repro.nn.tensor import Tensor

#: Parameter-name prefix that identifies the prediction head of the
#: :class:`~repro.nn.transformer.TransformerPredictor`.
DEFAULT_HEAD_PREFIX = "head."


class ANILTrainer(MAMLTrainer):
    """MAML with the inner loop restricted to the prediction head (ANIL).

    Rides the task-batched engine unchanged: the head parameters are stacked
    per task while the transformer body stays bound *shared* across the task
    axis, so one graph adapts every head of the meta-batch and the query
    backward still reaches (and meta-updates) the shared body.
    """

    def __init__(
        self,
        model: Module,
        config: Optional[MAMLConfig] = None,
        *,
        head_prefix: str = DEFAULT_HEAD_PREFIX,
    ) -> None:
        super().__init__(model, config)
        self.head_prefix = head_prefix
        if not any(name.startswith(head_prefix) for name, _ in model.named_parameters()):
            raise ValueError(
                f"model has no parameters with prefix {head_prefix!r}; "
                "ANIL needs an identifiable head"
            )

    def _inner_parameter_names(self) -> Optional[set[str]]:
        """Only the prediction head adapts in the inner loop."""
        return {
            name
            for name, _ in self.model.named_parameters()
            if name.startswith(self.head_prefix)
        }

    def adapt_scalar(
        self,
        support_x: np.ndarray,
        support_y: np.ndarray,
        *,
        model: Optional[Module] = None,
        steps: Optional[int] = None,
        lr: Optional[float] = None,
    ) -> Module:
        """Reference inner loop over the head parameters only."""
        source = model if model is not None else self.model
        steps = steps if steps is not None else self.config.inner_steps
        lr = lr if lr is not None else self.config.inner_lr
        adapted = source.clone()
        head_parameters = [
            parameter
            for name, parameter in adapted.named_parameters()
            if name.startswith(self.head_prefix)
        ]
        optimizer = SGD(head_parameters, lr)
        x = Tensor(np.asarray(support_x, dtype=source.dtype))
        y = np.asarray(support_y, dtype=source.dtype)
        for _ in range(steps):
            optimizer.zero_grad()
            loss = mse_loss(adapted(x), y)
            loss.backward()
            optimizer.step()
        return adapted


class MetaSGDTrainer(MAMLTrainer):
    """MAML with meta-learned per-parameter inner learning rates (Meta-SGD).

    Parameters
    ----------
    model:
        The surrogate predictor to meta-train.
    config:
        Shared MAML hyper-parameters.  ``config.inner_lr`` seeds every
        per-parameter learning rate.
    alpha_lr:
        Step size of the learning-rate meta-update.
    alpha_bounds:
        Hard clamp on every per-parameter learning rate, keeping the inner
        loop stable even when the first-order alpha gradient is noisy.
    """

    def __init__(
        self,
        model: Module,
        config: Optional[MAMLConfig] = None,
        *,
        alpha_lr: float = 1e-3,
        alpha_bounds: tuple[float, float] = (1e-6, 1.0),
    ) -> None:
        super().__init__(model, config)
        if alpha_lr <= 0:
            raise ValueError("alpha_lr must be > 0")
        low, high = alpha_bounds
        if not 0 < low < high:
            raise ValueError("alpha_bounds must satisfy 0 < low < high")
        self.alpha_lr = alpha_lr
        self.alpha_bounds = alpha_bounds
        self._capture_support_grads = True  # the alpha meta-update needs them
        self.alphas: dict[str, np.ndarray] = {
            name: np.full_like(parameter.data, self.config.inner_lr)
            for name, parameter in model.named_parameters()
        }

    # -- inner loop with per-parameter rates -------------------------------------
    def _inner_update(self, params: dict, lr: Optional[float]) -> dict:
        """Stacked inner update where every parameter uses its learned rate.

        The per-parameter rates ``alpha`` broadcast over the leading task
        axis; *lr*, when it differs from the configured inner rate, scales
        every rate uniformly (used by downstream adaptation sweeps — in
        particular ``lr=0`` freezes the inner loop entirely).
        """
        scale = 1.0 if lr is None else lr / max(self.config.inner_lr, 1e-12)
        updated: dict = {}
        for name, parameter in params.items():
            if not parameter.requires_grad or parameter.grad is None:
                updated[name] = parameter
                continue
            updated[name] = Tensor(
                parameter.data - scale * self.alphas[name] * parameter.grad,
                requires_grad=True,
                name=name,
            )
        return updated

    def adapt_scalar(
        self,
        support_x: np.ndarray,
        support_y: np.ndarray,
        *,
        model: Optional[Module] = None,
        steps: Optional[int] = None,
        lr: Optional[float] = None,
    ) -> Module:
        """Reference inner loop where every parameter uses its learned rate."""
        source = model if model is not None else self.model
        steps = steps if steps is not None else self.config.inner_steps
        scale = 1.0 if lr is None else lr / max(self.config.inner_lr, 1e-12)
        adapted = source.clone()
        x = Tensor(np.asarray(support_x, dtype=source.dtype))
        y = np.asarray(support_y, dtype=source.dtype)
        support_grads: dict[str, np.ndarray] = {}
        for _ in range(steps):
            adapted.zero_grad()
            loss = mse_loss(adapted(x), y)
            loss.backward()
            for name, parameter in adapted.named_parameters():
                if parameter.grad is None:
                    continue
                support_grads[name] = parameter.grad.copy()
                parameter.data = parameter.data - scale * self.alphas[name] * parameter.grad
        self._last_support_grads = support_grads
        return adapted

    # -- outer loop: update theta and alpha ----------------------------------------
    def meta_step(self, tasks: Sequence) -> float:
        """One outer-loop update of both the initialisation and the rates.

        Task-batched like :meth:`MAMLTrainer.meta_step`: the stacked query
        backward yields every task's query gradient at once, and the
        first-order alpha gradient ``-g_query ⊙ g_support`` is formed from
        the stacked gradient banks before summing over the task axis.
        Ragged batches raise ``ValueError``.
        """
        if not tasks:
            raise ValueError("meta_step needs at least one task")
        support_x, support_y, query_x, query_y = _stack_episodes(
            tasks, dtype=self.model.dtype
        )
        n_tasks = len(tasks)

        adapted = self.adapt_batch(support_x, support_y)
        support_grads = self._last_support_grads
        predictions = self.model.functional_call(adapted, Tensor(query_x))
        per_task_loss = _per_task_mse(predictions, query_y)
        total_loss = float(per_task_loss.data.sum())
        per_task_loss.sum().backward()

        meta_grads: dict[str, np.ndarray] = {}
        alpha_grads = {name: np.zeros_like(value) for name, value in self.alphas.items()}
        for name, parameter in self.model.named_parameters():
            grad = adapted[name].grad
            if grad is None:
                meta_grads[name] = np.zeros_like(parameter.data)
                continue
            meta_grads[name] = grad.sum(axis=0)
            if name in support_grads:
                # First-order Meta-SGD: d L_q / d alpha = -g_query * g_support.
                alpha_grads[name] = -(grad * support_grads[name]).sum(axis=0)

        scale = 1.0 / n_tasks
        self._apply_meta_grads(meta_grads, scale=scale)
        low, high = self.alpha_bounds
        for name in self.alphas:
            self.alphas[name] = np.clip(
                self.alphas[name] - self.alpha_lr * alpha_grads[name] * scale, low, high
            )
        return total_loss / n_tasks

    def meta_step_scalar(self, tasks: Sequence) -> float:
        """Reference outer loop of the rate meta-update, one task at a time."""
        if not tasks:
            raise ValueError("meta_step needs at least one task")
        meta_grads = {
            name: np.zeros_like(parameter.data)
            for name, parameter in self.model.named_parameters()
        }
        alpha_grads = {name: np.zeros_like(value) for name, value in self.alphas.items()}
        total_loss = 0.0

        for task in tasks:
            adapted = self.adapt_scalar(task.support_x, task.support_y)
            support_grads = self._last_support_grads
            adapted.zero_grad()
            query_loss = mse_loss(adapted(Tensor(task.query_x)), task.query_y)
            query_loss.backward()
            total_loss += query_loss.item()
            for name, parameter in adapted.named_parameters():
                if parameter.grad is None:
                    continue
                meta_grads[name] += parameter.grad
                if name in support_grads:
                    # First-order Meta-SGD: d L_q / d alpha = -g_query * g_support.
                    alpha_grads[name] += -parameter.grad * support_grads[name]

        scale = 1.0 / len(tasks)
        self._apply_meta_grads(meta_grads, scale=scale)
        low, high = self.alpha_bounds
        for name in self.alphas:
            self.alphas[name] = np.clip(
                self.alphas[name] - self.alpha_lr * alpha_grads[name] * scale, low, high
            )
        return total_loss / len(tasks)


#: Trainer registry used by the ablation benchmark and the CLI.
META_TRAINER_VARIANTS = ("fomaml", "reptile", "anil", "metasgd")


def make_meta_trainer(
    variant: str, model: Module, config: Optional[MAMLConfig] = None
) -> MAMLTrainer:
    """Build the requested meta-training variant.

    ``"fomaml"`` and ``"reptile"`` map onto :class:`~repro.meta.maml.MAMLTrainer`
    with the corresponding meta-gradient flavour; ``"anil"`` and ``"metasgd"``
    return the specialised trainers from this module.
    """
    from dataclasses import replace

    config = config if config is not None else MAMLConfig()
    if variant in ("fomaml", "reptile"):
        return MAMLTrainer(model, replace(config, algorithm=variant))
    if variant == "anil":
        return ANILTrainer(model, replace(config, algorithm="fomaml"))
    if variant == "metasgd":
        return MetaSGDTrainer(model, replace(config, algorithm="fomaml"))
    raise ValueError(
        f"unknown meta-trainer variant {variant!r}; choose from {META_TRAINER_VARIANTS}"
    )
