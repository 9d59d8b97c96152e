"""Optimisers and learning-rate schedules.

The paper's training recipe needs three pieces, all provided here:

* plain SGD for the MAML inner loop (Algorithm 1 line 9),
* Adam for the meta-update of the outer loop,
* stacked SGD with cosine annealing for the ten-step downstream
  adaptation (Section VI-A: "a learning rate of 1e-5 and cosine
  annealing").

Two optimiser styles coexist:

* the **stateful** classes (:class:`SGD`, :class:`Adam`) mutate registered
  module parameters in place — the classic loop;
* the **functional** :func:`stacked_sgd_step` / :class:`StackedSGD` consume a
  ``{name: Tensor}`` mapping of (task-)stacked parameters (as produced by
  :meth:`Module.stack_parameters`), read the accumulated ``.grad`` of each,
  and return a *new* mapping of detached gradient-requiring leaves.  This is
  the update style of the task-batched inner loop, where every step re-binds
  the parameters via ``functional_call``.

A minimal functional training step, spelling out the calling convention the
task-batched paths use everywhere::

    params = model.stack_parameters(n_tasks)          # {name: (n, *shape)}
    optimizer = StackedSGD(lr=0.01)
    for _ in range(steps):
        loss = per_task_loss(model.functional_call(params, x), y).sum()
        loss.backward()                               # grads land on params
        params = optimizer.step(params)               # fresh detached leaves
    model.load_state_dict(model.unstack_state(params, task_index))

**Precision.**  The SGD variants keep no state, and Adam's moments are
allocated with ``np.zeros_like`` on the parameter data; the engine
guarantees leaf gradients match the leaf dtype, so a float32 model trains
with float32 updates and state end to end — no configuration needed.
Construct an Adam optimiser *after* :meth:`Module.to_dtype`; converting a
model under an existing one leaves stale-width moments behind.  Scalar
hyper-parameters (``lr``, ``betas``, schedules) stay Python floats and never
widen an update.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np

from repro.nn.tensor import Tensor


class Optimizer:
    """Base class: holds parameters and implements ``zero_grad``."""

    def __init__(self, parameters: Sequence[Tensor], lr: float) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer needs at least one parameter")
        self.lr = lr
        self.initial_lr = lr

    def zero_grad(self) -> None:
        """Clear gradients of all managed parameters."""
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Plain stochastic gradient descent: ``data - lr * grad``."""

    def step(self) -> None:
        """Apply one SGD update using the accumulated gradients."""
        for parameter in self.parameters:
            if parameter.grad is None:
                continue
            parameter.data = parameter.data - self.lr * parameter.grad


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba, 2015)."""

    def __init__(
        self,
        parameters: Sequence[Tensor],
        lr: float,
        *,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        super().__init__(parameters, lr)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.betas = betas
        self.eps = eps
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        """Apply one Adam update using the accumulated gradients."""
        self._step_count += 1
        beta1, beta2 = self.betas
        bias1 = 1.0 - beta1 ** self._step_count
        bias2 = 1.0 - beta2 ** self._step_count
        for parameter, m, v in zip(self.parameters, self._m, self._v):
            if parameter.grad is None:
                continue
            grad = parameter.grad
            m *= beta1
            m += (1.0 - beta1) * grad
            v *= beta2
            v += (1.0 - beta2) * grad ** 2
            m_hat = m / bias1
            v_hat = v / bias2
            parameter.data = parameter.data - self.lr * m_hat / (
                np.sqrt(v_hat) + self.eps
            )


def stacked_sgd_step(
    params: Mapping[str, Tensor],
    lr: float,
    *,
    lr_scales: Optional[Mapping[str, float]] = None,
) -> dict[str, Tensor]:
    """One functional SGD step over a mapping of stacked parameters.

    Every gradient-carrying tensor is replaced by a fresh leaf holding
    ``data - lr * scale * grad`` (matching :meth:`SGD.step` entry-wise, so
    the batched inner loop reproduces the scalar reference exactly); tensors
    without a gradient — frozen shared parameters, or parameters the loss
    does not reach — pass through unchanged.
    """
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    updated: dict[str, Tensor] = {}
    for name, parameter in params.items():
        if not parameter.requires_grad or parameter.grad is None:
            updated[name] = parameter
            continue
        scale = 1.0 if lr_scales is None else lr_scales.get(name, 1.0)
        updated[name] = Tensor(
            parameter.data - lr * scale * parameter.grad, requires_grad=True, name=name
        )
    return updated


class StackedSGD:
    """Functional SGD over stacked parameter dicts.

    The object only holds the hyper-parameters; each :meth:`step` call maps
    an input parameter dict to the updated one.  The mutable ``lr`` /
    ``initial_lr`` pair makes it schedulable with :class:`CosineAnnealingLR`,
    which the batched adaptation stage uses.
    """

    def __init__(
        self,
        lr: float,
        *,
        lr_scales: Optional[Mapping[str, float]] = None,
    ) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.initial_lr = lr
        self.lr_scales = dict(lr_scales) if lr_scales is not None else None

    def step(self, params: Mapping[str, Tensor]) -> dict[str, Tensor]:
        """Return the updated parameter mapping (inputs are not mutated)."""
        return stacked_sgd_step(params, self.lr, lr_scales=self.lr_scales)


class CosineAnnealingLR:
    """Cosine-annealing learning-rate schedule.

    The learning rate decays from the optimiser's initial value to *eta_min*
    over *total_steps* calls to :meth:`step`.
    """

    def __init__(self, optimizer: Optimizer, total_steps: int, *, eta_min: float = 0.0) -> None:
        if total_steps < 1:
            raise ValueError(f"total_steps must be >= 1, got {total_steps}")
        if eta_min < 0:
            raise ValueError(f"eta_min must be >= 0, got {eta_min}")
        self.optimizer = optimizer
        self.total_steps = total_steps
        self.eta_min = eta_min
        self.current_step = 0

    def step(self) -> float:
        """Advance the schedule and return the new learning rate."""
        self.current_step = min(self.current_step + 1, self.total_steps)
        progress = self.current_step / self.total_steps
        lr = self.eta_min + 0.5 * (self.optimizer.initial_lr - self.eta_min) * (
            1.0 + np.cos(np.pi * progress)
        )
        self.optimizer.lr = float(lr)
        return float(lr)


def clip_grad_norm(parameters: Sequence[Tensor], max_norm: float) -> float:
    """Clip the global gradient norm in place; returns the pre-clip norm."""
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    total = 0.0
    grads = [p.grad for p in parameters if p.grad is not None]
    for grad in grads:
        total += float(np.sum(grad ** 2))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for grad in grads:
            grad *= scale
    return norm
