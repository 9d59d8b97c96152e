"""MAML-based pre-training (Algorithm 1 of the paper).

The trainer optimises a surrogate model's *initialisation* so that a few
gradient steps on a small support set produce good predictions on the query
set of the same task.  Structure of one meta-iteration:

* sample a batch of tasks (episodes) from the source workloads;
* **inner loop** — for each task, copy the current parameters ``theta`` into
  ``theta_hat`` and take ``inner_steps`` SGD steps on the support loss
  (Algorithm 1 lines 4-12);
* **outer loop** — evaluate each adapted copy on its query set, average the
  resulting gradients and apply them to ``theta`` with Adam
  (Algorithm 1 lines 13-14).

Two meta-gradient flavours are implemented:

* ``"fomaml"`` (default) — first-order MAML: the query-set gradient with
  respect to the adapted parameters is applied directly to the initial
  parameters, dropping the second-order term.  This is the standard
  practical approximation of the full MAML update and is what makes the
  numpy implementation tractable.
* ``"reptile"`` — the Reptile update ``theta <- theta + eps * (theta_hat - theta)``,
  provided as an ablation of the meta-gradient choice.

Both flavours run **task-batched**: the meta-batch's episodes are stacked on
a leading task axis, ``theta`` is stacked into a ``theta_hat`` bank via
:meth:`Module.stack_parameters`, and the whole inner loop plus the query
pass execute as one stacked-tensor graph through
:meth:`Module.functional_call` — a vmap-style evaluation where task ``t``'s
samples only ever meet parameter slice ``t``.  The original one-task-at-a-
time loop survives as :meth:`MAMLTrainer.meta_step_scalar` (with
:meth:`MAMLTrainer.adapt_scalar` as its inner loop): it is the executable
specification the equivalence tests compare the batched path against,
mirroring the simulation substrate's ``run_scalar`` pattern.  The batched
path needs every episode of a batch to have one shape; a ragged batch
raises ``ValueError``.

After every epoch a meta-validation pass measures post-adaptation query loss
on the validation workloads; the best-performing parameters are restored at
the end (the paper's "identify the optimal parameters for downstream tasks").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.datasets.tasks import Task, TaskSampler
from repro.nn.losses import mse_loss
from repro.nn.module import Module, has_task_axis
from repro.nn.optim import SGD, Adam, clip_grad_norm, stacked_sgd_step
from repro.nn.tensor import Tensor
from repro.utils.rng import SeedLike, as_rng

#: Meta-gradient flavours supported by :class:`MAMLTrainer`.
ALGORITHMS = ("fomaml", "reptile")


@dataclass
class MAMLConfig:
    """Hyper-parameters of the MAML pre-training stage.

    The defaults are tuned for the synthetic substrate and single-core CPU
    training; :data:`PAPER_MAML_CONFIG` records the values quoted in
    Section VI-A of the paper.
    """

    inner_lr: float = 0.02
    outer_lr: float = 2e-3
    inner_steps: int = 5
    meta_epochs: int = 15
    tasks_per_workload: int = 200
    meta_batch_size: int = 4
    support_size: int = 5
    query_size: int = 45
    grad_clip: float = 10.0
    algorithm: str = "fomaml"
    #: Reptile interpolation rate (only used when ``algorithm == "reptile"``).
    reptile_epsilon: float = 0.5
    seed: SeedLike = 0

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; choose from {ALGORITHMS}"
            )
        if self.inner_lr <= 0 or self.outer_lr <= 0:
            raise ValueError("learning rates must be positive")
        if self.inner_steps < 1:
            raise ValueError("inner_steps must be >= 1")
        if self.meta_epochs < 1:
            raise ValueError("meta_epochs must be >= 1")
        if self.meta_batch_size < 1:
            raise ValueError("meta_batch_size must be >= 1")


#: The exact hyper-parameters reported in Section VI-A of the paper.
PAPER_MAML_CONFIG = MAMLConfig(
    inner_lr=1e-5,
    outer_lr=1e-4,
    inner_steps=5,
    meta_epochs=15,
    tasks_per_workload=200,
    support_size=5,
    query_size=45,
)


@dataclass
class MetaTrainingHistory:
    """Per-epoch record of the meta-training run."""

    train_losses: list[float] = field(default_factory=list)
    validation_losses: list[float] = field(default_factory=list)
    best_epoch: int = -1
    best_validation_loss: float = float("inf")
    total_tasks: int = 0

    @property
    def num_epochs(self) -> int:
        """Number of completed epochs."""
        return len(self.train_losses)


def _per_task_mse(predictions: Tensor, targets: np.ndarray) -> Tensor:
    """Per-task MSE over stacked episodes: ``(n_tasks, samples) -> (n_tasks,)``.

    Each task's entry equals the scalar :func:`mse_loss` of its slice, so the
    sum over tasks backpropagates exactly the per-task gradients.  Targets
    are folded to the predictions' dtype so a float32 forward pass keeps a
    float32 loss graph.
    """
    diff = predictions - Tensor(targets, dtype=predictions.data.dtype)
    return (diff * diff).mean(axis=-1)


def _stack_episodes(
    tasks: Sequence[Task],
    dtype: np.dtype = np.float64,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stack a task batch's arrays on a leading task axis, in *dtype*.

    Returns ``(support_x, support_y, query_x, query_y)`` with shapes
    ``(n_tasks, S, P) / (n_tasks, S) / (n_tasks, Q, P) / (n_tasks, Q)``;
    raises ``ValueError`` when the batch is ragged (episode sizes differ).
    The trainer passes its model's dtype so a float32 surrogate trains on
    float32 episode arrays.
    """
    support_shapes = {t.support_x.shape for t in tasks}
    query_shapes = {t.query_x.shape for t in tasks}
    if len(support_shapes) > 1 or len(query_shapes) > 1:
        raise ValueError(
            f"a task batch needs episodes of one shape, got supports "
            f"{sorted(support_shapes)} and queries {sorted(query_shapes)}"
        )
    return (
        np.stack([np.asarray(t.support_x, dtype=dtype) for t in tasks]),
        np.stack([np.asarray(t.support_y, dtype=dtype) for t in tasks]),
        np.stack([np.asarray(t.query_x, dtype=dtype) for t in tasks]),
        np.stack([np.asarray(t.query_y, dtype=dtype) for t in tasks]),
    )


class MAMLTrainer:
    """Meta-trains a surrogate model per Algorithm 1 (task-batched)."""

    def __init__(self, model: Module, config: Optional[MAMLConfig] = None) -> None:
        self.model = model
        self.config = config if config is not None else MAMLConfig()
        self.rng = as_rng(self.config.seed)
        self.outer_optimizer = Adam(model.parameters(), self.config.outer_lr)
        self.history = MetaTrainingHistory()
        #: Stacked support-set gradients of the last inner step, keyed by
        #: parameter name (``(n_tasks, *shape)`` arrays).  Only captured when
        #: :attr:`_capture_support_grads` is set — Meta-SGD consumes them for
        #: its learning-rate meta-update; the base trainer skips the capture
        #: to keep the inner loop free of dead work.
        self._last_support_grads: dict[str, np.ndarray] = {}
        self._capture_support_grads = False

    # -- variant hooks ---------------------------------------------------------
    def _inner_parameter_names(self) -> Optional[set[str]]:
        """Names of the parameters the inner loop adapts; ``None`` = all.

        Parameters outside this set stay at ``theta`` during adaptation:
        they are bound *shared* (unstacked, frozen) across the task axis.
        ANIL restricts this set to the prediction head.
        """
        return None

    def _inner_update(self, params: dict[str, Tensor], lr: float) -> dict[str, Tensor]:
        """One inner-loop update over the stacked parameters.

        The default is the plain SGD step of Algorithm 1 line 9; Meta-SGD
        overrides it with per-parameter meta-learned rates.
        """
        return stacked_sgd_step(params, lr)

    # -- inner loop -----------------------------------------------------------
    def adapt_batch(
        self,
        support_x: np.ndarray,
        support_y: np.ndarray,
        *,
        model: Optional[Module] = None,
        steps: Optional[int] = None,
        lr: Optional[float] = None,
    ) -> dict[str, Tensor]:
        """Adapt a whole stack of tasks in one graph (Algorithm 1 lines 4-12).

        *support_x* is ``(n_tasks, S, P)`` and *support_y* ``(n_tasks, S)``.
        Returns the bank of adapted parameters ``theta_hat``: a mapping from
        qualified name to an ``(n_tasks, *shape)`` gradient-requiring leaf
        for inner-loop parameters, or a shared frozen tensor for parameters
        the inner loop leaves at ``theta``.  The source model is untouched.
        """
        source = model if model is not None else self.model
        steps = steps if steps is not None else self.config.inner_steps
        lr = lr if lr is not None else self.config.inner_lr
        support_x = np.asarray(support_x, dtype=source.dtype)
        support_y = np.asarray(support_y, dtype=source.dtype)
        if support_x.ndim != 3 or support_y.ndim != 2:
            raise ValueError(
                "adapt_batch expects stacked episodes: support_x (n_tasks, S, P) "
                f"and support_y (n_tasks, S), got {support_x.shape} / {support_y.shape}"
            )
        n_tasks = support_x.shape[0]
        params = source.stack_parameters(n_tasks, names=self._inner_parameter_names())
        for name, parameter in source.named_parameters():
            if name not in params:
                params[name] = Tensor(parameter.data)  # shared, frozen at theta

        x = Tensor(support_x)
        for _ in range(steps):
            predictions = source.functional_call(params, x)
            loss = _per_task_mse(predictions, support_y).sum()
            loss.backward()
            if self._capture_support_grads:
                # The grad arrays belong to leaves the update discards, so
                # referencing them (no copy) is safe.
                self._last_support_grads = {
                    name: tensor.grad
                    for name, tensor in params.items()
                    if tensor.grad is not None
                }
            params = self._inner_update(params, lr)
        return params

    def adapt(
        self,
        support_x: np.ndarray,
        support_y: np.ndarray,
        *,
        model: Optional[Module] = None,
        steps: Optional[int] = None,
        lr: Optional[float] = None,
    ) -> Module:
        """Clone the model and adapt it to one support set.

        A batch-of-one wrapper over :meth:`adapt_batch` (the single-task
        analogue of the substrate's ``run``/``run_batch`` pairing); returns
        the adapted copy, the original model is left untouched
        (Algorithm 1 line 5: ``theta_hat = theta``).
        """
        source = model if model is not None else self.model
        support_x = np.asarray(support_x, dtype=source.dtype)
        support_y = np.asarray(support_y, dtype=source.dtype)
        params = self.adapt_batch(
            support_x[None], support_y[None], model=model, steps=steps, lr=lr
        )
        adapted = source.clone()
        adapted.load_state_dict(source.unstack_state(params, 0))
        return adapted

    def adapt_scalar(
        self,
        support_x: np.ndarray,
        support_y: np.ndarray,
        *,
        model: Optional[Module] = None,
        steps: Optional[int] = None,
        lr: Optional[float] = None,
    ) -> Module:
        """Reference inner loop: clone the model and run per-task SGD.

        The executable specification :meth:`adapt_batch` is tested against
        (and the inner loop of :meth:`meta_step_scalar`).
        """
        source = model if model is not None else self.model
        steps = steps if steps is not None else self.config.inner_steps
        lr = lr if lr is not None else self.config.inner_lr
        adapted = source.clone()
        optimizer = SGD(adapted.parameters(), lr)
        x = Tensor(np.asarray(support_x, dtype=source.dtype))
        y = np.asarray(support_y, dtype=source.dtype)
        for _ in range(steps):
            optimizer.zero_grad()
            loss = mse_loss(adapted(x), y)
            loss.backward()
            optimizer.step()
        return adapted

    # -- outer loop -----------------------------------------------------------
    def meta_step(self, tasks: Sequence[Task]) -> float:
        """One outer-loop update over a batch of tasks; returns the meta-loss.

        The whole meta-batch runs as one stacked graph: inner loop via
        :meth:`adapt_batch`, then a single query pass whose per-task losses
        are summed so one backward produces every task's query gradient.
        Ragged batches (mixed episode sizes) raise ``ValueError``.
        """
        if not tasks:
            raise ValueError("meta_step needs at least one task")
        support_x, support_y, query_x, query_y = _stack_episodes(
            tasks, dtype=self.model.dtype
        )
        n_tasks = len(tasks)
        own = dict(self.model.named_parameters())

        adapted = self.adapt_batch(support_x, support_y)
        # Rebind shared (frozen) entries as gradient-requiring leaves so the
        # query gradient reaches them too; their ``.grad`` then accumulates
        # the sum over tasks directly.  Stacked entries are fresh leaves
        # already (the last inner update detached them).
        query_params = {
            name: tensor
            if tensor.requires_grad
            else Tensor(tensor.data, requires_grad=True, name=name)
            for name, tensor in adapted.items()
        }
        predictions = self.model.functional_call(query_params, Tensor(query_x))
        per_task_loss = _per_task_mse(predictions, query_y)
        total_loss = float(per_task_loss.data.sum())

        meta_grads: dict[str, np.ndarray] = {}
        if self.config.algorithm == "fomaml":
            per_task_loss.sum().backward()
            for name, tensor in query_params.items():
                grad = tensor.grad
                if grad is None:
                    meta_grads[name] = np.zeros_like(own[name].data)
                elif has_task_axis(tensor.data, own[name]):
                    meta_grads[name] = grad.sum(axis=0)
                else:
                    meta_grads[name] = grad
        else:  # reptile: theta moves toward the mean adapted parameters
            factor = self.config.reptile_epsilon / max(
                self.config.inner_lr * self.config.inner_steps, 1e-12
            )
            for name, tensor in adapted.items():
                if has_task_axis(tensor.data, own[name]):
                    meta_grads[name] = (
                        own[name].data[None] - tensor.data
                    ).sum(axis=0) * factor
                else:
                    meta_grads[name] = np.zeros_like(own[name].data)

        self._apply_meta_grads(meta_grads, scale=1.0 / n_tasks)
        return total_loss / n_tasks

    def meta_step_scalar(self, tasks: Sequence[Task]) -> float:
        """Reference outer loop: one task at a time, one graph per task.

        Kept as the executable specification of :meth:`meta_step` — the
        equivalence tests assert that the task-batched path reproduces these
        updates, and the meta-training throughput benchmark measures the
        batched speed-up against this loop.
        """
        if not tasks:
            raise ValueError("meta_step needs at least one task")
        meta_grads = {
            name: np.zeros_like(p.data) for name, p in self.model.named_parameters()
        }
        total_loss = 0.0

        for task in tasks:
            adapted = self.adapt_scalar(task.support_x, task.support_y)
            adapted.zero_grad()
            query_loss = mse_loss(adapted(Tensor(task.query_x)), task.query_y)
            query_loss.backward()
            total_loss += query_loss.item()

            if self.config.algorithm == "fomaml":
                for name, parameter in adapted.named_parameters():
                    if parameter.grad is not None:
                        meta_grads[name] += parameter.grad
            else:  # reptile
                original = dict(self.model.named_parameters())
                for name, parameter in adapted.named_parameters():
                    meta_grads[name] += (original[name].data - parameter.data) / max(
                        self.config.inner_lr * self.config.inner_steps, 1e-12
                    ) * self.config.reptile_epsilon

        self._apply_meta_grads(meta_grads, scale=1.0 / len(tasks))
        return total_loss / len(tasks)

    def _apply_meta_grads(self, meta_grads: dict[str, np.ndarray], *, scale: float) -> None:
        """Install averaged meta-gradients and take the Adam outer step."""
        self.outer_optimizer.zero_grad()
        for name, parameter in self.model.named_parameters():
            parameter.grad = meta_grads[name] * scale
        if self.config.grad_clip > 0:
            clip_grad_norm(self.model.parameters(), self.config.grad_clip)
        self.outer_optimizer.step()

    # -- validation ------------------------------------------------------------
    def meta_validate(
        self,
        sampler: TaskSampler,
        workloads: Sequence[str],
        *,
        tasks_per_workload: int = 4,
    ) -> float:
        """Average post-adaptation query loss on held-out workloads.

        The validation episodes are adapted and evaluated as one stacked
        batch (no gradients are needed, so the query pass binds detached
        parameters and builds no graph).
        """
        if not workloads:
            raise ValueError("meta_validate needs at least one workload")
        tasks = sampler.sample_batch(workloads, tasks_per_workload=tasks_per_workload)
        support_x, support_y, query_x, query_y = _stack_episodes(
            tasks, dtype=self.model.dtype
        )
        adapted = self.adapt_batch(support_x, support_y)
        frozen = {name: Tensor(tensor.data) for name, tensor in adapted.items()}
        predictions = self.model.functional_call(frozen, Tensor(query_x))
        return float(_per_task_mse(predictions, query_y).data.mean())

    # -- full training loop -------------------------------------------------------
    def meta_train(
        self,
        sampler: TaskSampler,
        train_workloads: Sequence[str],
        validation_workloads: Optional[Sequence[str]] = None,
    ) -> MetaTrainingHistory:
        """Run the full pre-training loop of Algorithm 1.

        Parameters
        ----------
        sampler:
            Episodic task sampler over the labelled dataset.  Its support and
            query sizes are used as-is (they may differ from the config when
            a sensitivity study overrides them).
        train_workloads, validation_workloads:
            Source and meta-validation workload names.
        """
        if not train_workloads:
            raise ValueError("meta_train needs at least one training workload")
        best_state = self.model.state_dict()
        for epoch in range(self.config.meta_epochs):
            epoch_losses = []
            for batch in sampler.iterate_epoch(
                train_workloads,
                tasks_per_workload=self.config.tasks_per_workload,
                batch_size=self.config.meta_batch_size,
            ):
                epoch_losses.append(self.meta_step(batch))
                self.history.total_tasks += len(batch)
            train_loss = float(np.mean(epoch_losses))
            self.history.train_losses.append(train_loss)

            if validation_workloads:
                validation_loss = self.meta_validate(sampler, validation_workloads)
                self.history.validation_losses.append(validation_loss)
                if validation_loss < self.history.best_validation_loss:
                    self.history.best_validation_loss = validation_loss
                    self.history.best_epoch = epoch
                    best_state = self.model.state_dict()

        if validation_workloads and self.history.best_epoch >= 0:
            self.model.load_state_dict(best_state)
        return self.history
