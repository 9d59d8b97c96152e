"""Module base class and parameter management.

A :class:`Module` owns named parameters (and sub-modules) and provides the
bookkeeping MAML needs:

* ``named_parameters`` / ``parameters`` — ordered traversal;
* ``state_dict`` / ``load_state_dict`` — copy parameters in and out as plain
  numpy arrays (used to snapshot ``theta`` and to build the task copies
  ``theta_hat`` of Algorithm 1);
* ``zero_grad`` — clear gradient buffers;
* ``clone`` — structural deep copy with identical parameter values.

On top of the stateful interface sits the **functional execution** layer the
task-batched meta-training path is built on:

* ``functional_call`` — run ``forward`` with an *external* parameter mapping
  temporarily bound in place of the registered parameters (the numpy
  analogue of ``torch.func.functional_call``);
* ``stack_parameters`` — stack ``n_tasks`` copies of every parameter along a
  new leading task axis, producing the ``theta_hat`` bank a whole meta-batch
  adapts in one graph.

Layers dispatch on parameter rank: a parameter bound with one extra leading
axis selects the batched-parameter forward path (see ``repro.nn.layers``),
so one ``functional_call`` evaluates ``n_tasks`` different models at once.
"""

from __future__ import annotations

import copy
from typing import Collection, Iterator, Mapping, Optional

import numpy as np

from repro.nn.precision import default_dtype, resolve_dtype
from repro.nn.tensor import Tensor


def has_task_axis(value: np.ndarray, parameter: Tensor) -> bool:
    """True when *value* carries one extra leading (task) axis over *parameter*.

    The single source of the stacked-parameter rank convention: a stacked
    bank entry (or its gradient) has exactly one more dimension than the
    registered parameter it shadows.
    """
    return value.ndim == parameter.data.ndim + 1


class Module:
    """Base class for all neural-network building blocks."""

    def __init__(self) -> None:
        self._parameters: dict[str, Tensor] = {}
        self._modules: dict[str, "Module"] = {}

    # -- registration -------------------------------------------------------
    def register_parameter(self, name: str, tensor: Tensor) -> Tensor:
        """Register *tensor* as a trainable parameter called *name*."""
        if not isinstance(tensor, Tensor):
            raise TypeError(f"parameter {name!r} must be a Tensor")
        tensor.requires_grad = True
        tensor.name = name
        self._parameters[name] = tensor
        return tensor

    def register_module(self, name: str, module: "Module") -> "Module":
        """Register a sub-module called *name*."""
        if not isinstance(module, Module):
            raise TypeError(f"sub-module {name!r} must be a Module")
        self._modules[name] = module
        return module

    def __setattr__(self, name: str, value) -> None:
        # Convenience: assigning a Module/Tensor attribute registers it.
        if isinstance(value, Module) and name not in ("_modules",):
            object.__setattr__(self, name, value)
            if "_modules" in self.__dict__:
                self._modules[name] = value
            return
        object.__setattr__(self, name, value)

    # -- traversal -------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        """Yield ``(qualified_name, parameter)`` pairs in a stable order."""
        for name, parameter in self._parameters.items():
            yield (f"{prefix}{name}", parameter)
        for module_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{module_name}.")

    def parameters(self) -> list[Tensor]:
        """All trainable parameters in traversal order."""
        return [p for _, p in self.named_parameters()]

    # -- gradient state --------------------------------------------------------
    def zero_grad(self) -> None:
        """Clear all parameter gradients."""
        for parameter in self.parameters():
            parameter.zero_grad()

    # -- precision -------------------------------------------------------------
    @property
    def dtype(self) -> np.dtype:
        """Dtype of the module's parameters.

        By the :meth:`to_dtype` contract all parameters share one dtype; the
        first parameter's dtype is reported.  A module without parameters
        reports the current policy dtype.
        """
        for _, parameter in self.named_parameters():
            return parameter.data.dtype
        return default_dtype()

    def to_dtype(self, dtype) -> "Module":
        """Convert every parameter (an installed mask included) to *dtype*.

        In place: parameter tensors keep their identity — their ``data``
        buffers are cast — so attribute aliases (``self.weight``) and
        optimizer parameter lists stay valid; gradients are cleared
        (stale-width gradients are worse than none).  Optimizer *state*
        (Adam moments) created before the conversion is not
        touched: build optimizers after converting.
        """
        target = resolve_dtype(dtype)
        for parameter in self.parameters():
            parameter.data = parameter.data.astype(target, copy=False)
            parameter.grad = None
        return self

    # -- state management ----------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy all parameters out as plain numpy arrays."""
        return {name: parameter.data.copy() for name, parameter in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Copy parameter values in from :meth:`state_dict` output."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise ValueError(
                f"state dict mismatch: missing {sorted(missing)}, unexpected {sorted(unexpected)}"
            )
        for name, parameter in own.items():
            value = np.asarray(state[name])
            if value.shape != parameter.data.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: {value.shape} vs {parameter.data.shape}"
                )
            # Explicit cast to the parameter's own dtype: a float64 checkpoint
            # loads into a float32 model (and vice versa) without silently
            # changing the model's precision.  ``astype`` always copies.
            parameter.data = value.astype(parameter.data.dtype)

    def clone(self) -> "Module":
        """Structural deep copy with identical parameter values, fresh grads."""
        duplicate = copy.deepcopy(self)
        duplicate.zero_grad()
        return duplicate

    # -- functional execution ---------------------------------------------------
    def _parameter_owners(self) -> dict[str, tuple["Module", str]]:
        """Map qualified parameter names to their ``(owning module, attr)``."""
        owners: dict[str, tuple[Module, str]] = {}
        for name, _ in self.named_parameters():
            module: Module = self
            parts = name.split(".")
            for part in parts[:-1]:
                module = module._modules[part]
            owners[name] = (module, parts[-1])
        return owners

    def functional_call(self, params: Mapping[str, Tensor], *args, **kwargs):
        """Run ``forward`` with *params* bound in place of the registered ones.

        *params* maps qualified parameter names (as produced by
        :meth:`named_parameters`) to replacement tensors or arrays; unnamed
        parameters keep their registered values.  A replacement may carry
        one extra leading task axis (see :meth:`stack_parameters`), which
        switches the layers onto their batched-parameter forward paths.
        Binding mutates the module for the call's duration, so one module
        must not run concurrent functional calls; its own parameters are
        restored on exit, even when ``forward`` raises.
        """
        owners = self._parameter_owners()
        unknown = set(params) - set(owners)
        if unknown:
            raise ValueError(f"unknown parameters in functional_call: {sorted(unknown)}")
        bound: list[tuple[Module, str, Tensor, bool]] = []
        try:
            for name, replacement in params.items():
                if not isinstance(replacement, Tensor):
                    replacement = Tensor(replacement)
                module, attr = owners[name]
                original = module._parameters[attr]
                is_attribute = module.__dict__.get(attr) is original
                bound.append((module, attr, original, is_attribute))
                module._parameters[attr] = replacement
                if is_attribute:
                    object.__setattr__(module, attr, replacement)
            return self.forward(*args, **kwargs)
        finally:
            for module, attr, original, is_attribute in reversed(bound):
                module._parameters[attr] = original
                if is_attribute:
                    object.__setattr__(module, attr, original)

    def stack_parameters(
        self, n_tasks: int, *, names: Optional[Collection[str]] = None
    ) -> dict[str, Tensor]:
        """Stack ``n_tasks`` copies of parameters along a leading task axis.

        Returns a mapping from qualified name to an ``(n_tasks, *shape)``
        tensor, covering every parameter by default or only *names* when
        given (how the ANIL inner loop stacks just the head).  Each stack
        is a fresh gradient-requiring leaf, detached from the underlying
        parameters, which is what first-order MAML needs.
        """
        if n_tasks < 1:
            raise ValueError(f"n_tasks must be >= 1, got {n_tasks}")
        stacked: dict[str, Tensor] = {}
        for name, parameter in self.named_parameters():
            if names is not None and name not in names:
                continue
            data = np.broadcast_to(
                parameter.data, (n_tasks,) + parameter.data.shape
            ).copy()
            stacked[name] = Tensor(data, requires_grad=True, name=name)
        return stacked

    def unstack_state(
        self, params: Mapping[str, Tensor], index: int
    ) -> dict[str, np.ndarray]:
        """Slice task *index* out of a (partially) stacked parameter mapping.

        The inverse of :meth:`stack_parameters` for one task: entries that
        carry a task axis are sliced, entries bound shared across the task
        axis pass through — the result feeds :meth:`load_state_dict` to
        materialise one task's adapted model.
        """
        state: dict[str, np.ndarray] = {}
        for name, parameter in self.named_parameters():
            value = params[name]
            data = value.data if isinstance(value, Tensor) else np.asarray(value)
            state[name] = data[index] if has_task_axis(data, parameter) else data
        return state

    # -- call protocol ---------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
