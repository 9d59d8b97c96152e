"""Numerical gradient checking for the autograd engine.

The whole reproduction rests on the correctness of the from-scratch
reverse-mode autograd in :mod:`repro.nn.tensor`; these helpers compare its
analytical gradients against central finite differences so every layer can be
verified directly in the test suite (and by users adding new layers).

Gradcheck is **float64-only** by contract: central differences with
``epsilon = 1e-6`` live entirely below float32's resolution (~1e-7 relative),
so a float32 gradcheck would measure rounding noise, not gradients.  The
helpers raise a clear error when called under a float32 policy or on a
float32 model — verify gradients in float64, then convert the model with
:meth:`Module.to_dtype` (the float32 kernels are the same code, byte-width
aside).  ``docs/numerics.md`` records this as one of the float64-pinned
paths.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.nn.module import Module
from repro.nn.precision import default_dtype
from repro.nn.tensor import Tensor


def _require_float64_policy(caller: str) -> None:
    if default_dtype() != np.float64:
        raise ValueError(
            f"{caller} is float64-only: the active precision policy is "
            f"{default_dtype().name!r}, and finite differences at epsilon~1e-6 "
            "are meaningless below float64 resolution. Run gradcheck outside "
            "the precision('float32') scope."
        )


def numerical_gradient(
    function: Callable[[np.ndarray], float],
    point: np.ndarray,
    *,
    epsilon: float = 1e-6,
) -> np.ndarray:
    """Central-difference gradient of a scalar function at *point*."""
    point = np.asarray(point, dtype=np.float64)
    gradient = np.zeros_like(point)
    flat = point.reshape(-1)
    flat_gradient = gradient.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        upper = function(point)
        flat[index] = original - epsilon
        lower = function(point)
        flat[index] = original
        flat_gradient[index] = (upper - lower) / (2.0 * epsilon)
    return gradient


def check_tensor_gradient(
    operation: Callable[[Tensor], Tensor],
    inputs: np.ndarray,
    *,
    epsilon: float = 1e-6,
    rtol: float = 1e-4,
    atol: float = 1e-6,
) -> tuple[np.ndarray, np.ndarray]:
    """Compare autograd and numerical input-gradients of ``sum(operation(x))``.

    Returns ``(analytical, numerical)`` so tests can report both; raises
    ``AssertionError`` when they disagree beyond the tolerances.
    """
    _require_float64_policy("check_tensor_gradient")
    inputs = np.asarray(inputs, dtype=np.float64)

    tensor_input = Tensor(inputs.copy(), requires_grad=True)
    output = operation(tensor_input).sum()
    output.backward()
    analytical = tensor_input.grad.copy()

    def scalar(values: np.ndarray) -> float:
        return float(operation(Tensor(values.copy())).sum().data)

    numerical = numerical_gradient(scalar, inputs, epsilon=epsilon)
    if not np.allclose(analytical, numerical, rtol=rtol, atol=atol):
        worst = float(np.max(np.abs(analytical - numerical)))
        raise AssertionError(
            f"autograd/numerical gradient mismatch (max abs diff {worst:.3e})"
        )
    return analytical, numerical


def check_module_gradients(
    module: Module,
    inputs: np.ndarray,
    *,
    loss: Callable[[Tensor], Tensor] = lambda out: (out * out).sum(),
    epsilon: float = 1e-6,
    rtol: float = 1e-3,
    atol: float = 1e-6,
    max_entries_per_parameter: int = 8,
) -> dict[str, float]:
    """Verify a module's parameter gradients against finite differences.

    For every parameter, up to ``max_entries_per_parameter`` randomly-strided
    entries are perturbed (checking every entry of a transformer would be
    prohibitively slow).  Returns the max absolute error per parameter and
    raises ``AssertionError`` on the first mismatch beyond the tolerances.
    """
    _require_float64_policy("check_module_gradients")
    for name, parameter in module.named_parameters():
        if parameter.data.dtype != np.float64:
            raise ValueError(
                f"check_module_gradients is float64-only: parameter {name!r} "
                f"has dtype {parameter.data.dtype.name!r}. Gradcheck the "
                "float64 model, then convert with Module.to_dtype('float32')."
            )
    inputs = np.asarray(inputs, dtype=np.float64)
    module.zero_grad()
    objective = loss(module(Tensor(inputs)))
    objective.backward()

    def evaluate() -> float:
        return float(loss(module(Tensor(inputs))).data)

    errors: dict[str, float] = {}
    for name, parameter in module.named_parameters():
        if parameter.grad is None:
            raise AssertionError(f"parameter {name!r} received no gradient")
        flat = parameter.data.reshape(-1)
        flat_grad = parameter.grad.reshape(-1)
        stride = max(1, flat.size // max_entries_per_parameter)
        worst = 0.0
        for index in range(0, flat.size, stride):
            original = flat[index]
            flat[index] = original + epsilon
            upper = evaluate()
            flat[index] = original - epsilon
            lower = evaluate()
            flat[index] = original
            numerical = (upper - lower) / (2.0 * epsilon)
            analytical = flat_grad[index]
            worst = max(worst, abs(analytical - numerical))
            if not np.isclose(analytical, numerical, rtol=rtol, atol=atol):
                raise AssertionError(
                    f"gradient mismatch in {name!r}[{index}]: "
                    f"autograd {analytical:.6e} vs numerical {numerical:.6e}"
                )
        errors[name] = worst
    return errors
