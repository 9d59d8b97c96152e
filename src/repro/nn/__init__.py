"""Minimal numpy-based neural-network framework (autograd, layers, optim)."""

from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.gradcheck import (
    check_module_gradients,
    check_tensor_gradient,
    numerical_gradient,
)
from repro.nn.layers import (
    MLP,
    LayerNorm,
    Linear,
    ParameterEmbedding,
    xavier_uniform,
)
from repro.nn.losses import mse_loss
from repro.nn.module import Module
from repro.nn.optim import (
    SGD,
    Adam,
    CosineAnnealingLR,
    Optimizer,
    StackedSGD,
    clip_grad_norm,
    stacked_sgd_step,
)
from repro.nn.parallel import (
    num_threads,
    set_num_threads,
    threads,
)
from repro.nn.precision import (
    SUPPORTED_DTYPES,
    default_dtype,
    precision,
    resolve_dtype,
    set_default_dtype,
)
from repro.nn.serialization import load_state, save_model
from repro.nn.tensor import Tensor
from repro.nn.transformer import TransformerEncoderLayer, TransformerPredictor

__all__ = [
    "precision",
    "default_dtype",
    "set_default_dtype",
    "resolve_dtype",
    "SUPPORTED_DTYPES",
    "threads",
    "num_threads",
    "set_num_threads",
    "Tensor",
    "Module",
    "Linear",
    "LayerNorm",
    "MLP",
    "ParameterEmbedding",
    "xavier_uniform",
    "MultiHeadSelfAttention",
    "TransformerEncoderLayer",
    "TransformerPredictor",
    "mse_loss",
    "Optimizer",
    "SGD",
    "Adam",
    "StackedSGD",
    "stacked_sgd_step",
    "CosineAnnealingLR",
    "clip_grad_norm",
    "save_model",
    "load_state",
    "numerical_gradient",
    "check_tensor_gradient",
    "check_module_gradients",
]
