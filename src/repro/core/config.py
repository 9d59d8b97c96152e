"""Experiment-level configuration for the MetaDSE facade.

Two scales are provided:

* :func:`default_config` — sized so the whole benchmark suite runs on a
  single CPU core in minutes (the numpy substrate is orders of magnitude
  slower than the GPU/PyTorch setup of the paper);
* :func:`paper_scale_config` — the hyper-parameters quoted in Section VI-A
  (15 epochs, 200 tasks per workload, 5/45 support/query, 1e-5 / 1e-4
  learning rates), selected when the environment variable
  ``METADSE_FULL_EVAL`` is set.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from repro.meta.adaptation import PAPER_ADAPTATION_CONFIG, AdaptationConfig
from repro.meta.maml import PAPER_MAML_CONFIG, MAMLConfig
from repro.meta.wam import WAMConfig

#: Environment variable that switches every experiment to paper-scale settings.
FULL_EVAL_ENV = "METADSE_FULL_EVAL"


@dataclass
class PredictorConfig:
    """Architecture of the transformer surrogate."""

    embed_dim: int = 32
    num_heads: int = 4
    num_layers: int = 2
    head_hidden: int = 64

    def __post_init__(self) -> None:
        if self.embed_dim % self.num_heads != 0:
            raise ValueError("embed_dim must be divisible by num_heads")


@dataclass
class MetaDSEConfig:
    """Everything the MetaDSE facade needs."""

    predictor: PredictorConfig = field(default_factory=PredictorConfig)
    maml: MAMLConfig = field(default_factory=MAMLConfig)
    adaptation: AdaptationConfig = field(default_factory=AdaptationConfig)
    wam: WAMConfig = field(default_factory=WAMConfig)
    use_wam: bool = True
    seed: int = 0


def is_full_eval() -> bool:
    """True when paper-scale evaluation is requested via the environment."""
    return os.environ.get(FULL_EVAL_ENV, "").strip() not in ("", "0", "false", "False")


def default_config(*, use_wam: bool = True, seed: int = 0) -> MetaDSEConfig:
    """Single-core-friendly configuration used by tests and benchmarks."""
    return MetaDSEConfig(
        predictor=PredictorConfig(embed_dim=24, num_heads=4, num_layers=2, head_hidden=48),
        maml=MAMLConfig(
            inner_lr=0.02,
            outer_lr=2e-3,
            inner_steps=3,
            meta_epochs=4,
            tasks_per_workload=24,
            meta_batch_size=4,
            support_size=5,
            query_size=20,
            seed=seed,
        ),
        adaptation=AdaptationConfig(steps=12, lr=0.02),
        wam=WAMConfig(episodes_per_workload=3),
        use_wam=use_wam,
        seed=seed,
    )


def paper_scale_config(*, use_wam: bool = True, seed: int = 0) -> MetaDSEConfig:
    """The configuration quoted in Section VI-A of the paper."""
    return MetaDSEConfig(
        predictor=PredictorConfig(embed_dim=64, num_heads=8, num_layers=3, head_hidden=128),
        maml=replace(PAPER_MAML_CONFIG, seed=seed),
        adaptation=replace(PAPER_ADAPTATION_CONFIG),
        wam=WAMConfig(),
        use_wam=use_wam,
        seed=seed,
    )


def experiment_config(*, use_wam: bool = True, seed: int = 0) -> MetaDSEConfig:
    """Pick the configuration according to ``METADSE_FULL_EVAL``."""
    if is_full_eval():
        return paper_scale_config(use_wam=use_wam, seed=seed)
    return default_config(use_wam=use_wam, seed=seed)
