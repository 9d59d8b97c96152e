"""MetaDSE reproduction: few-shot meta-learning for cross-workload CPU DSE.

The package is organised bottom-up:

* :mod:`repro.designspace` -- the Table I out-of-order CPU design space;
* :mod:`repro.workloads` -- synthetic SPEC CPU 2017 workload profiles;
* :mod:`repro.sim` -- analytical performance/power simulator (gem5 + McPAT
  substitute);
* :mod:`repro.datasets` -- labelled dataset generation, ``.npz`` persistence,
  splits, episodic tasks and workload-similarity analysis;
* :mod:`repro.stats` -- k-means, Gaussian mixtures and distributional
  features backing the transfer baselines;
* :mod:`repro.nn` -- numpy autograd, transformer predictor, optimisers,
  gradient checking;
* :mod:`repro.meta` -- MAML pre-training, WAM generation, adaptation, the
  ANIL / Meta-SGD / Reptile ablation variants;
* :mod:`repro.baselines` -- RF, GBRT, TrEnDSE, TrEnDSE-Transformer, TrDSE,
  TrEE, GMM augmentation, workload signatures, linear fitting;
* :mod:`repro.metrics` -- RMSE / MAPE / explained variance and their
  confidence intervals;
* :mod:`repro.dse` -- the unified DSE campaign engine (batched
  multi-objective surrogates, pluggable candidate generation and
  acquisition, cross-workload campaigns; a single-workload exploration is
  a one-workload campaign), NSGA-II and Pareto/ADRS/hypervolume
  utilities;
* :mod:`repro.runtime` -- the parallel campaign runtime: DAG job
  scheduler, serial/thread/process executors, deterministic sharding and
  resumable campaign checkpoints;
* :mod:`repro.core` -- the :class:`~repro.core.metadse.MetaDSE` facade;
* :mod:`repro.cli` -- the ``python -m repro`` command-line interface.
"""

from repro.core import MetaDSE, MetaDSEConfig, default_config, paper_scale_config
from repro.datasets import generate_dataset
from repro.designspace import build_table1_space
from repro.sim import BatchSimulationResult, SimulationResult, Simulator
from repro.workloads import spec2017_suite

__version__ = "1.0.0"

__all__ = [
    "MetaDSE",
    "MetaDSEConfig",
    "default_config",
    "paper_scale_config",
    "Simulator",
    "SimulationResult",
    "BatchSimulationResult",
    "generate_dataset",
    "build_table1_space",
    "spec2017_suite",
    "__version__",
]
