"""Baseline models: trees, pooled tree baselines and transfer-learning frameworks."""

from repro.baselines.base import (
    CrossWorkloadModel,
    Regressor,
    as_1d,
    as_2d,
    pooled_source_data,
)
from repro.baselines.gmm_augment import GMMAugmentationTransfer
from repro.baselines.linear_fit import LinearFittingTransfer
from repro.baselines.signature import SignatureTransfer
from repro.baselines.target_only import (
    PooledTreeModel,
    gbrt_baseline,
    random_forest_baseline,
)
from repro.baselines.transformer_regressor import TransformerRegressor
from repro.baselines.trdse import TrDSE, TrEE
from repro.baselines.trees import (
    DecisionTreeRegressor,
    GradientBoostingRegressor,
    RandomForestRegressor,
)
from repro.baselines.trendse import TrEnDSE, TrEnDSETransformer

__all__ = [
    "Regressor",
    "CrossWorkloadModel",
    "as_1d",
    "as_2d",
    "pooled_source_data",
    "DecisionTreeRegressor",
    "RandomForestRegressor",
    "GradientBoostingRegressor",
    "TransformerRegressor",
    "TrEnDSE",
    "TrEnDSETransformer",
    "TrDSE",
    "TrEE",
    "GMMAugmentationTransfer",
    "SignatureTransfer",
    "LinearFittingTransfer",
    "PooledTreeModel",
    "random_forest_baseline",
    "gbrt_baseline",
]
