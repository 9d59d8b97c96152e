"""Design-space layer: Table I parameters, encoding and sampling."""

from repro.designspace.encoding import OrdinalEncoder
from repro.designspace.parameters import (
    Parameter,
    ParameterError,
    categorical,
    ranged,
    strided_range,
)
from repro.designspace.sampling import (
    FocusedSampler,
    LatinHypercubeSampler,
    OrthogonalArraySampler,
    RandomSampler,
    make_sampler,
)
from repro.designspace.space import Configuration, DesignSpace
from repro.designspace.spec import (
    BRANCH_PREDICTORS,
    DRAM_SIZE_MB,
    build_table1_space,
    table1_parameters,
)

__all__ = [
    "Parameter",
    "ParameterError",
    "categorical",
    "ranged",
    "strided_range",
    "Configuration",
    "DesignSpace",
    "OrdinalEncoder",
    "RandomSampler",
    "LatinHypercubeSampler",
    "OrthogonalArraySampler",
    "FocusedSampler",
    "make_sampler",
    "BRANCH_PREDICTORS",
    "DRAM_SIZE_MB",
    "table1_parameters",
    "build_table1_space",
]
