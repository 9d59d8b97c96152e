"""Design-space-exploration utilities built on top of the surrogate models.

Every exploration is a campaign of one shared
:class:`~repro.dse.engine.CampaignEngine` (candidate generation,
acquisition scoring, quality bookkeeping): a single-workload exploration
is a one-workload :meth:`~repro.dse.engine.CampaignEngine.run_campaign`.
See ``docs/architecture.md`` for the layer diagram.
"""

from repro.dse.acquisition import (
    AcquisitionContext,
    AcquisitionStrategy,
    ExplorationBonusAcquisition,
    ParetoRankAcquisition,
)
from repro.dse.engine import (
    CampaignEngine,
    CampaignResult,
    CampaignRound,
    CandidateGenerator,
    FocusedPool,
    NSGA2Evolve,
    ObjectiveSet,
    QualityTracker,
    RandomPool,
    WorkloadCampaignResult,
)
from repro.dse.nsga2 import NSGA2Explorer, NSGA2Result, fast_non_dominated_sort
from repro.dse.portfolio import StrategyPortfolio
from repro.dse.pareto import (
    crowding_distance,
    hypervolume_2d,
    pareto_front,
    pareto_mask,
    to_minimization,
)
from repro.dse.quality import (
    adrs,
    hypervolume_ratio,
    hypervolume_slope,
    monte_carlo_hypervolume,
    normalize_objectives,
)
from repro.dse.surrogates import (
    CallableSurrogate,
    MultiObjectiveSurrogate,
    StackedPredictorSurrogate,
    TreeEnsembleSurrogate,
)

__all__ = [
    "pareto_mask",
    "pareto_front",
    "hypervolume_2d",
    "crowding_distance",
    "to_minimization",
    "CampaignEngine",
    "CampaignResult",
    "CampaignRound",
    "CandidateGenerator",
    "ObjectiveSet",
    "QualityTracker",
    "RandomPool",
    "FocusedPool",
    "NSGA2Evolve",
    "StrategyPortfolio",
    "WorkloadCampaignResult",
    "AcquisitionContext",
    "AcquisitionStrategy",
    "ParetoRankAcquisition",
    "ExplorationBonusAcquisition",
    "MultiObjectiveSurrogate",
    "CallableSurrogate",
    "TreeEnsembleSurrogate",
    "StackedPredictorSurrogate",
    "NSGA2Explorer",
    "NSGA2Result",
    "fast_non_dominated_sort",
    "adrs",
    "hypervolume_ratio",
    "hypervolume_slope",
    "monte_carlo_hypervolume",
    "normalize_objectives",
]
