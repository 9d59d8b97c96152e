"""Dataset layer: generation, splits, episodic tasks and similarity analysis."""

from repro.datasets.generation import (
    METRICS,
    DSEDataset,
    WorkloadDataset,
    generate_dataset,
)
from repro.datasets.io import load_dataset, save_dataset
from repro.datasets.similarity import (
    SimilarityMatrix,
    select_similar_sources,
    similarity_matrix,
    standardized_wasserstein,
)
from repro.datasets.splits import (
    PAPER_SPLIT_SIZES,
    WorkloadSplit,
    paper_split,
)
from repro.datasets.tasks import (
    DEFAULT_QUERY_SIZE,
    DEFAULT_SUPPORT_SIZE,
    Task,
    TaskSampler,
    holdout_task,
)

__all__ = [
    "METRICS",
    "WorkloadDataset",
    "DSEDataset",
    "generate_dataset",
    "save_dataset",
    "load_dataset",
    "WorkloadSplit",
    "PAPER_SPLIT_SIZES",
    "paper_split",
    "Task",
    "TaskSampler",
    "holdout_task",
    "DEFAULT_SUPPORT_SIZE",
    "DEFAULT_QUERY_SIZE",
    "SimilarityMatrix",
    "similarity_matrix",
    "standardized_wasserstein",
    "select_similar_sources",
]
