"""Evaluation metrics used throughout the paper's experiments."""

from repro.metrics.regression import (
    MetricReport,
    confidence_interval,
    evaluate_predictions,
    explained_variance,
    geometric_mean,
    mape,
    rmse,
)

__all__ = [
    "rmse",
    "mape",
    "explained_variance",
    "geometric_mean",
    "confidence_interval",
    "MetricReport",
    "evaluate_predictions",
]
