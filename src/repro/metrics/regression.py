"""Regression metrics of Section V (Evaluation Metrics).

Three metrics are defined by the paper:

* RMSE — root mean squared error (Eq. 1), lower is better;
* MAPE — mean absolute percentage error (Eq. 2), reported as a fraction
  multiplied by 100 in the paper's table; we return the fraction and let the
  reporting layer scale it;
* EV — explained variance (Eq. 3), higher is better (can be negative when a
  model is worse than predicting the mean).

``geometric_mean`` is used for the GEOMEAN column of Fig. 5 and
``confidence_interval`` for the ± ranges of Table II.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_finite, check_same_length


def _prepare(y_true, y_pred) -> tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true, dtype=np.float64).reshape(-1)
    y_pred = np.asarray(y_pred, dtype=np.float64).reshape(-1)
    check_same_length("y_true", y_true, "y_pred", y_pred)
    if y_true.size == 0:
        raise ValueError("metrics need at least one sample")
    check_finite("y_true", y_true)
    check_finite("y_pred", y_pred)
    return y_true, y_pred


def rmse(y_true, y_pred) -> float:
    """Root mean squared error (Eq. 1)."""
    y_true, y_pred = _prepare(y_true, y_pred)
    return float(np.sqrt(np.mean((y_true - y_pred) ** 2)))


def mape(y_true, y_pred, *, epsilon: float = 1e-9) -> float:
    """Mean absolute percentage error as a fraction (Eq. 2 divides by 100).

    Labels very close to zero are guarded by *epsilon* to avoid division
    blow-ups (the simulator never produces exactly-zero IPC or power, but
    standardised labels can be tiny).
    """
    y_true, y_pred = _prepare(y_true, y_pred)
    denom = np.maximum(np.abs(y_true), epsilon)
    return float(np.mean(np.abs(y_true - y_pred) / denom))


def explained_variance(y_true, y_pred) -> float:
    """Explained variance (Eq. 3); 1 is perfect, 0 matches a mean predictor."""
    y_true, y_pred = _prepare(y_true, y_pred)
    denom = float(np.sum((y_true - y_true.mean()) ** 2))
    if denom < 1e-18:
        return 0.0
    return float(1.0 - np.sum((y_true - y_pred) ** 2) / denom)


def geometric_mean(values) -> float:
    """Geometric mean of positive values (the GEOMEAN column of Fig. 5)."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if values.size == 0:
        raise ValueError("geometric_mean needs at least one value")
    if np.any(values <= 0):
        raise ValueError("geometric_mean requires strictly positive values")
    return float(np.exp(np.mean(np.log(values))))


def confidence_interval(values, *, confidence: float = 0.95) -> float:
    """Half-width of the Student-t confidence interval of the mean.

    Used for the ``±`` figures in Table II.  Returns 0 for a single sample.
    """
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if values.size == 0:
        raise ValueError("confidence_interval needs at least one value")
    if values.size == 1:
        return 0.0
    # Imported here: ``scipy.stats`` costs about a second at import time.
    from scipy import stats

    sem = stats.sem(values)
    half = sem * stats.t.ppf((1.0 + confidence) / 2.0, values.size - 1)
    return float(half)


@dataclass(frozen=True)
class MetricReport:
    """RMSE / MAPE / EV of one prediction run."""

    rmse: float
    mape: float
    explained_variance: float
    num_samples: int

    def as_dict(self) -> dict[str, float]:
        """Flat dictionary view for report tables."""
        return {
            "rmse": self.rmse,
            "mape": self.mape,
            "explained_variance": self.explained_variance,
            "num_samples": float(self.num_samples),
        }


def evaluate_predictions(y_true, y_pred) -> MetricReport:
    """Compute the full metric report of one prediction run."""
    y_true_arr, y_pred_arr = _prepare(y_true, y_pred)
    return MetricReport(
        rmse=rmse(y_true_arr, y_pred_arr),
        mape=mape(y_true_arr, y_pred_arr),
        explained_variance=explained_variance(y_true_arr, y_pred_arr),
        num_samples=int(y_true_arr.size),
    )
