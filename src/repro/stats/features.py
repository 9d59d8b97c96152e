"""Distributional feature vectors for workloads.

TrDSE [13] and TrEE [14] describe each workload by distributional features of
its metric values over a common probe set of configurations (means, spreads,
quantiles), then cluster workloads in that feature space.  The same compact
representation doubles as the "workload signature" of the signature-transfer
baselines [15, 16].
"""

from __future__ import annotations

import numpy as np

#: Names of the entries of :func:`distribution_features`, in order.
DISTRIBUTION_FEATURE_NAMES = (
    "mean",
    "std",
    "skewness",
    "kurtosis",
    "q10",
    "q25",
    "median",
    "q75",
    "q90",
    "iqr",
)


def distribution_features(values: np.ndarray) -> np.ndarray:
    """Summarise a 1-D sample by moments and quantiles.

    Returns a vector aligned with :data:`DISTRIBUTION_FEATURE_NAMES`.  The
    skewness/kurtosis terms fall back to zero for (near-)constant samples.
    """
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if values.size == 0:
        raise ValueError("distribution_features needs at least one value")
    mean = float(values.mean())
    std = float(values.std())
    if std > 1e-12:
        centred = (values - mean) / std
        skewness = float(np.mean(centred ** 3))
        kurtosis = float(np.mean(centred ** 4) - 3.0)
    else:
        skewness = 0.0
        kurtosis = 0.0
    q10, q25, median, q75, q90 = np.quantile(values, [0.10, 0.25, 0.50, 0.75, 0.90])
    return np.array(
        [
            mean,
            std,
            skewness,
            kurtosis,
            float(q10),
            float(q25),
            float(median),
            float(q75),
            float(q90),
            float(q75 - q25),
        ],
        dtype=np.float64,
    )
