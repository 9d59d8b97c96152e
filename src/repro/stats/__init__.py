"""Statistical substrates shared by the transfer-learning baselines.

The related-work baselines of Section II need classic statistical machinery
that is unavailable offline (no scikit-learn):

* :mod:`repro.stats.kmeans` -- Lloyd's k-means with k-means++ seeding, used by
  TrDSE-style workload clustering;
* :mod:`repro.stats.gmm` -- a diagonal-covariance Gaussian mixture model fit
  with expectation-maximisation, used by the generative data-augmentation
  baseline;
* :mod:`repro.stats.features` -- distributional feature vectors (moments and
  quantiles of a label distribution) used to describe workloads compactly.
"""

from repro.stats.features import (
    DISTRIBUTION_FEATURE_NAMES,
    distribution_features,
)
from repro.stats.gmm import GaussianMixture
from repro.stats.kmeans import KMeans, KMeansResult

__all__ = [
    "KMeans",
    "KMeansResult",
    "GaussianMixture",
    "DISTRIBUTION_FEATURE_NAMES",
    "distribution_features",
]
