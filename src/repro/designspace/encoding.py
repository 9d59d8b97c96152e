"""The feature encoder that turns configurations into model inputs.

:class:`OrdinalEncoder` maps each parameter to one ``[0, 1]`` scalar by
ordinal position.  This is the representation used by the transformer
predictor (one token per parameter) and the tree baselines.  It also exposes
the inverse transform so DSE results can be mapped back to concrete
configurations.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.designspace.space import Configuration, DesignSpace


class OrdinalEncoder:
    """Encode configurations as per-parameter normalised ordinals."""

    def __init__(self, space: DesignSpace) -> None:
        self.space = space

    def encode(self, config: Mapping) -> np.ndarray:
        """Encode one configuration."""
        return self.space.to_features(config)

    def encode_batch(self, configs: Iterable[Mapping]) -> np.ndarray:
        """Encode an iterable of configurations into an ``(n, d)`` matrix."""
        return self.space.batch_to_features(configs)

    def decode(self, features: Sequence[float]) -> Configuration:
        """Inverse of :meth:`encode` (snaps to the nearest candidates)."""
        return self.space.from_features(features)
