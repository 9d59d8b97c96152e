"""Multi-objective surrogates for the DSE campaign engine.

A campaign explores a trade-off between several objectives (IPC, power,
energy, ...), but the prediction models in this repository are all
single-output: an adapted :class:`~repro.nn.transformer.TransformerPredictor`
or a tree :class:`~repro.baselines.base.Regressor` answers one metric.  A
:class:`MultiObjectiveSurrogate` bundles one model per objective behind a
single ``predict(features) -> (n, m)`` call so the engine never iterates
over objectives itself:

* :class:`CallableSurrogate` — wraps the legacy ``{name: features ->
  predictions}`` mapping the original explorers accepted; one call per
  objective (the compatibility path);
* :class:`TreeEnsembleSurrogate` — owns one tree regressor per objective
  with a vectorized fit/predict loop; the active-learning loop refits it
  every round;
* :class:`StackedPredictorSurrogate` — stacks the parameters of several
  architecture-identical nn predictors on a leading axis and answers *all*
  objectives for a candidate pool with one graph-free stacked inference
  pass, streamed in kernel-tile row blocks, falling back to a
  per-predictor loop when the models are not stackable.

Exploration bonuses (ensemble disagreement for forests, distance to the
already-simulated set otherwise) live here too, blended across *all*
objective surrogates so e.g. power-side uncertainty drives acquisition as
much as IPC-side uncertainty.
"""

from __future__ import annotations

import abc
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from repro.baselines.base import Regressor
from repro.nn import parallel as nn_parallel
from repro.nn.transformer import TransformerPredictor

#: Signature of a legacy surrogate callable: features (n, d) -> predictions (n,).
PredictorFn = Callable[[np.ndarray], np.ndarray]

#: Factory returning a fresh regressor for one objective.
RegressorFactory = Callable[[], Regressor]


def distance_to_known(features: np.ndarray, known_features: np.ndarray) -> np.ndarray:
    """Euclidean distance of every candidate to its closest known point."""
    return np.min(
        np.linalg.norm(features[:, None, :] - known_features[None, :, :], axis=2), axis=1
    )


def regressor_exploration_bonus(
    surrogate, features: np.ndarray, known_features: np.ndarray
) -> np.ndarray:
    """Disagreement of a forest's trees, or distance to the known set.

    With nothing simulated yet (an empty known set) the distance fallback
    is undefined; every candidate is equally unexplored, so the bonus is
    zero — matching :meth:`MultiObjectiveSurrogate.exploration_bonus`.
    """
    trees = getattr(surrogate, "trees_", None)
    if trees:
        member_predictions = np.stack([tree.predict(features) for tree in trees], axis=0)
        return member_predictions.std(axis=0)
    if known_features is None or known_features.shape[0] == 0:
        return np.zeros(features.shape[0], dtype=np.float64)
    return distance_to_known(features, known_features)


def blended_exploration_bonus(
    surrogates: Sequence, features: np.ndarray, known_features: np.ndarray
) -> np.ndarray:
    """Mean exploration bonus over *all* objective surrogates.

    The pre-engine active-learning loop consulted only the first objective's
    model, so e.g. power-side ensemble disagreement never drove acquisition;
    averaging the per-objective bonuses lets every objective pull.
    """
    if not surrogates:
        raise ValueError("blended_exploration_bonus needs at least one surrogate")
    bonuses = np.stack(
        [
            regressor_exploration_bonus(surrogate, features, known_features)
            for surrogate in surrogates
        ],
        axis=0,
    )
    return bonuses.mean(axis=0)


class MultiObjectiveSurrogate(abc.ABC):
    """One model per objective behind a single batched ``predict``."""

    #: Objective names, in column order of :meth:`predict`.
    objective_names: tuple[str, ...] = ()

    @property
    def num_objectives(self) -> int:
        return len(self.objective_names)

    @abc.abstractmethod
    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict all objectives: ``(n, d)`` features -> ``(n, m)`` matrix."""

    @property
    def supports_fit(self) -> bool:
        """Whether :meth:`fit` is implemented (active loops refit per round)."""
        return False

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "MultiObjectiveSurrogate":
        """Refit on ``(n, d)`` features and an ``(n, m)`` objective matrix."""
        raise NotImplementedError(f"{type(self).__name__} does not support refitting")

    def exploration_bonus(
        self, features: np.ndarray, known_features: Optional[np.ndarray]
    ) -> np.ndarray:
        """Acquisition tie-breaker (higher = more informative to simulate).

        The default is the distance to the already-simulated set; surrogates
        with an ensemble structure override this with (blended) member
        disagreement.
        """
        if known_features is None or known_features.shape[0] == 0:
            return np.zeros(features.shape[0], dtype=np.float64)
        return distance_to_known(features, known_features)


class CallableSurrogate(MultiObjectiveSurrogate):
    """Wrap the legacy per-objective callables in the engine interface.

    Predictions are collected with one call per objective, exactly like
    :func:`repro.dse.reference.predictor_guided_reference` (same call
    order, same ``float64`` coercion), so a one-workload campaign
    reproduces it bitwise.
    """

    def __init__(self, predictors: Mapping[str, PredictorFn]) -> None:
        if not predictors:
            raise ValueError("CallableSurrogate needs at least one predictor")
        self.predictors = dict(predictors)
        self.objective_names = tuple(self.predictors)

    def predict(self, features: np.ndarray) -> np.ndarray:
        return np.stack(
            [
                np.asarray(self.predictors[name](features), dtype=np.float64)
                for name in self.objective_names
            ],
            axis=1,
        )


class TreeEnsembleSurrogate(MultiObjectiveSurrogate):
    """One tree regressor per objective, refit together every round."""

    def __init__(self, factory: RegressorFactory, objective_names: Sequence[str]) -> None:
        objective_names = tuple(objective_names)
        if not objective_names:
            raise ValueError("TreeEnsembleSurrogate needs at least one objective")
        self.factory = factory
        self.objective_names = objective_names
        self.regressors: list[Regressor] = []

    @property
    def supports_fit(self) -> bool:
        return True

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "TreeEnsembleSurrogate":
        targets = np.asarray(targets, dtype=np.float64)
        if targets.ndim != 2 or targets.shape[1] != self.num_objectives:
            raise ValueError(
                f"expected an (n, {self.num_objectives}) objective matrix, "
                f"got shape {targets.shape}"
            )
        self.regressors = []
        for column in range(targets.shape[1]):
            regressor = self.factory()
            regressor.fit(features, targets[:, column])
            self.regressors.append(regressor)
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        if not self.regressors:
            raise RuntimeError("predict() called before fit()")
        return np.stack(
            [regressor.predict(features) for regressor in self.regressors], axis=1
        )

    def exploration_bonus(
        self, features: np.ndarray, known_features: Optional[np.ndarray]
    ) -> np.ndarray:
        if not self.regressors:
            raise RuntimeError("exploration_bonus() called before fit()")
        if known_features is None:
            known_features = np.empty((0, features.shape[1]), dtype=np.float64)
        return blended_exploration_bonus(self.regressors, features, known_features)


class StackedPredictorSurrogate(MultiObjectiveSurrogate):
    """Answer all objectives with one stacked-parameter nn forward.

    Takes one :class:`TransformerPredictor` per objective (typically the
    per-metric adapted predictors ``MetaDSE.adapt_many`` returns).  When the
    models are architecture-identical their parameters are stacked once, as
    plain arrays, on a leading objective axis, and ``predict`` answers every
    objective with the graph-free
    :meth:`~repro.nn.transformer.TransformerPredictor.stacked_inference`
    pass.  Models with mismatched parameter sets (e.g. one carries a WAM
    mask and another does not) or with differing non-parameter tensor state
    (e.g. *non-learnable* masks, which are absent from ``state_dict`` but
    shape the forward) fall back to a per-predictor loop transparently.

    The pass streams the candidates in blocks of the kernel tile length
    (:func:`repro.nn.parallel.tile_spans`), so memory stays bounded by one
    block whatever the pool size, and the blocks fan out across threads
    under a ``repro.nn.parallel.threads(n)`` policy.  Every block runs the
    slice-stable forward functions of :mod:`repro.nn.tensor`, so the rows
    are bit for bit the autodiff stacked forward under ``threads(1)``, for
    every pool size and thread count.  ``predict`` only reads the
    predictors, so concurrent calls on one surrogate are safe.

    ``label_means`` / ``label_stds`` undo per-objective label
    standardisation, so a surrogate built from facade-adapted predictors
    emits physical units like ``MetaDSE.predict`` does.
    """

    def __init__(
        self,
        predictors: Sequence[TransformerPredictor],
        objective_names: Sequence[str],
        *,
        label_means: Optional[Sequence[float]] = None,
        label_stds: Optional[Sequence[float]] = None,
    ) -> None:
        predictors = list(predictors)
        objective_names = tuple(objective_names)
        if not predictors:
            raise ValueError("StackedPredictorSurrogate needs at least one predictor")
        if len(predictors) != len(objective_names):
            raise ValueError("one predictor per objective name is required")
        self.predictors = predictors
        self.objective_names = objective_names
        self._means = np.asarray(
            label_means if label_means is not None else [0.0] * len(predictors),
            dtype=np.float64,
        )
        self._stds = np.asarray(
            label_stds if label_stds is not None else [1.0] * len(predictors),
            dtype=np.float64,
        )
        if self._means.shape != (len(predictors),) or self._stds.shape != (len(predictors),):
            raise ValueError("label_means/label_stds must provide one value per objective")
        self._params = self._stack_parameters()

    def _stack_parameters(self) -> Optional[dict[str, np.ndarray]]:
        """Stack all models' parameters, or ``None`` when not stackable."""
        states = [predictor.state_dict() for predictor in self.predictors]
        names = set(states[0])
        if any(set(state) != names for state in states[1:]):
            return None
        # Non-parameter tensor state (e.g. a WAM mask installed with
        # ``learnable=False``) is absent from ``state_dict`` yet shapes the
        # forward.  The stacked pass reads it from the template for every
        # objective, so it is only valid when all models carry bitwise-
        # identical buffers; otherwise predictor[0]'s mask would silently be
        # applied to every objective.
        reference = list(self.predictors[0].named_buffers())
        for predictor in self.predictors[1:]:
            buffers = list(predictor.named_buffers())
            if [name for name, _ in buffers] != [name for name, _ in reference]:
                return None
            for (_, ours), (_, theirs) in zip(reference, buffers):
                if not np.array_equal(ours.data, theirs.data):
                    return None
        stacked: dict[str, np.ndarray] = {}
        dtype = self.predictors[0].dtype
        for name in states[0]:
            arrays = [state[name] for state in states]
            if any(array.shape != arrays[0].shape for array in arrays[1:]):
                return None
            stacked[name] = np.stack(arrays).astype(dtype, copy=False)
        return stacked

    @property
    def is_stacked(self) -> bool:
        """True when ``predict`` runs the stacked inference pass."""
        return self._params is not None

    def predict(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        if self._params is None:
            raw = np.stack(
                [predictor.predict(features) for predictor in self.predictors], axis=1
            )
        else:
            template = self.predictors[0]
            cast = features.astype(template.dtype, copy=False)
            raw = np.empty((len(cast), len(self.predictors)), dtype=np.float64)

            def block(start: int, stop: int) -> None:
                raw[start:stop] = template.stacked_inference(
                    self._params, cast[start:stop]
                ).T

            nn_parallel.run_tiles(block, nn_parallel.tile_spans(len(cast)))
        return raw * self._stds[None, :] + self._means[None, :]

    def attention_profile(self, features: np.ndarray):
        """Distil a parameter-importance profile from the stacked models.

        Runs :func:`repro.meta.wam.profile_from_predictors` over every
        per-objective predictor on *features* (one eval-mode forward each
        with attention storage temporarily enabled) and merges the
        per-objective profiles into one normalized
        :class:`~repro.meta.wam.ImportanceProfile`.  This is the hook
        :class:`~repro.dse.engine.FocusedPool` probes for when refocusing a
        pruned candidate pool between rounds; it is deterministic for fixed
        *features* and bitwise invariant to the ``threads(n)`` policy.
        """
        # Function-level import: repro.meta.wam already imports the nn layer
        # this module builds on, so a top-level import would be cyclic.
        from repro.meta.wam import profile_from_predictors

        return profile_from_predictors(self.predictors, features)
