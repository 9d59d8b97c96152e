"""Equivalence of one-workload campaigns and the pre-engine reference loops.

A single-workload exploration is a one-workload
``CampaignEngine.run_campaign``; the loops it replaced survive as the
plain functions of ``repro.dse.reference`` — the executable
specification, exactly like ``Simulator.run_scalar`` specifies the batch
path (``tests/test_sim_batch_equivalence.py``).  This module pins the
campaign against the reference **bitwise**: same sampler streams must
simulate the same configurations in the same order, measure the same
objective rows, and report the same fronts, hypervolume histories and
last-round predictions.
"""

import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.trees import GradientBoostingRegressor, RandomForestRegressor
from repro.dse.acquisition import ExplorationBonusAcquisition, ParetoRankAcquisition
from repro.dse.engine import (
    CampaignEngine,
    ObjectiveSet,
    QualityTracker,
    RandomPool,
    screen_predict,
)
from repro.dse.reference import active_learning_reference, predictor_guided_reference
from repro.dse.surrogates import (
    CallableSurrogate,
    StackedPredictorSurrogate,
    TreeEnsembleSurrogate,
)
from repro.nn import parallel as nn_parallel
from repro.nn.tensor import Tensor
from repro.nn.transformer import TransformerPredictor
from repro.runtime.executors import ThreadExecutor

WORKLOAD = "605.mcf_s"


def _surrogate_callables(fast_simulator, table1_space, seed=0):
    """Cheap per-objective callables fit on a small labelled set."""
    from repro.designspace.encoding import OrdinalEncoder
    from repro.designspace.sampling import RandomSampler

    encoder = OrdinalEncoder(table1_space)
    configs = RandomSampler(table1_space, seed=seed).sample(60)
    features = encoder.encode_batch(configs)
    batch = fast_simulator.run_batch(configs, WORKLOAD)
    predictors = {}
    for name in ("ipc", "power"):
        surrogate = GradientBoostingRegressor(n_estimators=30, max_depth=3, seed=0)
        surrogate.fit(features, batch.objective(name))
        predictors[name] = surrogate.predict
    return predictors


def _assert_matches_reference(result, reference):
    """The campaign and reference results agree bitwise, rows in order."""
    assert result.simulated_configs == reference.simulated_configs
    np.testing.assert_array_equal(
        result.measured_objectives, reference.measured_objectives
    )
    np.testing.assert_array_equal(result.pareto_indices, reference.pareto_indices)
    assert result.hypervolume_history() == reference.hypervolume_history()
    assert result.rounds == reference.rounds
    np.testing.assert_array_equal(result.predicted, reference.predicted)
    assert result.selected_indices == reference.selected_indices
    assert result.simulations_used == reference.simulations_used
    assert result.candidates_screened == reference.candidates_screened


def _one_workload_campaign(space, simulator, objectives, surrogate, seed, **kwargs):
    engine = CampaignEngine(space, simulator, objectives, seed=seed)
    return engine.run_campaign([WORKLOAD], {WORKLOAD: surrogate}, **kwargs)[WORKLOAD]


class TestPredictorGuidedEquivalence:
    @pytest.fixture(scope="class")
    def predictors(self, fast_simulator, table1_space):
        return _surrogate_callables(fast_simulator, table1_space)

    @pytest.mark.parametrize("budget,pool", [(12, 80), (40, 60)])
    def test_engine_matches_reference_bitwise(
        self, table1_space, fast_simulator, predictors, budget, pool
    ):
        campaign = _one_workload_campaign(
            table1_space,
            fast_simulator,
            ObjectiveSet.from_names(tuple(predictors)),
            CallableSurrogate(predictors),
            3,
            generator=RandomPool(pool),
            acquisition=ParetoRankAcquisition(),
            simulation_budget=budget,
        )
        reference = predictor_guided_reference(
            table1_space,
            fast_simulator,
            WORKLOAD,
            predictors,
            candidate_pool=pool,
            simulation_budget=budget,
            seed=3,
        )
        _assert_matches_reference(campaign, reference)

    def test_selected_indices_are_plain_ints(
        self, table1_space, fast_simulator, predictors
    ):
        result = _one_workload_campaign(
            table1_space,
            fast_simulator,
            ObjectiveSet.from_names(tuple(predictors)),
            CallableSurrogate(predictors),
            1,
            candidate_pool=50,
            simulation_budget=20,
        )
        assert all(type(i) is int for i in result.selected_indices)


def _forest():
    return RandomForestRegressor(n_estimators=30, max_depth=10, seed=0)


class TestActiveLearningEquivalence:
    def _compare(self, table1_space, fast_simulator, seed, pool, objective_names, **kwargs):
        objectives = ObjectiveSet.from_names(objective_names)
        campaign = _one_workload_campaign(
            table1_space,
            fast_simulator,
            objectives,
            TreeEnsembleSurrogate(_forest, objectives.names),
            seed,
            generator=RandomPool(pool),
            acquisition=ExplorationBonusAcquisition(),
            simulation_budget=kwargs["batch_size"],
            rounds=kwargs["rounds"],
            initial_samples=kwargs["initial_samples"],
            refit=True,
        )
        reference = active_learning_reference(
            table1_space,
            fast_simulator,
            WORKLOAD,
            surrogate_factory=_forest,
            objective_names=objective_names,
            candidate_pool=pool,
            seed=seed,
            **kwargs,
        )
        _assert_matches_reference(campaign, reference)

    def test_engine_matches_reference_bitwise(self, table1_space, fast_simulator):
        self._compare(
            table1_space, fast_simulator, 4, 50, ("ipc", "power"),
            initial_samples=6, batch_size=3, rounds=3,
        )

    def test_custom_objectives_match_reference(self, table1_space, fast_simulator):
        self._compare(
            table1_space, fast_simulator, 9, 40, ("ipc", "energy_per_instruction_nj"),
            initial_samples=4, batch_size=2, rounds=2,
        )

    def test_refit_rounds_match_reference(self, table1_space, fast_simulator):
        # Enough refits after the first for a row-order change to show:
        # every refit fits its forest on the rows in measured order.
        self._compare(
            table1_space, fast_simulator, 0, 200, ("ipc", "power"),
            initial_samples=12, batch_size=8, rounds=4,
        )


# -- blocked screening and the stacked inference pass ------------------------------
#: Pool size the blocked-screening tests screen, and the block sizes they
#: pin: single-row blocks, one-short, exact, and overshooting blocks.
POOL = 40
SCREEN_TILES = (1, POOL - 1, POOL, POOL + 7)

#: Row counts around the kernel tile length (64): empty, single-row, one
#: short of / exactly / one past a tile, and a ragged multi-tile pool.
ROW_COUNTS = (0, 1, 63, 64, 65, 257)

#: Tokens per candidate of the small predictors below.
TOKENS = 6


def _fitted_tree_surrogate(fast_simulator, table1_space, seed=0):
    from repro.designspace.encoding import OrdinalEncoder
    from repro.designspace.sampling import RandomSampler

    encoder = OrdinalEncoder(table1_space)
    configs = RandomSampler(table1_space, seed=seed).sample(50)
    features = encoder.encode_batch(configs)
    batch = fast_simulator.run_batch(configs, WORKLOAD)
    factory = partial(GradientBoostingRegressor, n_estimators=10, max_depth=2, seed=seed)
    surrogate = TreeEnsembleSurrogate(factory, ("ipc", "power"))
    surrogate.fit(
        features, np.stack([batch.objective(n) for n in ("ipc", "power")], axis=1)
    )
    return surrogate


def _predictors(num_objectives, mask=None, dtype="float64"):
    """Small architecture-identical predictors, one per objective.

    ``mask`` installs a WAM-style logit bias in the last layer: a
    ``"learnable"`` one (a parameter, different per objective, stacked like
    the weights) or a ``"buffer"`` (non-learnable, identical across the
    objectives, read from the template).
    """
    predictors = []
    for seed in range(num_objectives):
        predictor = TransformerPredictor(
            TOKENS, embed_dim=8, num_heads=2, num_layers=2, head_hidden=8, seed=seed
        ).to_dtype(dtype)
        if mask is not None:
            learnable = mask == "learnable"
            bias = np.random.default_rng(seed if learnable else 99)
            predictor.install_mask(bias.normal(size=(TOKENS, TOKENS)), learnable=learnable)
        predictors.append(predictor)
    return predictors


def _label_scale(count):
    """Per-objective ``(means, stds)`` the surrogates de-standardise with."""
    return np.linspace(-1.0, 2.0, count), np.linspace(0.5, 3.0, count)


def _stacked_surrogate(predictors):
    count = len(predictors)
    means, stds = _label_scale(count)
    surrogate = StackedPredictorSurrogate(
        predictors,
        tuple(f"objective{i}" for i in range(count)),
        label_means=means,
        label_stds=stds,
    )
    assert surrogate.is_stacked
    return surrogate


def _screen_in_blocks(surrogate, features, tile):
    """Screen *features* ``tile`` rows at a time and stack the blocks."""
    return np.concatenate(
        [
            screen_predict(surrogate, features[start:stop])
            for start, stop in nn_parallel.tile_spans(len(features), tile)
        ]
    )


class TestScreenPredictEquivalence:
    """Blocked screening == whole-pool screening, bitwise, for every block."""

    @pytest.mark.parametrize("tile", SCREEN_TILES)
    def test_tree_surrogate_blocked_bitwise(
        self, fast_simulator, table1_space, tile
    ):
        surrogate = _fitted_tree_surrogate(fast_simulator, table1_space)
        features = np.random.default_rng(0).uniform(size=(POOL, 22))
        np.testing.assert_array_equal(
            _screen_in_blocks(surrogate, features, tile),
            screen_predict(surrogate, features),
        )

    @pytest.mark.parametrize("tile", SCREEN_TILES)
    def test_stacked_surrogate_blocked_bitwise(self, tile):
        surrogate = _stacked_surrogate(_predictors(2))
        features = np.random.default_rng(1).uniform(size=(POOL, TOKENS))
        np.testing.assert_array_equal(
            _screen_in_blocks(surrogate, features, tile),
            screen_predict(surrogate, features),
        )

    @pytest.mark.parametrize("tile", (1, 7))
    def test_stacked_surrogate_blocked_under_kernel_threads(self, tile):
        """Blocked screening composes with the kernel thread policy bitwise."""
        surrogate = _stacked_surrogate(_predictors(2))
        features = np.random.default_rng(2).uniform(size=(POOL, TOKENS))
        reference = screen_predict(surrogate, features)
        try:
            with nn_parallel.threads(3):
                np.testing.assert_array_equal(
                    _screen_in_blocks(surrogate, features, tile), reference
                )
        finally:
            nn_parallel.shutdown_pool()


class TestStackedInferencePass:
    """``predict`` is the autodiff stacked forward, bit for bit."""

    @pytest.mark.parametrize("mask", (None, "learnable", "buffer"))
    @pytest.mark.parametrize("dtype", ("float32", "float64"))
    @settings(max_examples=12, deadline=None)
    @given(
        num_objectives=st.integers(1, 3),
        rows=st.sampled_from(ROW_COUNTS),
        threads=st.sampled_from((1, 2)),
    )
    def test_predict_equals_autodiff_stacked_forward_bitwise(
        self, num_objectives, rows, dtype, mask, threads
    ):
        predictors = _predictors(num_objectives, mask, dtype)
        surrogate = _stacked_surrogate(predictors)
        features = np.random.default_rng(rows).uniform(size=(rows, TOKENS))
        try:
            with nn_parallel.threads(threads):
                predicted = surrogate.predict(features)
        finally:
            nn_parallel.shutdown_pool()

        template = predictors[0]
        stacked = {
            name: np.stack([p.state_dict()[name] for p in predictors])
            for name in template.state_dict()
        }
        cast = features.astype(dtype)
        block = np.broadcast_to(cast, (num_objectives,) + cast.shape).copy()
        with nn_parallel.threads(1):
            out = template.functional_call(stacked, Tensor(block))
        means, stds = _label_scale(num_objectives)
        expected = np.asarray(out.data, dtype=np.float64).T * stds + means
        assert predicted.dtype == np.float64
        np.testing.assert_array_equal(predicted, expected)

    @pytest.mark.parametrize("kind", ("tree", "stacked"))
    @settings(max_examples=15, deadline=None)
    @given(bounds=st.tuples(st.integers(0, 257), st.integers(0, 257)))
    def test_predict_is_slice_stable(
        self, fast_simulator, table1_space, kind, bounds
    ):
        """``predict(X)[a:b] == predict(X[a:b])`` for tree and stacked surrogates."""
        start, stop = sorted(bounds)
        if kind == "tree":
            surrogate = _fitted_tree_surrogate(fast_simulator, table1_space)
            width = table1_space.num_parameters
        else:
            surrogate = _stacked_surrogate(_predictors(2, "learnable"))
            width = TOKENS
        features = np.random.default_rng(start).uniform(size=(257, width))
        np.testing.assert_array_equal(
            surrogate.predict(features)[start:stop],
            surrogate.predict(features[start:stop]),
        )

    @pytest.mark.parametrize("kernel_threads", (None, 2))
    def test_concurrent_predict_is_read_only_and_exact(self, kernel_threads):
        """Four threads predicting on one surrogate get the serial rows and
        leave every predictor exactly as they found it."""
        predictors = _predictors(2, "learnable")
        surrogate = _stacked_surrogate(predictors)
        features = np.random.default_rng(5).uniform(size=(257, TOKENS))
        for predictor in predictors:
            predictor(Tensor(features[:3]))  # record a last_attention to keep

        def snapshot():
            return [
                (
                    {name: value.shape for name, value in p.state_dict().items()},
                    [module.training for module in p.modules()],
                    [(layer.store_attention, layer.last_attention) for layer in p.attention_layers()],
                )
                for p in predictors
            ]

        before = snapshot()
        reference = surrogate.predict(features)
        barrier = threading.Barrier(4)

        def worker(_):
            barrier.wait()
            return [surrogate.predict(features) for _ in range(6)]

        try:
            with nn_parallel.threads(kernel_threads), ThreadPoolExecutor(4) as pool:
                results = [row for rows in pool.map(worker, range(4)) for row in rows]
        finally:
            nn_parallel.shutdown_pool()
        for result in results:
            np.testing.assert_array_equal(result, reference)
        after = snapshot()
        for (shapes, training, attention), (shapes_after, training_after, attention_after) in zip(
            before, after
        ):
            assert shapes_after == shapes
            assert training_after == training
            assert [flag for flag, _ in attention_after] == [flag for flag, _ in attention]
            assert all(
                kept is found for (_, kept), (_, found) in zip(attention, attention_after)
            )


class TestCampaignThreadingEquivalence:
    """Concurrent screening jobs and the kernel thread policy leave a
    campaign bitwise equal to the plain serial one."""

    @pytest.mark.parametrize("kind", ("tree", "stacked"))
    def test_thread_executor_and_kernel_threads_bitwise(
        self, fast_simulator, table1_space, kind
    ):
        workloads = (WORKLOAD, "625.x264_s")
        width = table1_space.num_parameters

        def surrogates():
            if kind == "tree":
                return {
                    workload: _fitted_tree_surrogate(fast_simulator, table1_space, seed=i)
                    for i, workload in enumerate(workloads)
                }
            return {
                workload: StackedPredictorSurrogate(
                    [
                        TransformerPredictor(
                            width, embed_dim=8, num_heads=2, num_layers=1,
                            head_hidden=8, seed=2 * i + j,
                        )
                        for j in range(2)
                    ],
                    ("ipc", "power"),
                )
                for i, workload in enumerate(workloads)
            }

        def engine():
            return CampaignEngine(
                fast_simulator.space,
                fast_simulator,
                ObjectiveSet.from_names(("ipc", "power")),
                seed=5,
            )

        kwargs = dict(candidate_pool=130, simulation_budget=4)
        reference = engine().run_campaign(workloads, surrogates(), **kwargs)
        try:
            with nn_parallel.threads(2), ThreadExecutor(2) as executor:
                threaded = engine().run_campaign(
                    workloads, surrogates(), executor=executor, **kwargs
                )
        finally:
            nn_parallel.shutdown_pool()
        assert threaded.candidates_screened == reference.candidates_screened
        for workload in workloads:
            ref, got = reference[workload], threaded[workload]
            np.testing.assert_array_equal(
                got.measured_objectives, ref.measured_objectives
            )
            assert got.selected_indices == ref.selected_indices
            assert got.simulated_configs == ref.simulated_configs
            np.testing.assert_array_equal(got.predicted, ref.predicted)


class TestQualityTrackerScope:
    def test_three_objectives_record_monte_carlo_estimate(self):
        # ROADMAP's >= 3-objective gap: 3+-objective campaigns get a seeded
        # Monte-Carlo hypervolume estimate (with its sample count recorded)
        # instead of the old RuntimeWarning + NaN.
        tracker = QualityTracker(
            ObjectiveSet.from_names(("ipc", "power", "area_mm2"))
        )
        measured_min = np.array([[1.0, 2.0, 3.0], [2.0, 1.0, 4.0]])
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            entry = tracker.record(0, measured_min, simulations_total=2)
        assert np.isfinite(entry.hypervolume) and entry.hypervolume > 0
        assert entry.hypervolume_samples == tracker.mc_samples > 0
        # Deterministic: a fresh tracker reproduces the estimate exactly.
        again = QualityTracker(
            ObjectiveSet.from_names(("ipc", "power", "area_mm2"))
        ).record(0, measured_min, simulations_total=2)
        assert again.hypervolume == entry.hypervolume

    def test_single_objective_warns_and_records_nan(self):
        tracker = QualityTracker(ObjectiveSet.from_names(("ipc",)))
        measured_min = np.array([[1.0], [2.0]])
        with pytest.warns(RuntimeWarning, match="only defined for 2 objectives"):
            entry = tracker.record(0, measured_min, simulations_total=2)
        assert np.isnan(entry.hypervolume)
        assert entry.hypervolume_samples == 0
        # Warn once per tracker, not per round.
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            second = tracker.record(1, measured_min, simulations_total=4)
        assert np.isnan(second.hypervolume)

    def test_hypervolume_finite_for_two_objectives(self):
        tracker = QualityTracker(ObjectiveSet.from_names(("ipc", "power")))
        measured_min = np.array([[-1.0, 2.0], [-2.0, 3.0], [-0.5, 1.0]])
        entry = tracker.record(0, measured_min, simulations_total=3)
        assert np.isfinite(entry.hypervolume) and entry.hypervolume >= 0
        assert entry.hypervolume_samples == 0  # the exact 2-D sweep
