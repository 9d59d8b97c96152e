"""FocusedPool: attention-guided pruned candidate pools (docs/pruning.md).

Two contracts are pinned here, in the repository's usual style:

* **degradation is bitwise** — ``FocusedPool(keep_fraction=1.0)`` consumes
  the engine sampler's stream exactly like ``RandomPool``, so whole
  campaigns (serial, multi-round/refit, and through the parallel runtime
  under a ``ThreadExecutor``) reproduce the unpruned results bit for bit;
* **pruning is deterministic and honest** — focused campaigns respect the
  coarse grids, refocus reproducibly from the surrogate's attention, and
  the checkpoint fingerprint rejects resuming with different focus knobs.
"""

import functools

import numpy as np
import pytest

from repro.baselines.trees import GradientBoostingRegressor
from repro.designspace.sampling import RandomSampler
from repro.dse.engine import (
    CampaignEngine,
    FocusedPool,
    ObjectiveSet,
    RandomPool,
)
from repro.dse.surrogates import StackedPredictorSurrogate, TreeEnsembleSurrogate
from repro.meta.wam import ImportanceProfile
from repro.nn import parallel as nn_parallel
from repro.nn.transformer import TransformerPredictor
from repro.runtime.checkpoint import CheckpointMismatchError
from repro.runtime.executors import ThreadExecutor
from repro.sim.simulator import Simulator

WORKLOADS = ("605.mcf_s", "625.x264_s")
OBJECTIVES = ("ipc", "power")


def _make_engine(table1_space, suite, seed=5):
    simulator = Simulator(
        table1_space, suite, simpoint_phases=1, seed=123, evaluation_cache=True
    )
    return CampaignEngine(
        table1_space, simulator, ObjectiveSet.from_names(OBJECTIVES), seed=seed
    )


def _tree_surrogates(engine, table1_space):
    factory = functools.partial(
        GradientBoostingRegressor, n_estimators=10, max_depth=2, seed=0
    )
    train = RandomSampler(table1_space, seed=9).sample(40)
    features = engine.encoder.encode_batch(train)
    surrogates = {}
    for workload in WORKLOADS:
        batch = engine.simulator.run_batch(train, workload)
        targets = np.stack([batch.objective(n) for n in OBJECTIVES], axis=1)
        surrogates[workload] = TreeEnsembleSurrogate(factory, OBJECTIVES).fit(
            features, targets
        )
    return surrogates


def _profile(table1_space, seed=3):
    scores = np.random.default_rng(seed).random(table1_space.num_parameters)
    return ImportanceProfile(scores=scores)


def _assert_campaigns_identical(first, second):
    assert set(first.per_workload) == set(second.per_workload)
    for workload in first.per_workload:
        a = first.per_workload[workload]
        b = second.per_workload[workload]
        assert a.simulated_configs == b.simulated_configs
        np.testing.assert_array_equal(
            a.measured_objectives, b.measured_objectives
        )
        np.testing.assert_array_equal(a.pareto_indices, b.pareto_indices)
        assert a.selected_indices == b.selected_indices


class TestFocusedPoolValidation:
    def test_knob_validation(self):
        with pytest.raises(ValueError, match="pool size"):
            FocusedPool(0)
        with pytest.raises(ValueError, match="keep_fraction"):
            FocusedPool(10, keep_fraction=0.0)
        with pytest.raises(ValueError, match="keep_fraction"):
            FocusedPool(10, keep_fraction=1.2)
        with pytest.raises(ValueError, match="coarse_levels"):
            FocusedPool(10, coarse_levels=0)
        with pytest.raises(ValueError, match="probe_size"):
            FocusedPool(10, probe_size=0)

    def test_surrogate_independent_by_default(self):
        assert FocusedPool(10).surrogate_dependent is False

    def test_fingerprint_carries_focus_knobs(self):
        a = FocusedPool(10, keep_fraction=0.5).fingerprint()
        b = FocusedPool(10, keep_fraction=0.25).fingerprint()
        assert a != b
        assert "keep_fraction" in a

    def test_missing_importance_source_raises(self, table1_space, suite):
        engine = _make_engine(table1_space, suite)
        pool = FocusedPool(10, keep_fraction=0.5)
        with pytest.raises(ValueError, match="importance source"):
            pool.propose_for(engine, None, None, 0)


class TestDegradesToRandomPoolBitwise:
    def test_shared_pool_campaign(self, table1_space, suite):
        reference_engine = _make_engine(table1_space, suite)
        reference = reference_engine.run_campaign(
            WORKLOADS,
            _tree_surrogates(reference_engine, table1_space),
            generator=RandomPool(100),
            simulation_budget=5,
        )
        focused_engine = _make_engine(table1_space, suite)
        focused = focused_engine.run_campaign(
            WORKLOADS,
            _tree_surrogates(focused_engine, table1_space),
            generator=FocusedPool(100, keep_fraction=1.0),
            simulation_budget=5,
        )
        _assert_campaigns_identical(reference, focused)

    def test_multi_round_refit_campaign(self, table1_space, suite):
        kwargs = dict(
            simulation_budget=4, rounds=2, initial_samples=6, refit=True
        )
        reference_engine = _make_engine(table1_space, suite)
        reference = reference_engine.run_campaign(
            WORKLOADS,
            _tree_surrogates(reference_engine, table1_space),
            generator=RandomPool(60),
            **kwargs,
        )
        focused_engine = _make_engine(table1_space, suite)
        focused = focused_engine.run_campaign(
            WORKLOADS,
            _tree_surrogates(focused_engine, table1_space),
            generator=FocusedPool(60, keep_fraction=1.0),
            **kwargs,
        )
        _assert_campaigns_identical(reference, focused)

    def test_thread_executor_campaign(self, table1_space, suite):
        # The full composition: FocusedPool degradation through the DAG
        # runtime on a ThreadExecutor, with threaded kernels active — the
        # same layering the benchmark and the facade run.
        reference_engine = _make_engine(table1_space, suite)
        reference = reference_engine.run_campaign(
            WORKLOADS,
            _tree_surrogates(reference_engine, table1_space),
            generator=RandomPool(100),
            simulation_budget=5,
        )
        focused_engine = _make_engine(table1_space, suite)
        executor = ThreadExecutor(2)
        try:
            with nn_parallel.threads(2):
                focused = focused_engine.run_campaign(
                    WORKLOADS,
                    _tree_surrogates(focused_engine, table1_space),
                    generator=FocusedPool(100, keep_fraction=1.0),
                    simulation_budget=5,
                    executor=executor,
                )
        finally:
            executor.shutdown()
        _assert_campaigns_identical(reference, focused)


class TestFocusedCampaigns:
    def test_pruned_pool_respects_coarse_grids(self, table1_space, suite):
        from repro.designspace.sampling import FocusedSampler

        engine = _make_engine(table1_space, suite)
        profile = _profile(table1_space)
        pool = FocusedPool(
            80, keep_fraction=0.4, coarse_levels=2, profile=profile
        )
        candidates = pool.propose_for(engine, None, None, 0)
        assert len(candidates) == 80
        grid = FocusedSampler(
            table1_space, profile, keep_fraction=0.4, coarse_levels=2
        )
        indices = np.array([table1_space.to_indices(c) for c in candidates])
        for position, focused in enumerate(grid.focused_mask):
            if not focused:
                allowed = set(grid._levels[position].tolist())
                assert set(indices[:, position]) <= allowed

    def test_pruned_campaign_deterministic_and_matches_runtime(
        self, table1_space, suite
    ):
        profile = _profile(table1_space)

        def run(executor=None):
            engine = _make_engine(table1_space, suite)
            surrogates = _tree_surrogates(engine, table1_space)
            try:
                return engine.run_campaign(
                    WORKLOADS,
                    surrogates,
                    generator=FocusedPool(
                        80, keep_fraction=0.4, coarse_levels=2, profile=profile
                    ),
                    simulation_budget=5,
                    executor=executor,
                )
            finally:
                if executor is not None:
                    executor.shutdown()

        serial = run()
        again = run()
        _assert_campaigns_identical(serial, again)
        threaded = run(ThreadExecutor(2))
        _assert_campaigns_identical(serial, threaded)

    def test_refocus_from_surrogate_attention(self, table1_space, suite):
        engine = _make_engine(table1_space, suite)
        predictors = [
            TransformerPredictor(
                table1_space.num_parameters,
                seed=seed,
                embed_dim=16,
                num_heads=2,
                num_layers=1,
                head_hidden=16,
            )
            for seed in (1, 2)
        ]
        surrogate = StackedPredictorSurrogate(predictors, OBJECTIVES)
        pool = FocusedPool(40, keep_fraction=0.4, probe_size=16)
        first = pool.propose_for(engine, surrogate, None, 0)
        assert len(first) == 40
        # Identical engine state and surrogate: the refocused proposals
        # reproduce exactly (the probe pool comes from a private seed).
        again = FocusedPool(40, keep_fraction=0.4, probe_size=16).propose_for(
            _make_engine(table1_space, suite), surrogate, None, 0
        )
        assert first == again

    def test_checkpoint_rejects_different_focus_knobs(
        self, table1_space, suite, tmp_path
    ):
        profile = _profile(table1_space)
        checkpoint = tmp_path / "campaign.ckpt"

        def run(keep_fraction):
            engine = _make_engine(table1_space, suite)
            return engine.run_campaign(
                WORKLOADS,
                _tree_surrogates(engine, table1_space),
                generator=FocusedPool(
                    60,
                    keep_fraction=keep_fraction,
                    coarse_levels=2,
                    profile=profile,
                ),
                simulation_budget=5,
                checkpoint=checkpoint,
            )

        run(0.4)
        with pytest.raises(CheckpointMismatchError):
            run(0.6)
