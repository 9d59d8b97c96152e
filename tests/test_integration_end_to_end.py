"""End-to-end integration tests across the whole stack.

These mirror (at miniature scale) the experiment loops that the benchmark
harness runs at full scale: simulate -> build datasets -> pre-train ->
adapt -> evaluate, for MetaDSE and the baselines.
"""

import numpy as np
import pytest

from repro.baselines.target_only import random_forest_baseline
from repro.baselines.trendse import TrEnDSE
from repro.core.config import PredictorConfig, default_config
from repro.core.metadse import MetaDSE
from repro.datasets.similarity import similarity_matrix
from repro.datasets.tasks import holdout_task
from repro.meta.maml import MAMLConfig
from repro.metrics.regression import evaluate_predictions, rmse

#: End-to-end pretrain/adapt/compare pipelines are the slowest tests in
#: the suite; the fast tier (`make test-fast`) skips them.
pytestmark = pytest.mark.slow


def integration_config(seed=0):
    config = default_config(seed=seed)
    config.predictor = PredictorConfig(embed_dim=16, num_heads=2, num_layers=1, head_hidden=16)
    config.maml = MAMLConfig(
        inner_lr=0.03, outer_lr=3e-3, inner_steps=3, meta_epochs=3,
        tasks_per_workload=10, meta_batch_size=4, support_size=5, query_size=15,
        seed=seed,
    )
    config.wam.episodes_per_workload = 2
    config.adaptation.steps = 10
    config.adaptation.lr = 0.03
    return config


@pytest.fixture(scope="module")
def metadse(small_dataset, small_split):
    model = MetaDSE(22, config=integration_config())
    model.pretrain(small_dataset, small_split, metric="ipc")
    return model


class TestCrossWorkloadPipeline:
    def test_metadse_beats_pooled_rf_on_unseen_workload(
        self, metadse, small_dataset, small_split
    ):
        """The paper's headline comparison, at miniature scale."""
        errors = {}
        rf = random_forest_baseline(seed=0).pretrain(small_dataset, small_split)
        for target in small_split.test:
            task = holdout_task(small_dataset[target], support_size=10,
                                query_size=80, seed=3)
            metadse.adapt(task.support_x, task.support_y)
            errors.setdefault("MetaDSE", []).append(
                rmse(task.query_y, metadse.predict(task.query_x))
            )
            rf.adapt(task.support_x, task.support_y)
            errors.setdefault("RF", []).append(
                rmse(task.query_y, rf.predict(task.query_x))
            )
        assert np.mean(errors["MetaDSE"]) < np.mean(errors["RF"])

    def test_metadse_competitive_with_trendse(self, metadse, small_dataset, small_split):
        target = "605.mcf_s"
        task = holdout_task(small_dataset[target], support_size=10, query_size=80, seed=5)
        metadse.adapt(task.support_x, task.support_y)
        metadse_error = rmse(task.query_y, metadse.predict(task.query_x))
        trendse = TrEnDSE(seed=0).pretrain(small_dataset, small_split)
        trendse.adapt(task.support_x, task.support_y)
        trendse_error = rmse(task.query_y, trendse.predict(task.query_x))
        # At miniature training scale we only require MetaDSE to be in the
        # same league (the benchmarks check the full ordering at real scale).
        assert metadse_error < 2.0 * trendse_error

    def test_adapted_error_is_small_in_absolute_terms(self, metadse, small_dataset):
        """omnetpp IPC spans roughly 0.08-0.36; the adapted predictor must land
        in that regime rather than near the (much faster) source workloads."""
        task = holdout_task(small_dataset["620.omnetpp_s"], support_size=15,
                            query_size=90, seed=7)
        metadse.adapt(task.support_x, task.support_y)
        report = evaluate_predictions(task.query_y, metadse.predict(task.query_x))
        assert np.isfinite(report.explained_variance)
        assert report.rmse < 0.6

    def test_more_support_data_does_not_hurt(self, metadse, small_dataset):
        """Table III's qualitative trend: more adaptation data, lower error."""
        errors = []
        for support in (5, 40):
            task = holdout_task(small_dataset["605.mcf_s"], support_size=support,
                                query_size=70, seed=11)
            metadse.adapt(task.support_x, task.support_y)
            errors.append(rmse(task.query_y, metadse.predict(task.query_x)))
        assert errors[1] < errors[0] * 1.5


class TestWorkloadSimilarityIntegration:
    def test_similarity_structure_matches_profiles(self, small_dataset):
        """Fig. 2's qualitative claim on the synthetic substrate."""
        matrix = similarity_matrix(small_dataset, metric="ipc")
        memory_pair = matrix.distance("605.mcf_s", "620.omnetpp_s")
        opposite_pair = matrix.distance("605.mcf_s", "638.imagick_s")
        assert memory_pair < opposite_pair
        assert matrix.mean_offdiagonal() > memory_pair


class TestDSEIntegration:
    def test_adapted_predictor_drives_exploration(self, metadse, small_dataset, fast_simulator, table1_space):
        from repro.dse.engine import CampaignEngine, ObjectiveSet
        from repro.dse.surrogates import CallableSurrogate

        task = holdout_task(small_dataset["625.x264_s"], support_size=15,
                            query_size=30, seed=0)
        metadse.adapt(task.support_x, task.support_y)
        engine = CampaignEngine(
            table1_space,
            fast_simulator,
            ObjectiveSet.from_names(("ipc",), {"ipc": True}),
            seed=1,
        )
        # One objective has no hypervolume trade-off: the tracker says so.
        with pytest.warns(RuntimeWarning, match="hypervolume"):
            result = engine.run_campaign(
                ["625.x264_s"],
                {"625.x264_s": CallableSurrogate({"ipc": metadse.predict})},
                candidate_pool=200,
                simulation_budget=8,
            )["625.x264_s"]
        assert result.simulations_used <= 8
        # Budget-matched random search, continuing the engine's sampler.
        random_batch = fast_simulator.run_batch(engine.sampler.sample(8), "625.x264_s")
        # The surrogate-guided search should find a configuration at least as
        # fast as random search most of the time; allow a small slack so the
        # test is not flaky at miniature training scale.
        assert result.measured_objectives[:, 0].max() >= 0.7 * random_batch.ipc.max()
