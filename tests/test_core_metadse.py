"""Tests for the MetaDSE facade and experiment configuration."""

import numpy as np
import pytest

from repro.core.config import (
    MetaDSEConfig,
    PredictorConfig,
    default_config,
    experiment_config,
    is_full_eval,
    paper_scale_config,
)
from repro.core.metadse import MetaDSE
from repro.datasets.tasks import holdout_task
from repro.meta.maml import MAMLConfig
from repro.metrics.regression import rmse
from repro.nn import parallel as nn_parallel
from repro.nn.serialization import load_state, save_model
from repro.nn.transformer import TransformerPredictor


def fast_config(seed=0, **maml_overrides):
    """A deliberately tiny configuration so facade tests stay quick."""
    maml = dict(
        inner_lr=0.05, outer_lr=5e-3, inner_steps=2, meta_epochs=1,
        tasks_per_workload=4, meta_batch_size=2, support_size=5, query_size=10,
        seed=seed,
    )
    maml.update(maml_overrides)
    config = default_config(seed=seed)
    config.predictor = PredictorConfig(embed_dim=8, num_heads=2, num_layers=1, head_hidden=8)
    config.maml = MAMLConfig(**maml)
    config.wam.episodes_per_workload = 1
    config.adaptation.steps = 5
    config.adaptation.lr = 0.05
    return config


@pytest.fixture(scope="module")
def pretrained(small_dataset, small_split):
    model = MetaDSE(22, config=fast_config())
    model.pretrain(small_dataset, small_split, metric="ipc")
    return model


@pytest.fixture(scope="module")
def pretrained64(small_dataset, small_split):
    model = MetaDSE(22, config=fast_config(), precision="float64")
    model.pretrain(small_dataset, small_split, metric="ipc")
    return model


class TestConfigs:
    def test_default_config_is_small(self):
        config = default_config()
        assert config.maml.meta_epochs <= 8
        assert config.use_wam

    def test_paper_scale_config_matches_section_vi(self):
        config = paper_scale_config()
        assert config.maml.meta_epochs == 15
        assert config.maml.tasks_per_workload == 200
        assert config.maml.support_size == 5
        assert config.maml.query_size == 45

    def test_experiment_config_respects_env(self, monkeypatch):
        monkeypatch.delenv("METADSE_FULL_EVAL", raising=False)
        assert not is_full_eval()
        assert experiment_config().maml.meta_epochs == default_config().maml.meta_epochs
        monkeypatch.setenv("METADSE_FULL_EVAL", "1")
        assert is_full_eval()
        assert experiment_config().maml.meta_epochs == 15

    def test_use_wam_flag(self):
        assert default_config(use_wam=False).use_wam is False

    def test_predictor_config_head_divisibility(self):
        with pytest.raises(ValueError):
            PredictorConfig(embed_dim=30, num_heads=4)


class TestMetaDSEFacade:
    def test_name_reflects_wam_usage(self):
        assert MetaDSE(22, config=fast_config()).name == "MetaDSE"
        assert MetaDSE(22, config=fast_config(), use_wam=False).name == "MetaDSE-w/o WAM"
        assert MetaDSE(22, config=fast_config(), name="custom").name == "custom"

    def test_invalid_num_parameters(self):
        with pytest.raises(ValueError):
            MetaDSE(0)

    @pytest.mark.parametrize("threads", (0, -1))
    def test_threads_below_one_rejected(self, threads):
        with pytest.raises(ValueError, match="threads must be >= 1"):
            MetaDSE(22, config=fast_config(), threads=threads)

    def test_pretrain_populates_report_and_mask(self, pretrained, small_split):
        report = pretrained.pretrain_report
        assert report is not None
        assert report.train_workloads == small_split.train
        assert report.metric == "ipc"
        assert pretrained.mask is not None
        assert pretrained.mask.bias.shape == (22, 22)
        assert report.label_std > 0

    def test_adapt_and_predict(self, pretrained, small_dataset):
        task = holdout_task(small_dataset["605.mcf_s"], support_size=10,
                            query_size=40, seed=0)
        pretrained.adapt(task.support_x, task.support_y)
        predictions = pretrained.predict(task.query_x)
        assert predictions.shape == (40,)
        assert np.all(np.isfinite(predictions))
        assert pretrained.last_adaptation is not None
        assert pretrained.last_adaptation.used_mask

    def test_adaptation_improves_over_unadapted(self, small_dataset, small_split):
        config = fast_config(seed=1, meta_epochs=2, tasks_per_workload=8)
        model = MetaDSE(22, config=config)
        model.pretrain(small_dataset, small_split, metric="ipc")
        task = holdout_task(small_dataset["605.mcf_s"], support_size=15,
                            query_size=60, seed=2)
        unadapted_error = rmse(task.query_y, model.predict(task.query_x))
        model.adapt(task.support_x, task.support_y)
        adapted_error = rmse(task.query_y, model.predict(task.query_x))
        assert adapted_error < unadapted_error

    def test_without_wam_no_mask_used(self, small_dataset, small_split):
        model = MetaDSE(22, config=fast_config(), use_wam=False)
        model.pretrain(small_dataset, small_split, metric="ipc")
        assert model.mask is None
        task = holdout_task(small_dataset["620.omnetpp_s"], support_size=8,
                            query_size=20, seed=0)
        model.adapt(task.support_x, task.support_y)
        assert model.last_adaptation.used_mask is False

    def test_power_metric_pipeline(self, small_dataset, small_split):
        model = MetaDSE(22, config=fast_config())
        model.pretrain(small_dataset, small_split, metric="power")
        task = holdout_task(small_dataset["605.mcf_s"], metric="power",
                            support_size=8, query_size=20, seed=0)
        model.adapt(task.support_x, task.support_y)
        predictions = model.predict(task.query_x)
        assert np.all(predictions > 0)  # power predictions stay in physical range

    def test_labels_are_standardised_with_source_statistics(
        self, pretrained, small_dataset, small_split
    ):
        sources = list(small_split.train) + list(small_split.validation)
        labels = np.concatenate([small_dataset[w].metric("ipc") for w in sources])
        report = pretrained.pretrain_report
        assert report.label_mean == float(labels.mean())
        assert report.label_std == float(labels.std())
        # predict() maps the model's standardised output back to IPC units
        # (the shared fixture may carry an adapted predictor by now).
        features = small_dataset["605.mcf_s"].features[:4]
        current = pretrained.adapted if pretrained.adapted is not None else pretrained.meta_model
        raw = current.predict(features).astype(np.float64)
        np.testing.assert_array_equal(
            pretrained.predict(features), raw * report.label_std + report.label_mean
        )

    def test_errors_before_pretrain(self):
        model = MetaDSE(22, config=fast_config())
        with pytest.raises(RuntimeError):
            model.adapt(np.zeros((2, 22)), np.zeros(2))
        with pytest.raises(RuntimeError):
            model.predict(np.zeros((2, 22)))

    def test_save_and_load_pretrained(self, pretrained, small_dataset, tmp_path):
        path = tmp_path / "metadse.npz"
        pretrained.save_pretrained(path)
        clone = MetaDSE(22, config=fast_config())
        clone.load_pretrained(path)
        features = small_dataset["605.mcf_s"].features[:5]
        np.testing.assert_allclose(
            pretrained.meta_model.predict(features),
            clone.meta_model.predict(features),
        )
        assert clone.mask is not None

    @staticmethod
    def _rewrite_recorded_dropout(model, path, dropout):
        """Save *model*, then record a dropout rate in its architecture, as
        checkpoints written before the predictor lost that option do."""
        model.save_pretrained(path)
        _, header = load_state(path)
        header["predictor"]["dropout"] = dropout
        save_model(model.meta_model, path, header=header)

    def test_checkpoint_recording_zero_dropout_loads(
        self, pretrained, small_dataset, tmp_path
    ):
        path = tmp_path / "metadse.npz"
        self._rewrite_recorded_dropout(pretrained, path, 0.0)
        clone = MetaDSE(22, config=fast_config())
        clone.load_pretrained(path)
        features = small_dataset["605.mcf_s"].features[:5]
        np.testing.assert_array_equal(
            clone.meta_model.predict(features), pretrained.meta_model.predict(features)
        )

    def test_checkpoint_recording_a_dropout_rate_is_rejected(self, pretrained, tmp_path):
        path = tmp_path / "metadse.npz"
        self._rewrite_recorded_dropout(pretrained, path, 0.1)
        with pytest.raises(ValueError, match="dropout 0.1"):
            MetaDSE(22, config=fast_config()).load_pretrained(path)

    def test_float32_facade_round_trips_and_adapts(
        self, small_dataset, small_split, tmp_path
    ):
        model = MetaDSE(22, config=fast_config(), precision="float32")
        model.pretrain(small_dataset, small_split, metric="ipc")
        assert model.meta_model.dtype == np.float32
        path = tmp_path / "metadse32.npz"
        model.save_pretrained(path)

        # No explicit precision: the clone adopts the checkpoint's dtype.
        clone = MetaDSE(22, config=fast_config())
        clone.load_pretrained(path)
        assert clone.meta_model.dtype == np.float32

        task = holdout_task(
            small_dataset["605.mcf_s"], support_size=8, query_size=20, seed=1
        )
        clone.adapt(task.support_x, task.support_y)
        assert clone.adapted.dtype == np.float32
        predictions = clone.predict(task.query_x)
        assert predictions.dtype == np.float64  # physical units stay float64
        assert np.all(np.isfinite(predictions))

    def test_default_facade_computes_in_float32(self, pretrained, small_dataset, tmp_path):
        assert pretrained.precision is None
        assert pretrained.meta_model.dtype == np.float32
        task = holdout_task(
            small_dataset["605.mcf_s"], support_size=8, query_size=20, seed=1
        )
        pretrained.adapt(task.support_x, task.support_y)
        assert pretrained.adapted.dtype == np.float32
        assert pretrained.predict(task.query_x).dtype == np.float64
        results = pretrained.adapt_many([(task.support_x, task.support_y)])
        assert results[0].predictor.dtype == np.float32
        path = tmp_path / "default.npz"
        pretrained.save_pretrained(path)
        assert load_state(path)[1]["dtype"] == "float32"

    def test_float64_precision_builds_float64_models(self, pretrained64, small_dataset):
        assert pretrained64.meta_model.dtype == np.float64
        task = holdout_task(
            small_dataset["605.mcf_s"], support_size=8, query_size=20, seed=1
        )
        pretrained64.adapt(task.support_x, task.support_y)
        assert pretrained64.adapted.dtype == np.float64
        results = pretrained64.adapt_many([(task.support_x, task.support_y)])
        assert results[0].predictor.dtype == np.float64

    def test_float64_checkpoint_keeps_its_dtype(self, pretrained64, small_dataset, tmp_path):
        path = tmp_path / "metadse64.npz"
        pretrained64.save_pretrained(path)
        features = small_dataset["605.mcf_s"].features[:5]

        # No explicit precision: the float32 default does not narrow a
        # float64 checkpoint.
        clone = MetaDSE(22, config=fast_config())
        clone.load_pretrained(path)
        assert clone.meta_model.dtype == np.float64
        np.testing.assert_array_equal(
            clone.meta_model.predict(features), pretrained64.meta_model.predict(features)
        )

        # An explicit precision converts it on load.
        narrowed = MetaDSE(22, config=fast_config(), precision="float32")
        narrowed.load_pretrained(path)
        assert narrowed.meta_model.dtype == np.float32

    def test_checkpoint_records_its_architecture(self, small_dataset, small_split, tmp_path):
        # A paper-architecture checkpoint (64 wide, 3 layers) loads into a
        # facade configured with the default 24-wide, 2-layer predictor.
        config = fast_config(tasks_per_workload=2)
        config.predictor = paper_scale_config().predictor
        model = MetaDSE(22, config=config)
        model.pretrain(small_dataset, small_split, metric="ipc")
        path = tmp_path / "paper.npz"
        model.save_pretrained(path)

        clone = MetaDSE(22, config=default_config())
        clone.load_pretrained(path)
        assert clone.config.predictor == paper_scale_config().predictor
        features = small_dataset["605.mcf_s"].features[:8]
        np.testing.assert_array_equal(clone.predict(features), model.predict(features))

    def test_checkpoint_without_architecture_uses_the_configured_one(
        self, pretrained, small_dataset, tmp_path
    ):
        # Checkpoints written before the header recorded the architecture
        # load with the facade's own config.predictor, as they always did.
        path = tmp_path / "meta.npz"
        pretrained.save_pretrained(path)
        _, header = load_state(path)
        del header["predictor"]
        legacy = tmp_path / "legacy.npz"
        save_model(pretrained.meta_model, legacy, header=header)
        assert "predictor" not in load_state(legacy)[1]

        clone = MetaDSE(22, config=fast_config())
        clone.load_pretrained(legacy)
        reference = MetaDSE(22, config=fast_config())
        reference.load_pretrained(path)
        features = small_dataset["605.mcf_s"].features[:8]
        np.testing.assert_array_equal(clone.predict(features), reference.predict(features))

        mismatched = MetaDSE(22, config=default_config())
        mismatched.config.predictor = paper_scale_config().predictor
        with pytest.raises(ValueError, match="state dict mismatch"):
            mismatched.load_pretrained(legacy)

    def test_repeated_adaptation_is_independent(self, pretrained, small_dataset):
        task_a = holdout_task(small_dataset["605.mcf_s"], support_size=8, query_size=20, seed=1)
        task_b = holdout_task(small_dataset["620.omnetpp_s"], support_size=8, query_size=20, seed=1)
        pretrained.adapt(task_a.support_x, task_a.support_y)
        first = pretrained.predict(task_a.query_x)
        pretrained.adapt(task_b.support_x, task_b.support_y)
        pretrained.adapt(task_a.support_x, task_a.support_y)
        second = pretrained.predict(task_a.query_x)
        np.testing.assert_allclose(first, second)


class TestMetaDSEExplore:
    """The cross-workload campaign facade (MetaDSE.explore)."""

    @pytest.fixture(scope="class")
    def pretrained_power(self, small_dataset, small_split):
        model = MetaDSE(22, config=fast_config(seed=3))
        model.pretrain(small_dataset, small_split, metric="power")
        return model

    @staticmethod
    def _supports(small_dataset, workloads, metric, support_size=8):
        supports = {}
        for workload in workloads:
            task = holdout_task(
                small_dataset[workload], metric=metric,
                support_size=support_size, seed=4,
            )
            supports[workload] = (task.support_x, task.support_y)
        return supports

    def test_explore_runs_multi_objective_campaign(
        self, pretrained, pretrained_power, small_dataset, fast_simulator
    ):
        workloads = ("605.mcf_s", "620.omnetpp_s")
        campaign = pretrained.explore(
            fast_simulator,
            self._supports(small_dataset, workloads, "ipc"),
            objectives={"power": pretrained_power},
            objective_supports={
                "power": self._supports(small_dataset, workloads, "power")
            },
            candidate_pool=40,
            simulation_budget=5,
            seed=0,
        )
        assert campaign.objectives.names == ("ipc", "power")
        assert campaign.objectives.maximize == (True, False)
        assert campaign.workloads == list(workloads)
        for result in campaign:
            # Measured objectives are physical units from the simulator.
            assert np.all(result.measured_objectives[:, 0] > 0)   # ipc
            assert np.all(result.measured_objectives[:, 1] > 0)   # watts
            assert len(result.pareto_indices) >= 1
            assert len(result.selected_indices) == 5
            # The stacked surrogate screened the shared pool for all
            # objectives at once and its predictions were recorded.
            assert result.predicted is not None
            assert result.predicted.shape == (40, 2)
            assert np.isfinite(result.hypervolume_history()[-1])

    def test_explore_store_warm_rerun_simulates_nothing(
        self, pretrained, small_dataset, tmp_path
    ):
        from repro.sim.simulator import Simulator

        workloads = ("605.mcf_s",)
        supports = self._supports(small_dataset, workloads, "ipc")
        store_path = str(tmp_path / "m.store")

        def run():
            simulator = Simulator(
                simpoint_phases=1, seed=123, evaluation_cache=True
            )
            with pytest.warns(RuntimeWarning, match="only defined for 2"):
                campaign = pretrained.explore(
                    simulator,
                    supports,
                    candidate_pool=30,
                    simulation_budget=4,
                    store=store_path,
                )
            return simulator, campaign

        cold_simulator, cold = run()
        assert cold_simulator.store is not None  # explore attached it
        assert cold_simulator.evaluation_count > 0

        warm_simulator, warm = run()
        assert warm_simulator.evaluation_count == 0
        assert warm_simulator.store_hit_count > 0
        np.testing.assert_array_equal(
            cold["605.mcf_s"].measured_objectives,
            warm["605.mcf_s"].measured_objectives,
        )

    def test_explore_single_objective_uses_own_metric(
        self, pretrained, small_dataset, fast_simulator
    ):
        workloads = ("605.mcf_s",)
        # A 1-objective campaign has no 2-D hypervolume; the engine's quality
        # tracker says so explicitly instead of silently reporting zero.
        with pytest.warns(RuntimeWarning, match="only defined for 2 objectives"):
            campaign = pretrained.explore(
                fast_simulator,
                self._supports(small_dataset, workloads, "ipc"),
                candidate_pool=30,
                simulation_budget=4,
            )
        assert campaign.objectives.names == ("ipc",)
        assert campaign["605.mcf_s"].measured_objectives.shape[1] == 1

    def test_explore_before_pretrain_raises(self, fast_simulator):
        with pytest.raises(RuntimeError):
            MetaDSE(22, config=fast_config()).explore(
                fast_simulator, {"605.mcf_s": (np.zeros((2, 22)), np.zeros(2))}
            )

    def test_explore_requires_companion_supports(
        self, pretrained, pretrained_power, small_dataset, fast_simulator
    ):
        workloads = ("605.mcf_s",)
        with pytest.raises(ValueError, match="objective_supports"):
            pretrained.explore(
                fast_simulator,
                self._supports(small_dataset, workloads, "ipc"),
                objectives={"power": pretrained_power},
            )

    def test_explore_portfolio_strategy_allocates_arms(
        self, pretrained, pretrained_power, small_dataset, fast_simulator
    ):
        # strategy="portfolio" drives the facade's three-arm UCB bandit
        # (random/focused/nsga2 — docs/portfolio.md); rounds=3 exactly covers
        # the warm-up rotation, so every arm must appear once, in
        # registration order, in the per-round annotations.
        workloads = ("605.mcf_s", "620.omnetpp_s")
        campaign = pretrained.explore(
            fast_simulator,
            self._supports(small_dataset, workloads, "ipc"),
            objectives={"power": pretrained_power},
            objective_supports={
                "power": self._supports(small_dataset, workloads, "power")
            },
            candidate_pool=40,
            simulation_budget=4,
            rounds=3,
            seed=0,
            strategy="portfolio",
        )
        for workload in workloads:
            result = campaign[workload]
            assert len(result.hypervolume_history()) == 3
            arms = [
                entry.extras["arm"]
                for entry in result.rounds
                if entry.round_index >= 0
            ]
            assert arms == ["random", "focused", "nsga2"]
            assert len(result.pareto_indices) >= 1

    def test_explore_rejects_unknown_strategy(
        self, pretrained, small_dataset, fast_simulator
    ):
        workloads = ("605.mcf_s",)
        with pytest.raises(ValueError, match="unknown strategy"):
            pretrained.explore(
                fast_simulator,
                self._supports(small_dataset, workloads, "ipc"),
                strategy="simulated-annealing",
            )

    @pytest.fixture(scope="class")
    def pretrained_power64(self, small_dataset, small_split):
        model = MetaDSE(22, config=fast_config(seed=3), precision="float64")
        model.pretrain(small_dataset, small_split, metric="power")
        return model

    @pytest.mark.parametrize(
        "ipc, power, dtype",
        [
            ("pretrained", "pretrained_power", np.float32),
            ("pretrained64", "pretrained_power64", np.float64),
        ],
    )
    def test_explore_screens_in_the_model_dtype(
        self, request, ipc, power, dtype, small_dataset, fast_simulator, monkeypatch
    ):
        seen = []
        stacked_inference = TransformerPredictor.stacked_inference

        def recording_stacked_inference(predictor, params, inputs):
            seen.append((inputs.dtype, {array.dtype for array in params.values()}))
            return stacked_inference(predictor, params, inputs)

        monkeypatch.setattr(
            TransformerPredictor, "stacked_inference", recording_stacked_inference
        )
        workloads = ("605.mcf_s",)
        campaign = request.getfixturevalue(ipc).explore(
            fast_simulator,
            self._supports(small_dataset, workloads, "ipc"),
            objectives={"power": request.getfixturevalue(power)},
            objective_supports={
                "power": self._supports(small_dataset, workloads, "power")
            },
            candidate_pool=40,
            simulation_budget=5,
            seed=0,
        )
        assert seen and all(
            inputs == dtype and params == {np.dtype(dtype)} for inputs, params in seen
        )
        assert campaign["605.mcf_s"].predicted.dtype == np.float64

    def test_explore_with_threads_matches_default_bitwise(
        self, pretrained, pretrained_power, small_dataset, fast_simulator, monkeypatch
    ):
        # MetaDSE(threads=N) fans the stacked inference pass out over N
        # workers; a 150-candidate pool is three 64-row blocks, so the pool
        # runs them, and the campaign must not change a single bit.
        widths = []
        run_tiles = nn_parallel.run_tiles

        def recording_run_tiles(work, spans):
            widths.append((nn_parallel.num_threads(), len(spans)))
            run_tiles(work, spans)

        monkeypatch.setattr(nn_parallel, "run_tiles", recording_run_tiles)
        workloads = ("605.mcf_s", "620.omnetpp_s")
        kwargs = dict(
            objectives={"power": pretrained_power},
            objective_supports={
                "power": self._supports(small_dataset, workloads, "power")
            },
            candidate_pool=150,
            simulation_budget=5,
            seed=0,
        )
        supports = self._supports(small_dataset, workloads, "ipc")
        serial = pretrained.explore(fast_simulator, supports, **kwargs)
        assert widths and {width for width, _ in widths} == {1}
        widths.clear()
        pretrained.threads = 2
        try:
            threaded = pretrained.explore(fast_simulator, supports, **kwargs)
        finally:
            pretrained.threads = None
            nn_parallel.shutdown_pool()
        assert widths and all(width == 2 and blocks == 3 for width, blocks in widths)
        for workload in workloads:
            np.testing.assert_array_equal(
                serial[workload].measured_objectives,
                threaded[workload].measured_objectives,
            )
            np.testing.assert_array_equal(
                serial[workload].predicted, threaded[workload].predicted
            )
            assert (
                serial[workload].selected_indices
                == threaded[workload].selected_indices
            )
            assert (
                serial[workload].hypervolume_history()
                == threaded[workload].hypervolume_history()
            )

    def test_explore_with_jobs_matches_serial_bitwise(
        self, pretrained, pretrained_power, small_dataset, fast_simulator
    ):
        # The parallel campaign runtime (MetaDSE.explore(jobs=N)) must not
        # change a single bit of the campaign outcome.
        workloads = ("605.mcf_s", "620.omnetpp_s")
        kwargs = dict(
            objectives={"power": pretrained_power},
            objective_supports={
                "power": self._supports(small_dataset, workloads, "power")
            },
            candidate_pool=40,
            simulation_budget=5,
            seed=0,
        )
        supports = self._supports(small_dataset, workloads, "ipc")
        serial = pretrained.explore(fast_simulator, supports, **kwargs)
        parallel = pretrained.explore(fast_simulator, supports, jobs=2, **kwargs)
        for workload in workloads:
            np.testing.assert_array_equal(
                serial[workload].measured_objectives,
                parallel[workload].measured_objectives,
            )
            assert (
                serial[workload].selected_indices
                == parallel[workload].selected_indices
            )
            assert (
                serial[workload].hypervolume_history()
                == parallel[workload].hypervolume_history()
            )
