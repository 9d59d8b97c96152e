"""Tests for the ``python -m repro`` command-line interface."""

import functools
import json

import numpy as np
import pytest

from repro.baselines.trees import GradientBoostingRegressor, RandomForestRegressor
from repro.cli import build_parser, main
from repro.datasets.io import load_dataset
from repro.dse.acquisition import ExplorationBonusAcquisition, ParetoRankAcquisition
from repro.dse.engine import CampaignEngine, ObjectiveSet
from repro.dse.surrogates import CallableSurrogate, TreeEnsembleSurrogate
from repro.nn.parallel import shutdown_pool
from repro.sim.simulator import Simulator


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    """A small dataset archive generated through the CLI itself."""
    path = tmp_path_factory.mktemp("cli") / "dataset.npz"
    exit_code = main(
        [
            "generate",
            "--output", str(path),
            "--num-points", "40",
            "--phases", "1",
            "--seed", "11",
        ]
    )
    assert exit_code == 0
    return path


@pytest.fixture(scope="module")
def model_path(tmp_path_factory, dataset_path):
    """A MetaDSE model archive pre-trained through the CLI (tiny budget)."""
    path = tmp_path_factory.mktemp("cli-model") / "model.npz"
    exit_code = main(
        [
            "pretrain",
            "--dataset", str(dataset_path),
            "--output", str(path),
            "--epochs", "1",
            "--tasks-per-workload", "2",
            "--seed", "0",
        ]
    )
    assert exit_code == 0
    return path


class TestParser:
    def test_every_command_is_registered(self):
        parser = build_parser()
        subactions = [
            action for action in parser._actions if hasattr(action, "choices") and action.choices
        ]
        commands = set(subactions[0].choices)
        assert commands == {
            "table1", "generate", "similarity", "pretrain", "evaluate",
            "dse", "store", "trace",
        }

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestTable1:
    def test_prints_the_design_space(self, capsys):
        assert main(["table1"]) == 0
        output = capsys.readouterr().out
        assert "22 parameters" in output
        assert "rob_size" in output


class TestGenerate:
    def test_archive_contains_all_workloads_and_labels(self, dataset_path):
        dataset = load_dataset(dataset_path)
        assert len(dataset) == 17
        assert dataset.num_points == 40
        data = dataset["605.mcf_s"]
        assert set(data.labels) == {"ipc", "power"}
        assert np.all(np.isfinite(data.metric("ipc")))

    def test_workload_subset_and_sampler(self, tmp_path):
        path = tmp_path / "subset.npz"
        exit_code = main(
            [
                "generate",
                "--output", str(path),
                "--num-points", "16",
                "--phases", "1",
                "--sampler", "lhs",
                "--workloads", "605.mcf_s", "625.x264_s",
            ]
        )
        assert exit_code == 0
        dataset = load_dataset(path)
        assert sorted(dataset.workloads) == ["605.mcf_s", "625.x264_s"]


class TestSimilarity:
    def test_prints_and_writes_rows(self, dataset_path, tmp_path, capsys):
        output = tmp_path / "similarity.json"
        exit_code = main(
            [
                "similarity",
                "--dataset", str(dataset_path),
                "--metric", "ipc",
                "--output", str(output),
            ]
        )
        assert exit_code == 0
        printed = capsys.readouterr().out
        assert "mean off-diagonal" in printed
        payload = json.loads(output.read_text())
        assert payload["metric"] == "ipc"
        assert len(payload["rows"]) == 17


class TestPretrainAndEvaluate:
    def test_pretrain_writes_a_loadable_model(self, dataset_path, model_path):
        from repro.core.config import default_config
        from repro.core.metadse import MetaDSE

        assert model_path.exists()
        dataset = load_dataset(dataset_path)
        restored = MetaDSE(dataset.space.num_parameters, config=default_config(seed=0))
        restored.load_pretrained(model_path)
        predictions = restored.predict(dataset["605.mcf_s"].features[:4])
        assert predictions.shape == (4,)
        assert np.all(np.isfinite(predictions))

    def test_pretrain_writes_float32_unless_asked_for_float64(
        self, dataset_path, model_path, tmp_path
    ):
        from repro.nn.serialization import load_state

        state, header = load_state(model_path)
        assert header["dtype"] == "float32"
        assert {array.dtype for array in state.values()} == {np.dtype(np.float32)}

        path64 = tmp_path / "model64.npz"
        exit_code = main(
            [
                "pretrain",
                "--dataset", str(dataset_path),
                "--output", str(path64),
                "--epochs", "1",
                "--tasks-per-workload", "2",
                "--precision", "float64",
            ]
        )
        assert exit_code == 0
        state, header = load_state(path64)
        assert header["dtype"] == "float64"
        assert {array.dtype for array in state.values()} == {np.dtype(np.float64)}

    def test_evaluate_reports_metrics(self, dataset_path, model_path, tmp_path, capsys):
        output = tmp_path / "eval.json"
        exit_code = main(
            [
                "evaluate",
                "--dataset", str(dataset_path),
                "--model", str(model_path),
                "--workload", "605.mcf_s",
                "--support-size", "8",
                "--episodes", "2",
                "--output", str(output),
            ]
        )
        assert exit_code == 0
        assert "RMSE" in capsys.readouterr().out
        payload = json.loads(output.read_text())
        assert payload["workload"] == "605.mcf_s"
        assert payload["episodes"] == 2
        assert np.isfinite(payload["rmse"]) and payload["rmse"] >= 0

    def test_evaluate_rejects_unknown_workload(self, dataset_path, model_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "evaluate",
                    "--dataset", str(dataset_path),
                    "--model", str(model_path),
                    "--workload", "not_a_workload",
                ]
            )


def _strict_json(path):
    """Parse *path* as standard JSON: a bare NaN or Infinity token raises."""

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(path.read_text(), parse_constant=reject)


class TestSingleWorkloadDse:
    """``repro dse`` on one workload is the single-workload exploration: with
    ``--dataset`` it screens with GBRT surrogates fitted on the labels, and
    without it the campaign learns from its own simulations."""

    def test_screening_equals_a_one_workload_gbrt_campaign(self, dataset_path, tmp_path):
        output = tmp_path / "screen.json"
        exit_code = main(
            [
                "dse",
                "--dataset", str(dataset_path),
                "--workloads", "605.mcf_s",
                "--budget", "8",
                "--candidate-pool", "80",
                "--seed", "2",
                "--output", str(output),
            ]
        )
        assert exit_code == 0
        # The campaign written out: one GBRT per objective, fitted on the
        # workload's labels, Pareto-rank acquisition over a random pool.
        simulator = Simulator(simpoint_phases=1, seed=2)
        objectives = ObjectiveSet.from_names(("ipc", "power"))
        data = load_dataset(dataset_path)["605.mcf_s"]
        predictors = {}
        for metric in objectives.names:
            model = GradientBoostingRegressor(n_estimators=60, max_depth=3, seed=2)
            model.fit(data.features, data.metric(metric))
            predictors[metric] = model.predict
        campaign = CampaignEngine(
            simulator.space, simulator, objectives, seed=2
        ).run_campaign(
            ["605.mcf_s"],
            {"605.mcf_s": CallableSurrogate(predictors)},
            acquisition=ParetoRankAcquisition(),
            candidate_pool=80,
            simulation_budget=8,
        )
        payload = _strict_json(output)
        assert payload == json.loads(json.dumps(campaign.summary()))
        assert payload["total_simulations"] == 8

    def test_without_dataset_runs_the_active_learning_schedule(self, tmp_path, capsys):
        output = tmp_path / "active.json"
        exit_code = main(
            [
                "dse",
                "--workloads", "605.mcf_s",
                "--budget", "2",
                "--rounds", "4",
                "--candidate-pool", "60",
                "--seed", "3",
                "--output", str(output),
            ]
        )
        assert exit_code == 0
        # The schedule written out: random forests refitted every round on
        # the campaign's own measurements, an exploration bonus, and
        # 2 x budget random initial samples.
        simulator = Simulator(simpoint_phases=1, seed=3)
        objectives = ObjectiveSet.from_names(("ipc", "power"))
        surrogate = TreeEnsembleSurrogate(
            functools.partial(RandomForestRegressor, n_estimators=30, max_depth=10, seed=0),
            objectives.names,
        )
        campaign = CampaignEngine(
            simulator.space, simulator, objectives, seed=3
        ).run_campaign(
            ["605.mcf_s"],
            {"605.mcf_s": surrogate},
            acquisition=ExplorationBonusAcquisition(),
            candidate_pool=60,
            simulation_budget=2,
            rounds=4,
            initial_samples=4,
            refit=True,
        )
        payload = _strict_json(output)
        assert payload == json.loads(json.dumps(campaign.summary()))
        entry = payload["workloads"]["605.mcf_s"]
        assert entry["simulations"] == 12
        assert len(entry["hypervolume_curve"]) == 4
        # The printed front keeps to the objective columns.
        front_lines = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("    ipc=")
        ]
        assert front_lines
        assert all(line.split() == [
            f"ipc={row['ipc']:.3f}", f"power={row['power']:.3f}"
        ] for line, row in zip(front_lines, entry["pareto_front"]))

    def test_model_flags_need_the_dataset(self):
        with pytest.raises(SystemExit, match="--dataset"):
            main(
                [
                    "dse",
                    "--workloads", "605.mcf_s",
                    "--model-ipc", "ipc.npz",
                    "--model-power", "power.npz",
                ]
            )

    def test_single_objective_output_is_strict_json(self, dataset_path, tmp_path):
        # One objective has no hypervolume: the campaign records NaN, which
        # the report writes as null rather than a bare NaN token.
        output = tmp_path / "ipc.json"
        with pytest.warns(RuntimeWarning, match="hypervolume"):
            exit_code = main(
                [
                    "dse",
                    "--dataset", str(dataset_path),
                    "--workloads", "605.mcf_s",
                    "--objectives", "ipc",
                    "--budget", "4",
                    "--candidate-pool", "40",
                    "--output", str(output),
                ]
            )
        assert exit_code == 0
        entry = _strict_json(output)["workloads"]["605.mcf_s"]
        assert entry["hypervolume_curve"] == [None]

    def test_interrupted_report_keeps_the_previous_file(self, tmp_path):
        from repro.cli import _write_json

        output = tmp_path / "report.json"
        _write_json(str(output), {"rows": [1, 2, 3]})
        before = output.read_bytes()
        # An unserialisable value part-way through the payload raises.
        with pytest.raises(TypeError):
            _write_json(str(output), {"a": 1.0, "z": object()})
        assert output.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]


class TestDseCampaign:
    def test_tree_surrogate_campaign(self, dataset_path, tmp_path, capsys):
        output = tmp_path / "campaign.json"
        exit_code = main(
            [
                "dse",
                "--dataset", str(dataset_path),
                "--workloads", "605.mcf_s", "620.omnetpp_s",
                "--budget", "6",
                "--candidate-pool", "40",
                "--phases", "1",
                "--output", str(output),
            ]
        )
        assert exit_code == 0
        printed = capsys.readouterr().out
        assert "campaign over 2 workloads" in printed
        payload = json.loads(output.read_text())
        assert payload["objectives"] == ["ipc", "power"]
        assert set(payload["workloads"]) == {"605.mcf_s", "620.omnetpp_s"}
        space = load_dataset(dataset_path).space
        for entry in payload["workloads"].values():
            assert entry["front_size"] >= 1
            assert entry["pareto_front"]
            assert len(entry["hypervolume_curve"]) == 1
            for row in entry["pareto_front"]:
                assert set(row) == {"ipc", "power", "configuration"}
                assert space.validate(row["configuration"]) == row["configuration"]

    def test_jobs_one_writes_the_default_campaign(self, dataset_path, tmp_path):
        # --jobs only sets the throughput: the default multi-round campaign
        # and an explicit serial one write the same bytes.
        outputs = []
        for extra in ([], ["--jobs", "1"]):
            output = tmp_path / f"campaign{len(outputs)}.json"
            exit_code = main(
                [
                    "dse",
                    "--dataset", str(dataset_path),
                    "--workloads", "605.mcf_s", "620.omnetpp_s",
                    "--budget", "4",
                    "--candidate-pool", "30",
                    "--phases", "1",
                    "--rounds", "3",
                    "--output", str(output),
                    *extra,
                ]
            )
            assert exit_code == 0
            outputs.append(output.read_bytes())
        assert outputs[0] == outputs[1]

    def test_portfolio_campaign_multi_round(self, dataset_path, tmp_path):
        # --portfolio on the tree-surrogate path: a two-arm (random/nsga2)
        # UCB bandit per workload, one hypervolume point per round.
        output = tmp_path / "campaign_portfolio.json"
        exit_code = main(
            [
                "dse",
                "--dataset", str(dataset_path),
                "--workloads", "605.mcf_s", "620.omnetpp_s",
                "--budget", "4",
                "--candidate-pool", "30",
                "--phases", "1",
                "--rounds", "3",
                "--portfolio",
                "--output", str(output),
            ]
        )
        assert exit_code == 0
        payload = json.loads(output.read_text())
        for entry in payload["workloads"].values():
            assert entry["front_size"] >= 1
            assert len(entry["hypervolume_curve"]) == 3

    def test_nsga2_strategy_campaign(self, dataset_path, tmp_path):
        output = tmp_path / "campaign_nsga2.json"
        exit_code = main(
            [
                "dse",
                "--dataset", str(dataset_path),
                "--workloads", "605.mcf_s",
                "--budget", "4",
                "--candidate-pool", "30",
                "--phases", "1",
                "--rounds", "2",
                "--strategy", "nsga2",
                "--output", str(output),
            ]
        )
        assert exit_code == 0
        payload = json.loads(output.read_text())
        entry = payload["workloads"]["605.mcf_s"]
        assert entry["front_size"] >= 1
        assert len(entry["hypervolume_curve"]) == 2

    def test_model_flags_must_come_together(self, dataset_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "dse",
                    "--dataset", str(dataset_path),
                    "--workloads", "605.mcf_s",
                    "--model-ipc", "only_one.npz",
                ]
            )

    def test_threads_needs_the_model_path(self, dataset_path):
        # Tree surrogates never run the stacked inference pass, so the
        # worker count would be a silent no-op there.
        with pytest.raises(SystemExit, match="--threads .*--model-ipc/--model-power"):
            main(
                [
                    "dse",
                    "--dataset", str(dataset_path),
                    "--workloads", "605.mcf_s",
                    "--threads", "2",
                ]
            )

    def test_threads_below_one_exits_with_a_message(self, dataset_path, model_path):
        with pytest.raises(SystemExit, match="--threads must be >= 1, got 0"):
            main(
                [
                    "dse",
                    "--dataset", str(dataset_path),
                    "--workloads", "605.mcf_s",
                    "--model-ipc", str(model_path),
                    "--model-power", str(model_path),
                    "--threads", "0",
                ]
            )

    def test_metadse_model_campaign(self, dataset_path, model_path, tmp_path):
        # The facade path needs both metric models; reuse the tiny IPC model
        # for power (the CLI only cares that both archives load).
        output = tmp_path / "campaign_nn.json"
        exit_code = main(
            [
                "dse",
                "--dataset", str(dataset_path),
                "--workloads", "605.mcf_s",
                "--model-ipc", str(model_path),
                "--model-power", str(model_path),
                "--support-size", "6",
                "--budget", "4",
                "--candidate-pool", "30",
                "--phases", "1",
                "--output", str(output),
            ]
        )
        assert exit_code == 0
        payload = json.loads(output.read_text())
        assert payload["workloads"]["605.mcf_s"]["front_size"] >= 1

    def test_metadse_campaign_is_identical_across_threads(
        self, dataset_path, model_path, tmp_path
    ):
        # --threads fans the stacked inference pass out over a 150-row pool
        # (three blocks); the campaign JSON must not change a byte.
        outputs = []
        try:
            for threads in ("1", "2"):
                output = tmp_path / f"campaign_threads{threads}.json"
                exit_code = main(
                    [
                        "dse",
                        "--dataset", str(dataset_path),
                        "--workloads", "605.mcf_s",
                        "--model-ipc", str(model_path),
                        "--model-power", str(model_path),
                        "--support-size", "6",
                        "--budget", "4",
                        "--candidate-pool", "150",
                        "--phases", "1",
                        "--threads", threads,
                        "--output", str(output),
                    ]
                )
                assert exit_code == 0
                outputs.append(output.read_bytes())
        finally:
            shutdown_pool()
        assert outputs[0] == outputs[1]


class TestStoreCli:
    def _run_campaign(self, dataset_path, store_path, seed="0"):
        return main(
            [
                "dse",
                "--dataset", str(dataset_path),
                "--workloads", "605.mcf_s",
                "--budget", "4",
                "--candidate-pool", "30",
                "--phases", "1",
                "--seed", seed,
                "--store", str(store_path),
            ]
        )

    def test_dse_store_warm_rerun_and_maintenance(
        self, dataset_path, tmp_path, capsys
    ):
        from repro.store import MeasurementStore

        store_path = tmp_path / "m.store"
        assert self._run_campaign(dataset_path, store_path) == 0
        cold_records = len(MeasurementStore.open_existing(store_path))
        assert cold_records > 0
        capsys.readouterr()

        # Warm re-run over the populated store: every measurement is served
        # from disk, so nothing new is flushed.
        assert self._run_campaign(dataset_path, store_path) == 0
        assert len(MeasurementStore.open_existing(store_path)) == cold_records
        capsys.readouterr()

        stats_json = tmp_path / "stats.json"
        assert main(
            ["store", "stats", str(store_path), "--output", str(stats_json)]
        ) == 0
        stats = json.loads(stats_json.read_text())
        assert stats["num_records"] > 0
        assert "num_records:" in capsys.readouterr().out

        assert main(["store", "verify", str(store_path)]) == 0
        assert "OK" in capsys.readouterr().out

        assert main(["store", "compact", str(store_path)]) == 0
        assert "compacted" in capsys.readouterr().out
        assert main(["store", "verify", str(store_path)]) == 0

    def test_store_command_rejects_non_store_paths(self, tmp_path):
        with pytest.raises(SystemExit, match="not a measurement store"):
            main(["store", "stats", str(tmp_path)])


class TestTraceCli:
    def _run_campaign(self, dataset_path, extra):
        return main(
            [
                "dse",
                "--dataset", str(dataset_path),
                "--workloads", "605.mcf_s", "620.omnetpp_s",
                "--budget", "4",
                "--candidate-pool", "30",
                "--phases", "1",
                "--rounds", "2",
                *extra,
            ]
        )

    def test_dse_trace_records_a_valid_artifact(
        self, dataset_path, tmp_path, capsys
    ):
        from repro import obs

        trace_path = tmp_path / "campaign.trace.jsonl"
        plain = tmp_path / "plain.json"
        traced = tmp_path / "traced.json"
        assert self._run_campaign(dataset_path, ["--output", str(plain)]) == 0
        assert self._run_campaign(
            dataset_path, ["--output", str(traced), "--trace", str(trace_path)]
        ) == 0
        # Zero perturbation: the traced campaign's JSON summary is identical.
        assert json.loads(traced.read_text()) == json.loads(plain.read_text())

        records = obs.read_trace(trace_path)
        spans = obs.validate_trace(records)
        names = {span["name"] for span in spans.values()}
        assert {"campaign.round", "campaign.measure", "sim.run_sweep"} <= names
        capsys.readouterr()

        summary_json = tmp_path / "summary.json"
        assert main(
            [
                "trace", "summarize", str(trace_path),
                "--output", str(summary_json),
            ]
        ) == 0
        printed = capsys.readouterr().out
        assert "campaign.round" in printed
        summary = json.loads(summary_json.read_text())
        assert summary["span_count"] == len(spans)
        # One campaign round covers every workload: 2 rounds.
        assert summary["counters"]["campaign.rounds"] == 2.0

        assert main(["trace", "timeline", str(trace_path)]) == 0
        assert "campaign.measure" in capsys.readouterr().out

    def test_metadse_dse_trace(self, dataset_path, model_path, tmp_path):
        from repro import obs

        trace_path = tmp_path / "nn.trace.jsonl"
        exit_code = main(
            [
                "dse",
                "--dataset", str(dataset_path),
                "--workloads", "605.mcf_s",
                "--model-ipc", str(model_path),
                "--model-power", str(model_path),
                "--support-size", "6",
                "--budget", "4",
                "--candidate-pool", "30",
                "--phases", "1",
                "--trace", str(trace_path),
            ]
        )
        assert exit_code == 0
        spans = obs.validate_trace(obs.read_trace(trace_path))
        names = {span["name"] for span in spans.values()}
        assert {"explore", "explore.adapt", "sim.run_sweep"} <= names

    def test_trace_command_rejects_missing_file(self, tmp_path):
        with pytest.raises(SystemExit, match="trace"):
            main(["trace", "summarize", str(tmp_path / "nope.jsonl")])
