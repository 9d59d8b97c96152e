"""Observability property suite (``docs/observability.md``).

The ``repro.obs`` contract has three load-bearing clauses, pinned here:

* **zero perturbation** — a full portfolio campaign run under the serial,
  thread and process executors produces bitwise-identical results with
  tracing on and off (the headline invariant: collectors only observe);
* **join-consistent traces** — every recorded trace passes
  :func:`~repro.obs.sink.validate_trace` (every span closed, every parent
  resolves), worker-side spans are parented under their DAG job's span,
  and counter totals are identical across executor kinds (durations —
  counters ending ``_s`` — excepted, they measure wall time);
* **exact accounting** — ``Simulator.evaluation_count`` /
  ``store_hit_count`` are equal across executor kinds, cold and warm,
  because the parent walks the cache/store tiers before scattering.

Plus the artifact layer: NaN-safe JSONL round-trips, truncated-tail
tolerance, and the session/capture policy API.
"""

import json
import math
import warnings
from functools import partial

import numpy as np
import pytest

from repro import obs
from repro.baselines.trees import GradientBoostingRegressor
from repro.designspace.sampling import RandomSampler
from repro.dse.engine import CampaignEngine, NSGA2Evolve, ObjectiveSet, RandomPool
from repro.dse.portfolio import StrategyPortfolio
from repro.dse.surrogates import TreeEnsembleSurrogate
from repro.obs.metrics import MetricsRegistry
from repro.obs.sink import decode_record, encode_record
from repro.runtime.executors import ProcessExecutor, SerialExecutor, ThreadExecutor
from repro.sim.simulator import Simulator

WORKLOADS = ("605.mcf_s", "625.x264_s")

CAMPAIGN = dict(
    simulation_budget=4,
    rounds=3,
    initial_samples=5,
    refit=True,
)

EXECUTORS = {
    "serial": partial(SerialExecutor),
    "thread2": partial(ThreadExecutor, 2),
    "process2": partial(ProcessExecutor, 2),
}


def make_engine(store=None) -> CampaignEngine:
    simulator = Simulator(
        simpoint_phases=2, seed=11, evaluation_cache=True, store=store
    )
    return CampaignEngine(
        simulator.space,
        simulator,
        ObjectiveSet.from_names(("ipc", "power")),
        seed=5,
    )


def tree_surrogates():
    factory = partial(GradientBoostingRegressor, n_estimators=6, max_depth=2, seed=0)
    return {
        workload: TreeEnsembleSurrogate(factory, ("ipc", "power"))
        for workload in WORKLOADS
    }


def make_portfolio() -> StrategyPortfolio:
    return StrategyPortfolio(
        {
            "random": RandomPool(20, seed=7),
            "nsga2": NSGA2Evolve(population_size=16, generations=3, seed=7),
        }
    )


def run_campaign(executor_kind, trace=None, store=None):
    """One portfolio campaign; returns ``(result, simulator)``."""
    engine = make_engine(store=store)
    scope = obs.tracing(trace) if trace is not None else _null()
    with scope, EXECUTORS[executor_kind]() as executor:
        campaign = engine.run_campaign(
            WORKLOADS,
            tree_surrogates(),
            generator=make_portfolio(),
            executor=executor,
            **CAMPAIGN,
        )
    return campaign, engine.simulator


def _null():
    from contextlib import nullcontext

    return nullcontext()


def assert_campaigns_bitwise_equal(reference, candidate):
    assert reference.workloads == candidate.workloads
    assert reference.candidates_screened == candidate.candidates_screened
    assert reference.total_simulations == candidate.total_simulations
    for workload in reference.workloads:
        ref, got = reference[workload], candidate[workload]
        np.testing.assert_array_equal(ref.measured_objectives, got.measured_objectives)
        np.testing.assert_array_equal(ref.pareto_indices, got.pareto_indices)
        assert ref.selected_indices == got.selected_indices
        assert ref.simulated_configs == got.simulated_configs
        assert ref.hypervolume_history() == got.hypervolume_history()
        assert [entry.extras for entry in ref.rounds] == [
            entry.extras for entry in got.rounds
        ]


def deterministic_counters(records):
    """The trace's counter totals minus duration accumulators (``*_s``)."""
    totals = {}
    for record in records:
        if record.get("type") == "counters":
            totals = {
                name: value
                for name, value in record["counters"].items()
                if not name.endswith("_s")
            }
    return totals


# -- headline: zero perturbation + join-consistent traces ----------------------------
class TestTracedCampaignEquivalence:
    @pytest.fixture(scope="class")
    def reference(self):
        """The untraced serial campaign every variant must reproduce."""
        campaign, _ = run_campaign("serial")
        return campaign

    @pytest.fixture(scope="class")
    def traced_runs(self, reference, tmp_path_factory):
        """Traced campaign + validated records per executor kind."""
        runs = {}
        for kind in EXECUTORS:
            path = tmp_path_factory.mktemp("obs") / f"{kind}.trace.jsonl"
            campaign, _ = run_campaign(kind, trace=path)
            records = obs.read_trace(path)
            runs[kind] = (campaign, records, obs.validate_trace(records))
        return runs

    @pytest.mark.parametrize("kind", sorted(EXECUTORS))
    def test_tracing_is_bitwise_invisible(self, reference, traced_runs, kind):
        campaign, _, _ = traced_runs[kind]
        assert_campaigns_bitwise_equal(reference, campaign)

    @pytest.mark.parametrize("kind", sorted(EXECUTORS))
    def test_untraced_parallel_matches_serial(self, reference, kind):
        campaign, _ = run_campaign(kind)
        assert_campaigns_bitwise_equal(reference, campaign)

    @pytest.mark.parametrize("kind", sorted(EXECUTORS))
    def test_trace_has_the_campaign_span_taxonomy(self, traced_runs, kind):
        _, _, spans = traced_runs[kind]
        names = {span["name"] for span in spans.values()}
        assert {
            "campaign.round",
            "campaign.measure",
            "campaign.initial",
            "sim.run_sweep",
            "sim.evaluate",
            "dag.job",
        } <= names
        rounds = [
            span["attrs"]["round"]
            for span in spans.values()
            if span["name"] == "campaign.round"
        ]
        assert sorted(rounds) == list(range(CAMPAIGN["rounds"]))

    @pytest.mark.parametrize("kind", sorted(EXECUTORS))
    def test_worker_spans_are_parented_under_dag_jobs(self, traced_runs, kind):
        _, _, spans = traced_runs[kind]
        worker_spans = [span for span in spans.values() if span.get("worker")]
        assert worker_spans, "executor tasks must carry telemetry back"
        # The only scatter points are the DAG's jobs and the pre-DAG
        # initial-sample sweep; every worker span must sit under one.
        seen_joins = set()
        for span in worker_spans:
            ancestry = []
            cursor = span
            while cursor is not None:
                ancestry.append(cursor["name"])
                parent = cursor.get("parent")
                cursor = spans[parent] if parent is not None else None
            joins = {"dag.job", "campaign.initial"} & set(ancestry)
            assert joins, (
                f"worker span {span['name']!r} is not under a join span: "
                f"{ancestry}"
            )
            seen_joins |= joins
        assert "dag.job" in seen_joins, "DAG jobs must carry worker telemetry"

    @pytest.mark.parametrize("kind", sorted(EXECUTORS))
    def test_every_dag_job_span_names_a_job(self, traced_runs, kind):
        _, _, spans = traced_runs[kind]
        jobs = [span for span in spans.values() if span["name"] == "dag.job"]
        assert jobs
        for span in jobs:
            assert span["attrs"].get("job") or span["attrs"].get("inline")

    def test_counter_totals_agree_across_executors(self, traced_runs):
        totals = {
            kind: deterministic_counters(records)
            for kind, (_, records, _) in traced_runs.items()
        }
        assert totals["serial"], "the trace must carry counter totals"
        assert totals["thread2"] == totals["serial"]
        assert totals["process2"] == totals["serial"]
        expected_rounds = CAMPAIGN["rounds"]
        assert totals["serial"]["campaign.rounds"] == expected_rounds
        assert totals["serial"]["bandit.observations"] == (
            expected_rounds * len(WORKLOADS)
        )
        assert totals["serial"]["sim.evaluations"] > 0

    @pytest.mark.parametrize("kind", sorted(EXECUTORS))
    def test_quality_events_cover_every_round(self, traced_runs, kind):
        _, records, _ = traced_runs[kind]
        quality = [
            record
            for record in records
            if record.get("type") == "event"
            and record.get("name") == "campaign.quality"
        ]
        seen = {
            (record["attrs"]["workload"], record["attrs"]["round"])
            for record in quality
        }
        assert seen == {
            (workload, round_index)
            for workload in WORKLOADS
            for round_index in range(CAMPAIGN["rounds"])
        }
        # The bandit's arm annotation rides on the quality stream.
        assert all("arm" in record["attrs"] for record in quality)


@pytest.mark.parametrize(
    "make_generator",
    [
        pytest.param(lambda: RandomPool(20), id="shared-pool"),
        pytest.param(make_portfolio, id="keyed-pools"),
    ],
)
def test_screen_spans_name_their_workload_and_round(tmp_path, make_generator):
    # `repro trace summarize` attributes screening per workload only if
    # every refit/screen/select span says which workload and round it ran.
    path = tmp_path / "campaign.trace.jsonl"
    with obs.tracing(path):
        make_engine().run_campaign(
            WORKLOADS, tree_surrogates(), generator=make_generator(), **CAMPAIGN
        )
    spans = obs.validate_trace(obs.read_trace(path)).values()
    expected = {
        (workload, round_index)
        for workload in WORKLOADS
        for round_index in range(CAMPAIGN["rounds"])
    }
    for name in ("campaign.refit", "campaign.screen", "campaign.select"):
        named = [span["attrs"] for span in spans if span["name"] == name]
        assert all("workload" in attrs and "round" in attrs for attrs in named)
        assert {(attrs["workload"], attrs["round"]) for attrs in named} == expected
        assert len(named) == len(expected)


# -- satellite: exact simulator accounting across executors --------------------------
class TestExactAccounting:
    def test_counts_equal_across_executors_cold_and_warm(self, tmp_path):
        counts = {}
        for kind in EXECUTORS:
            _, simulator = run_campaign(kind, store=tmp_path / f"{kind}.store")
            counts[kind] = (simulator.evaluation_count, simulator.store_hit_count)
        assert counts["thread2"] == counts["serial"]
        assert counts["process2"] == counts["serial"]
        assert counts["serial"][0] > 0
        assert counts["serial"][1] == 0  # cold store: nothing to hit

        # Warm re-runs over the serial run's populated store: every executor
        # serves every configuration from disk, zero simulation, and agrees
        # on the store-hit count to the configuration.
        warm = {}
        for kind in EXECUTORS:
            _, simulator = run_campaign(kind, store=tmp_path / "serial.store")
            warm[kind] = (simulator.evaluation_count, simulator.store_hit_count)
        assert warm["thread2"] == warm["serial"]
        assert warm["process2"] == warm["serial"]
        assert warm["serial"][0] == 0
        assert warm["serial"][1] > 0

    def test_parallel_batch_counts_match_serial(self):
        # run_batch with a pre-warmed cache: the parent prefilter must keep
        # workers away from already-measured configurations.
        def run(executor_factory):
            simulator = Simulator(
                simpoint_phases=2, seed=3, evaluation_cache=True
            )
            configs = RandomSampler(simulator.space, seed=9).sample(12)
            simulator.run_batch(configs[:8], WORKLOADS[0])
            with executor_factory() as executor:
                batch = simulator.run_batch(
                    configs, WORKLOADS[0], executor=executor
                )
            return batch, simulator.evaluation_count

        reference, serial_count = run(partial(SerialExecutor))
        for factory in (partial(ThreadExecutor, 3), partial(ProcessExecutor, 2)):
            batch, count = run(factory)
            assert count == serial_count
            np.testing.assert_array_equal(batch.ipc, reference.ipc)
            np.testing.assert_array_equal(batch.power_w, reference.power_w)


# -- artifact layer ------------------------------------------------------------------
class TestTraceArtifact:
    def test_nan_safe_round_trip(self):
        record = {
            "type": "event",
            "name": "campaign.quality",
            "ts": 12.5,
            "attrs": {
                "hypervolume": float("nan"),
                "bounds": [float("inf"), float("-inf")],
                "pareto": np.int64(3),
                "reward": np.float64(0.25),
                "flag": np.bool_(True),
            },
        }
        line = encode_record(record)
        json.loads(line)  # strict JSON: no bare NaN/Infinity tokens
        restored = decode_record(line)
        assert math.isnan(restored["attrs"]["hypervolume"])
        assert restored["attrs"]["bounds"] == [float("inf"), float("-inf")]
        assert restored["attrs"]["pareto"] == 3
        assert restored["attrs"]["reward"] == 0.25
        assert restored["attrs"]["flag"] is True

    def test_read_trace_tolerates_truncated_tail(self, tmp_path):
        path = tmp_path / "t.trace.jsonl"
        with obs.tracing(path):
            with obs.span("outer"):
                pass
        full = obs.read_trace(path)
        text = path.read_text()
        path.write_text(text[: len(text) - 10])  # tear the end record
        with pytest.warns(RuntimeWarning, match="truncated trace tail"):
            recovered = obs.read_trace(path)
        assert recovered == full[:-1]
        with pytest.raises(ValueError, match="end record"):
            obs.validate_trace(recovered)

    def test_read_trace_rejects_mid_file_corruption(self, tmp_path):
        path = tmp_path / "t.trace.jsonl"
        with obs.tracing(path):
            with obs.span("outer"):
                pass
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:-5]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="corrupt trace line 2"):
            obs.read_trace(path)

    def test_validate_trace_failure_modes(self, tmp_path):
        path = tmp_path / "t.trace.jsonl"
        with obs.tracing(path):
            with obs.span("outer", key="value"):
                obs.event("tick")
        records = obs.read_trace(path)
        obs.validate_trace(records)

        with pytest.raises(ValueError, match="empty"):
            obs.validate_trace([])
        with pytest.raises(ValueError, match="meta"):
            obs.validate_trace(records[1:])
        broken = [dict(record) for record in records]
        broken[0]["version"] = 999
        with pytest.raises(ValueError, match="version"):
            obs.validate_trace(broken)
        orphan = [dict(record) for record in records]
        for record in orphan:
            if record["type"] == "span":
                record["parent"] = 404
        with pytest.raises(ValueError, match="unknown parent"):
            obs.validate_trace(orphan)
        miscounted = [dict(record) for record in records]
        miscounted[-1]["spans"] = 99
        with pytest.raises(ValueError, match="claims 99"):
            obs.validate_trace(miscounted)
        leaky = [dict(record) for record in records]
        leaky[-1]["open"] = 1
        with pytest.raises(ValueError, match="never closed"):
            obs.validate_trace(leaky)


class TestMetricsRegistry:
    def test_add_accumulates_and_counters_sort_by_name(self):
        registry = MetricsRegistry()
        registry.add("sim.fresh", 3)
        registry.add("dag.jobs")
        registry.add("sim.fresh", 2)
        assert list(registry.counters().items()) == [("dag.jobs", 1.0), ("sim.fresh", 5)]
        assert registry.snapshot() == {"counters": registry.counters()}

    def test_merge_folds_worker_deltas_into_the_totals(self):
        registry = MetricsRegistry()
        registry.add("sim.fresh", 4)
        registry.merge({"sim.fresh": 6, "sim.cache_hits": 2})
        registry.merge({})
        assert registry.counters() == {"sim.cache_hits": 2, "sim.fresh": 10}


# -- policy API ----------------------------------------------------------------------
class TestPolicyApi:
    def test_off_by_default_and_noop(self):
        assert not obs.trace_active()
        with obs.span("ignored", key=1) as span_id:
            assert span_id is None
        obs.event("ignored")
        obs.add_counter("ignored", 1)
        assert obs.record_span("ignored", 0.0, 1.0) is None

    def test_nesting_raises_and_state_restores(self, tmp_path):
        with obs.tracing(tmp_path / "a.jsonl"):
            assert obs.trace_active()
            with pytest.raises(RuntimeError, match="already active"):
                with obs.tracing(tmp_path / "b.jsonl"):
                    pass  # pragma: no cover
        assert not obs.trace_active()

    def test_session_cleared_on_exception(self, tmp_path):
        path = tmp_path / "t.trace.jsonl"
        with pytest.raises(KeyError):
            with obs.tracing(path):
                raise KeyError("boom")
        assert not obs.trace_active()
        # The interrupted session still finalises a validatable artifact.
        obs.validate_trace(obs.read_trace(path))

    def test_spans_nest_and_counters_aggregate(self, tmp_path):
        path = tmp_path / "t.trace.jsonl"
        with obs.tracing(path):
            with obs.span("outer") as outer_id:
                obs.add_counter("widgets", 5)
                with obs.span("inner", depth=1) as inner_id:
                    obs.add_counter("widgets", 7)
        spans = obs.validate_trace(obs.read_trace(path))
        assert spans[inner_id]["parent"] == outer_id
        assert spans[outer_id]["parent"] is None
        totals = deterministic_counters(obs.read_trace(path))
        assert totals == {"widgets": 12.0}

    def test_capture_and_splice_reparent_worker_spans(self, tmp_path):
        path = tmp_path / "t.trace.jsonl"

        def task():
            with obs.span("work", shard=0):
                obs.add_counter("done", 1)
                obs.event("beat")
            return 42

        with obs.tracing(path):
            with obs.span("join") as join_id:
                result, telemetry = obs.run_captured(task)
                obs.splice(telemetry)
        assert result == 42
        records = obs.read_trace(path)
        spans = obs.validate_trace(records)
        work = [span for span in spans.values() if span["name"] == "work"]
        assert len(work) == 1 and work[0]["worker"] is True
        assert work[0]["parent"] == join_id
        beats = [r for r in records if r.get("type") == "event" and r["name"] == "beat"]
        assert beats and beats[0]["parent"] == work[0]["id"]
        assert deterministic_counters(records) == {"done": 1.0}

    def test_nested_capture_splice_stays_in_the_buffer(self, tmp_path):
        path = tmp_path / "t.trace.jsonl"

        def inner_task():
            with obs.span("leaf"):
                obs.add_counter("leaves", 1)

        def outer_task():
            with obs.span("branch"):
                _, inner = obs.run_captured(inner_task)
                obs.splice(inner)

        with obs.tracing(path):
            with obs.span("root"):
                _, outer = obs.run_captured(outer_task)
                obs.splice(outer)
        spans = obs.validate_trace(obs.read_trace(path))
        by_name = {span["name"]: span for span in spans.values()}
        assert by_name["leaf"]["parent"] == by_name["branch"]["id"]
        assert by_name["branch"]["parent"] == by_name["root"]["id"]
        assert deterministic_counters(obs.read_trace(path)) == {"leaves": 1.0}

    def test_record_span_backdates_intervals(self, tmp_path):
        path = tmp_path / "t.trace.jsonl"
        with obs.tracing(path):
            with obs.span("scheduler") as parent_id:
                span_id = obs.record_span(
                    "dag.job", 10.0, 11.5, job="measure", queue_s=0.25
                )
        spans = obs.validate_trace(obs.read_trace(path))
        record = spans[span_id]
        assert record["parent"] == parent_id
        assert record["t_start"] == 10.0 and record["t_end"] == 11.5
        assert record["dur"] == 1.5
        assert record["attrs"] == {"job": "measure", "queue_s": 0.25}

    def test_unclosed_worker_spans_are_dropped_not_leaked(self, tmp_path):
        path = tmp_path / "t.trace.jsonl"
        telemetry = obs.WorkerTelemetry()
        telemetry.open_span("died", 1.0, {}, None)
        with obs.tracing(path):
            with obs.span("join"):
                obs.splice(telemetry)
        spans = obs.validate_trace(obs.read_trace(path))
        assert {span["name"] for span in spans.values()} == {"join"}

    def test_summarize_and_timeline(self, tmp_path):
        path = tmp_path / "t.trace.jsonl"
        with obs.tracing(path):
            with obs.span("sim.run_batch", workload="w", configs=3):
                with obs.span("sim.evaluate", workload="w", configs=3):
                    obs.add_counter("sim.evaluations", 6)
        records = obs.read_trace(path)
        summary = obs.summarize_trace(records)
        assert summary["span_count"] == 2
        assert summary["counters"] == {"sim.evaluations": 6.0}
        assert summary["spans"]["sim.run_batch"]["count"] == 1
        assert "w" in summary["workloads"]
        rendered = obs.render_summary(summary)
        assert "sim.run_batch" in rendered and "sim.evaluations" in rendered
        rows = obs.timeline_rows(records)
        assert [row["name"] for row in rows] == ["sim.run_batch", "sim.evaluate"]
        assert rows[1]["depth"] == 1
        assert "sim.evaluate" in obs.render_timeline(rows)


class TestWorkerTelemetryBuffer:
    """The picklable worker-side buffer, as a plain value object."""

    def test_spans_and_events_record_their_parents(self):
        telemetry = obs.WorkerTelemetry()
        assert not telemetry
        root = telemetry.open_span("shard", 1.0, {"rows": 4}, None)
        telemetry.add_event("retry", 1.5, {}, root)
        child = telemetry.open_span("evaluate", 1.6, {}, root)
        telemetry.close_span(child, 1.9)
        telemetry.close_span(root, 2.0)
        assert telemetry
        assert [(e["kind"], e["name"], e["parent"]) for e in telemetry.entries] == [
            ("span", "shard", None),
            ("event", "retry", 0),
            ("span", "evaluate", 0),
        ]
        assert telemetry.entries[root]["t_end"] == 2.0
        assert telemetry.entries[1]["t_start"] == telemetry.entries[1]["t_end"] == 1.5

    def test_counters_alone_make_the_buffer_non_empty_and_accumulate(self):
        telemetry = obs.WorkerTelemetry()
        telemetry.add_counter("sim.fresh", 3)
        telemetry.add_counter("sim.fresh", 2)
        assert telemetry and telemetry.entries == []
        assert telemetry.counters == {"sim.fresh": 5}

    def test_absorb_grafts_roots_under_the_parent_and_remaps_children(self):
        outer = obs.WorkerTelemetry()
        join = outer.open_span("join", 0.0, {}, None)
        outer.add_counter("dag.jobs", 1)
        inner = obs.WorkerTelemetry()
        task = inner.open_span("task", 0.1, {}, None)
        inner.open_span("step", 0.2, {}, task)
        inner.add_counter("dag.jobs", 2)
        outer.absorb(inner, join)
        assert [(e["name"], e["parent"]) for e in outer.entries] == [
            ("join", None),
            ("task", join),
            ("step", 1),
        ]
        assert outer.counters == {"dag.jobs": 3}
        # The absorbed buffer is left as it was.
        assert [e["parent"] for e in inner.entries] == [None, 0]
