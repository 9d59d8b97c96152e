"""Self-tests of the repository benchmark, at tiny sizes (seconds).

    python -m pytest perfbench -q
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import ledger  # noqa: E402
import rep  # noqa: E402
import run  # noqa: E402

#: (workload, trace) runs of the runner; together they print every metric.
#: explore-wide runs in-process in the digest test.
RUNS = (("explore-nsga2", 0), ("pipeline", 1))

_SKIPPED_DIRS = {".git", ".pytest_cache", ".hypothesis"}


def _tree() -> dict[str, tuple[int, int]]:
    files = {}
    for path in ROOT.rglob("*"):
        relative = path.relative_to(ROOT)
        if relative.parts[0] in _SKIPPED_DIRS or not path.is_file():
            continue
        stat = path.stat()
        files[relative.as_posix()] = (stat.st_mtime_ns, stat.st_size)
    return files


@pytest.fixture(scope="module")
def runner():
    """Run the runner from the checkout root; snapshot the tree around it."""
    before = _tree()
    results = {}
    for workload, trace in RUNS:
        process = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
             "--seconds", "1", "--trace", str(trace), "--tiny"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=170,
        )
        assert process.returncode == 0, process.stderr
        results[workload, trace] = json.loads(process.stdout.strip().splitlines()[-1])
    return results, before, _tree()


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def test_every_named_metric_is_printed_with_its_unit(runner):
    results, _, _ = runner
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == run.PER_LAYER
    for (workload, trace), result in results.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, (workload, result)
        assert result["failed"] == 0 and result["attempted"] >= 1
        expected = run.PER_LAYER if trace else run.END_TO_END
        printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert printed == expected
        for metric in result["metrics"].values():
            assert isinstance(metric["value"], (int, float))


def test_ledger_self_times_sum_to_the_traced_wall(runner):
    results, _, _ = runner
    for (workload, trace), result in results.items():
        if not trace:
            continue
        values = {name: metric["value"] for name, metric in result["metrics"].items()}
        own = sum(values[f"self.{layer}_s"] for layer in ledger.LAYERS)
        assert own + values["self.unattributed_s"] == pytest.approx(
            values["traced.wall_s"], rel=1e-9
        )
        assert values["dse.predict_calls"] > 0 and values["sim.fresh"] > 0
    pipeline = {name: m["value"] for name, m in results["pipeline", 1]["metrics"].items()}
    assert pipeline["meta.steps"] > 0 and pipeline["nn.backward_calls"] > 0


def test_runner_writes_nothing_under_results_and_leaves_no_artifacts(runner):
    _, before, after = runner
    changed = sorted(
        path for path in after if path not in before or after[path] != before[path]
    )
    assert not [path for path in changed if path.startswith("benchmarks/results/")]
    assert not [path for path in before if path not in after]
    spec = importlib.util.spec_from_file_location("check_repo", ROOT / "tools" / "check_repo.py")
    check_repo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check_repo)
    # Bytecode caches are the only thing a run may leave, and .gitignore
    # keeps them out of the index; anything else would be a tracked artefact
    # waiting to happen.
    left = [path for path in changed if "__pycache__" not in Path(path).parts]
    assert left == []
    assert check_repo.find_tracked_artifacts(left) == []
    assert "__pycache__/" in (ROOT / ".gitignore").read_text().split()


def _record(bench: rep.Bench) -> dict:
    evaluations = bench.simulator.evaluation_count
    campaign = bench.timed()
    fresh = (bench.simulator.evaluation_count - evaluations) / rep.PHASES
    quality, errors = bench.outputs(campaign, fresh)
    assert errors == []
    return {"kind": "untraced", "ok": True, **quality}


def test_digest_check_rejects_a_planted_perturbation():
    reference = _record(rep.Bench("explore-wide", 5, rep.TINY))
    again = _record(rep.Bench("explore-wide", 5, rep.TINY))
    planted = rep.Bench("explore-wide", 5, rep.TINY)
    planted.seed = 6  # after set-up: only the campaign seed differs
    perturbed = _record(planted)
    reps = [reference, again, perturbed]
    messages = run.check_digests(reps)
    assert len(messages) == 1 and "repetition 2" in messages[0]
    assert [r["ok"] for r in reps] == [True, True, False]


def _span(recorder: ledger.Recorder, name: str, start: float, end: float) -> None:
    recorder.spans.append([name, start, end, None])


def test_self_time_arithmetic_on_a_synthetic_span_tree():
    recorder = ledger.Recorder()
    _span(recorder, ledger.ROOT, 0.0, 10.0)
    _span(recorder, "core.explore", 1.0, 9.0)
    _span(recorder, "dse.screen", 2.0, 5.0)
    _span(recorder, "dse.predict", 2.5, 4.5)
    _span(recorder, "meta.adapt", 7.0, 8.0)
    _span(recorder, "runtime.campaign", 1.5, 6.5)
    trace = [
        # repro.obs records: a campaign phase around the screen, a sim call.
        {"type": "span", "name": "campaign.screen", "t_start": 1.8, "t_end": 5.5},
        {"type": "span", "name": "sim.run_sweep", "t_start": 6.0, "t_end": 6.4},
        {"type": "counters", "counters": {"sim.fresh": 8, "sim.configs": 10,
                                          "sim.cache_hits": 2, "dag.jobs": 3}},
    ]
    metrics = ledger.layer_metrics(recorder, trace)
    expected = {
        "self.unattributed_s": 2.0,  # 10 - core.explore's 8
        "self.core_s": 2.0,  # 8 - runtime.campaign 5 - meta.adapt 1
        "self.runtime_s": 1.6,  # campaign 5 - phase 3.7 - sim 0.4, phase 3.7 - 3
        "self.dse_s": 3.0,  # screen 3 - predict 2, predict 2
        "self.sim_s": 0.4,
        "self.meta_s": 1.0,
    }
    for name, value in expected.items():
        assert metrics[name] == pytest.approx(value), name
    total = sum(metrics[f"self.{layer}_s"] for layer in ledger.LAYERS)
    assert total + metrics["self.unattributed_s"] == pytest.approx(10.0)
    assert metrics["traced.wall_s"] == 10.0
    assert metrics["dse.screen_s"] == pytest.approx(3.0)
    assert metrics["dse.predict_calls"] == 1
    assert metrics["sim.busy_s"] == pytest.approx(0.4)
    assert metrics["sim.cache_hit_ratio"] == pytest.approx(0.2)
    # Campaign 5 s, of which the screen phase covers 1.8..5.5 and sim is no phase.
    assert metrics["runtime.overhead_s"] == pytest.approx(5.0 - 3.7)
    assert ledger.union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
