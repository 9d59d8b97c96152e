"""Tests for the repository checkers (tools/check_repo.py, tools/check_docs.py).

The hygiene classifier is a pure function over path lists, so the rules are
verified against planted offenders without touching the real git index;
one integration test also runs the checker against the actual repository,
which must be clean (that is the guard ``make test`` relies on).  The docs
checker's dotted-reference and ``Class.member`` resolvers are checked
against planted names.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parent.parent / "tools"
_TOOL = _TOOLS / "check_repo.py"


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def check_repo():
    return _load_tool("check_repo")


@pytest.fixture(scope="module")
def check_docs():
    return _load_tool("check_docs")


class TestIsArtifact:
    @pytest.mark.parametrize(
        "path",
        [
            "src/repro/__pycache__/engine.cpython-311.pyc",
            "src/repro/nn/__pycache__/tensor.cpython-311.pyc",
            "tests/__pycache__/conftest.cpython-311.pyc",
            "module.pyc",
            "module.pyo",
            "extension.so",
            "extension.pyd",
            "lib/native.dylib",
            "build/objects/kernel.o",
            "vendored/lib.a",
            "dist/repro-0.1-py3-none-any.whl",
            "src/repro.egg-info/PKG-INFO",
            ".eggs/setuptools.egg",
            ".pytest_cache/v/cache/lastfailed",
            # Measurement-store artifacts (docs/store.md): segment logs and
            # anything inside a *.store directory.
            "measurements.seg",
            "experiments/run1.store/manifest.json",
            "experiments/run1.store/seg-00000001.seg",
            "experiments/run1.store/.lock",
            # Trace telemetry (docs/observability.md): per-run artefacts,
            # never committed.
            "campaign.trace.jsonl",
            "experiments/sweeps/run7.trace.jsonl",
        ],
    )
    def test_flags_artifacts(self, check_repo, path):
        assert check_repo.is_artifact(path)

    @pytest.mark.parametrize(
        "path",
        [
            "src/repro/dse/engine.py",
            "docs/pruning.md",
            "benchmarks/results/pruning_speedup.json",
            "Makefile",
            ".gitignore",
            "tools/check_repo.py",
            # Names that merely contain artifact substrings are fine.
            "src/repro/pycache_notes.md",
            "docs/sonnets.md",
            "src/repro/store.py",
            "docs/store.md",
            "benchmarks/results/store_speedup.json",
            # Plain .jsonl (no .trace.) is data, not telemetry; obs source
            # and results stay committed.
            "datasets/episodes.jsonl",
            "src/repro/obs/sink.py",
            "docs/observability.md",
            "benchmarks/results/trace_overhead.json",
        ],
    )
    def test_passes_source_files(self, check_repo, path):
        assert not check_repo.is_artifact(path)


class TestFindTrackedArtifacts:
    def test_planted_pyc_is_caught(self, check_repo):
        paths = [
            "src/repro/cli.py",
            "src/repro/__pycache__/planted.cpython-311.pyc",
            "README.md",
        ]
        assert check_repo.find_tracked_artifacts(paths) == [
            "src/repro/__pycache__/planted.cpython-311.pyc"
        ]

    def test_clean_list_passes(self, check_repo):
        paths = ["src/repro/cli.py", "tests/test_dse_pruning.py", "README.md"]
        assert check_repo.find_tracked_artifacts(paths) == []

    def test_preserves_order(self, check_repo):
        paths = ["b.pyc", "ok.py", "a.pyc"]
        assert check_repo.find_tracked_artifacts(paths) == ["b.pyc", "a.pyc"]

    def test_planted_trace_is_caught(self, check_repo):
        paths = [
            "src/repro/obs/spans.py",
            "benchmarks/results/trace_overhead.json",
            "runs/campaign.trace.jsonl",
        ]
        assert check_repo.find_tracked_artifacts(paths) == [
            "runs/campaign.trace.jsonl"
        ]


class TestMain:
    def test_repository_is_clean(self, check_repo):
        # The real index must pass — this is the invariant the PR restores
        # after the accidentally committed bytecode of PR 6.
        assert check_repo.main() == 0

    def test_cli_exit_status(self):
        result = subprocess.run(
            [sys.executable, str(_TOOL)], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "OK" in result.stdout


class TestDottedReferences:
    @pytest.mark.parametrize(
        "name",
        [
            "repro.dse",
            "repro.dse.engine",
            "repro.dse.engine.CampaignEngine",
            "repro.dse.engine.CampaignEngine.run_campaign",
            "repro.nn.tensor.stack",
            "repro.dse.RandomPool",
        ],
    )
    def test_existing_names_resolve(self, check_docs, name):
        assert check_docs._dotted_resolves(name)

    @pytest.mark.parametrize(
        "name",
        [
            # A deleted method under a live class: only the tail is stale.
            "repro.dse.engine.CampaignEngine.run",
            "repro.dse.engine.vanished_function",
            "repro.dse.vanished_module",
            "repro.vanished_package.module",
        ],
    )
    def test_planted_stale_names_are_caught(self, check_docs, name):
        assert not check_docs._dotted_resolves(name)


class TestMemberReferences:
    @pytest.mark.parametrize(
        "reference",
        [
            "Simulator.run_batch",
            # An instance attribute, assigned as ``self.evaluation_count``.
            "Simulator.evaluation_count",
            # A dataclass field.
            "RoundRecord.arms",
            # Inherited through a base class defined in the package.
            "ThreadExecutor.broadcast",
            # A class outside the package is not checked.
            "Path.vanished",
        ],
    )
    def test_live_references_resolve(self, check_docs, reference):
        assert check_docs._member_resolves(reference)

    def test_planted_stale_member_is_caught(self, check_docs):
        assert not check_docs._member_resolves("Simulator.vanished")
