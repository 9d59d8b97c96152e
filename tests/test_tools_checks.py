"""Tests for the repository tools (tools/check_repo.py, tools/check_docs.py,
tools/bench_pairs.py).

The hygiene classifier is a pure function over path lists, and the
test-only-code rule a pure function over source texts, so both are verified
against planted offenders without touching the real tree; integration tests
also run both against the actual repository, which must be clean (that is
the guard ``make test`` relies on).  The docs
checker's dotted-reference and ``Class.member`` resolvers are checked
against planted names.  The benchmark-pairs verdict is a pure function,
checked on fabricated runs without starting a benchmark.
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


@pytest.fixture(scope="module")
def bench_pairs():
    return _load_tool("bench_pairs")


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


_WIDGET = """
class Widget:
    def used(self):
        return 1

    def spare(self):
        return 2

    def _private(self):
        return 3
"""


def _offending_names(check_repo, sources, allowlist=None):
    """The qualified names (or stale entries) the test-only rule reports."""
    offences = check_repo.find_test_only_definitions(
        sources, {} if allowlist is None else allowlist
    )
    return [offence.split(": ")[1].split(" ")[0] for offence in offences]


class TestTestOnlyDefinitions:
    def test_test_only_method_is_flagged(self, check_repo):
        sources = {
            "src/repro/widgets.py": _WIDGET,
            "examples/use.py": "from repro.widgets import Widget\nWidget().used()\n",
            "tests/test_widgets.py": "from repro.widgets import Widget\nWidget().spare()\n",
        }
        offences = check_repo.find_test_only_definitions(sources, {})
        assert offences == [
            "src/repro/widgets.py:6: Widget.spare has no caller outside tests/"
        ]

    @pytest.mark.parametrize("root", ["perfbench", "examples", "benchmarks", "tools"])
    def test_callers_outside_src_count(self, check_repo, root):
        sources = {
            "src/repro/widgets.py": "def helper():\n    return 1\n",
            f"{root}/driver.py": "import repro.widgets as w\nw.helper()\n",
        }
        assert _offending_names(check_repo, sources) == []

    def test_getattr_string_counts_as_a_reference(self, check_repo):
        sources = {
            "src/repro/widgets.py": _WIDGET,
            "src/repro/driver.py": (
                "from repro.widgets import Widget\n"
                "def drive(w: Widget):\n"
                "    return w.used(), getattr(w, 'spare')()\n"
            ),
            "examples/run.py": "from repro.driver import drive\n",
        }
        assert _offending_names(check_repo, sources) == []

    def test_reexports_and_dunder_all_do_not_count(self, check_repo):
        sources = {
            "src/repro/widgets.py": "def helper():\n    return 1\n",
            "src/repro/__init__.py": (
                "from repro.widgets import helper\n__all__ = ['helper']\n"
            ),
        }
        assert _offending_names(check_repo, sources) == ["helper"]

    def test_self_recursive_function_is_flagged(self, check_repo):
        sources = {
            "src/repro/widgets.py": (
                "def countdown(n):\n    return n if n == 0 else countdown(n - 1)\n"
            ),
        }
        assert _offending_names(check_repo, sources) == ["countdown"]

    def test_allowlisted_names_pass(self, check_repo):
        sources = {
            "src/repro/widgets.py": _WIDGET,
            "src/repro/oracle.py": "def reference():\n    return 0\n",
            "examples/use.py": "from repro.widgets import Widget\nWidget().used()\n",
        }
        allowlist = {
            "repro.widgets.Widget.spare": "a reference oracle",
            "repro.oracle": "a module of reference oracles",
        }
        assert _offending_names(check_repo, sources, allowlist) == []

    def test_stale_allowlist_entry_fails(self, check_repo):
        sources = {"src/repro/widgets.py": "def helper():\n    return 1\n",
                   "examples/use.py": "from repro.widgets import helper\n"}
        offences = check_repo.find_test_only_definitions(
            sources, {"repro.widgets.vanished": "deleted long ago"}
        )
        assert offences == [
            "allowlist entry 'repro.widgets.vanished' names no definition "
            "under src/repro"
        ]

    def test_private_dunder_and_nested_definitions_are_not_checked(self, check_repo):
        sources = {
            "src/repro/widgets.py": (
                "def _helper():\n    return 0\n"
                "class _Hidden:\n    def shown(self):\n        return 1\n"
                "class Widget:\n"
                "    def __init__(self):\n        self.x = 0\n"
                "    def _private(self):\n        return 2\n"
                "    class Inner:\n        def deep(self):\n            return 3\n"
                "def factory():\n"
                "    def closure():\n        return 4\n"
                "    return closure\n"
            ),
            "examples/use.py": "from repro.widgets import Widget, factory\n",
        }
        assert _offending_names(check_repo, sources) == []

    def test_aliased_import_counts_under_the_imported_name(self, check_repo):
        sources = {
            "src/repro/widgets.py": "def helper():\n    return 1\n",
            "tools/caller.py": "from repro.widgets import helper as h\nh()\n",
        }
        assert _offending_names(check_repo, sources) == []

    def test_attribute_access_from_another_module_counts(self, check_repo):
        sources = {
            "src/repro/widgets.py": _WIDGET,
            "src/repro/runner.py": (
                "from repro.widgets import Widget\n"
                "def drive(w: Widget):\n    return w.used() + w.spare()\n"
            ),
            "examples/run.py": "from repro.runner import drive\n",
        }
        assert _offending_names(check_repo, sources) == []

    def test_reexport_outside_an_init_counts(self, check_repo):
        sources = {
            "src/repro/widgets.py": "def helper():\n    return 1\n",
            "src/repro/facade.py": "from repro.widgets import helper\n",
        }
        assert _offending_names(check_repo, sources) == []

    def test_files_outside_the_caller_roots_are_ignored(self, check_repo):
        sources = {
            "src/repro/widgets.py": "def helper():\n    return 1\n",
            "docs/snippet.py": "from repro.widgets import helper\nhelper()\n",
            "scripts/one_off.py": "from repro.widgets import helper\nhelper()\n",
        }
        assert _offending_names(check_repo, sources) == ["helper"]

    def test_definitions_outside_the_package_are_not_checked(self, check_repo):
        sources = {
            "tools/helper_tool.py": "def unused_tool_helper():\n    return 1\n",
            "benchmarks/conftest_like.py": "class Unused:\n    def run(self):\n        return 0\n",
        }
        assert _offending_names(check_repo, sources) == []

    def test_offences_are_reported_in_path_and_line_order(self, check_repo):
        sources = {
            "src/repro/b.py": "def second():\n    return 1\n",
            "src/repro/a.py": "def first():\n    return 1\n\n\ndef also():\n    return 2\n",
        }
        assert check_repo.find_test_only_definitions(sources, {}) == [
            "src/repro/a.py:1: first has no caller outside tests/",
            "src/repro/a.py:5: also has no caller outside tests/",
            "src/repro/b.py:1: second has no caller outside tests/",
        ]

    def test_main_fails_and_lists_a_planted_offender(self, check_repo, monkeypatch, capsys):
        planted = dict(check_repo.caller_sources())
        planted["src/repro/planted.py"] = "def planted_helper():\n    return 1\n"
        monkeypatch.setattr(check_repo, "caller_sources", lambda: planted)
        assert check_repo.main() == 1
        out = capsys.readouterr().out
        assert "1 test-only definition(s)" in out
        assert "src/repro/planted.py:1: planted_helper has no caller outside tests/" in out

    def test_repository_has_no_test_only_definitions(self, check_repo):
        assert check_repo.find_test_only_definitions(check_repo.caller_sources()) == []


def _switches(check_repo, sources, allowlist=None):
    """``qualname(parameter=)`` (or stale entries) the switch rule reports."""
    offences = check_repo.find_test_only_switches(
        sources, {} if allowlist is None else allowlist
    )
    return [offence.split(": ", 1)[1].split(" ")[0] for offence in offences]


_FETCH = """
def fetch(key, *, fresh=False, limit=None, retries=3, mode="fast"):
    return key
"""


class TestTestOnlySwitches:
    def test_switch_only_tests_set_is_flagged(self, check_repo):
        sources = {
            "src/repro/cache.py": _FETCH,
            "examples/use.py": "from repro.cache import fetch\nfetch(1, limit=4)\n",
            "tests/test_cache.py": "from repro.cache import fetch\nfetch(1, fresh=True)\n",
        }
        offences = check_repo.find_test_only_switches(sources, {})
        assert offences == [
            "src/repro/cache.py:2: fetch(fresh=) is set only by tests/"
        ]

    def test_only_none_true_and_false_defaults_are_switches(self, check_repo):
        sources = {"src/repro/cache.py": _FETCH}
        assert _switches(check_repo, sources) == ["fetch(fresh=)", "fetch(limit=)"]

    @pytest.mark.parametrize("root", ["src", "examples", "benchmarks", "perfbench", "tools"])
    def test_a_keyword_from_any_caller_root_counts(self, check_repo, root):
        sources = {
            "src/repro/cache.py": _FETCH,
            f"{root}/driver.py": "def run(f):\n    f(1, fresh=True, limit=2)\n",
        }
        assert _switches(check_repo, sources) == []

    def test_a_keyword_counts_whatever_the_callee(self, check_repo):
        sources = {
            "src/repro/cache.py": _FETCH,
            "tools/driver.py": "dict(fresh=True, limit=None)\n",
        }
        assert _switches(check_repo, sources) == []

    def test_a_positional_call_of_the_same_name_reaches_its_position(self, check_repo):
        source = "def fetch(key, fresh=False, limit=None):\n    return key\n"
        sources = {
            "src/repro/cache.py": source,
            "examples/use.py": "from repro.cache import fetch\nfetch(1, True)\n",
        }
        assert _switches(check_repo, sources) == ["fetch(limit=)"]

    def test_star_arguments_reach_every_switch(self, check_repo):
        source = "def fetch(key, fresh=False, *, limit=None):\n    return key\n"
        for call in ("fetch(*args)", "fetch(1, **options)"):
            sources = {
                "src/repro/cache.py": source,
                "examples/use.py": f"from repro.cache import fetch\n{call}\n",
            }
            assert _switches(check_repo, sources) == [], call

    def test_methods_skip_self_and_init_is_called_by_its_class(self, check_repo):
        source = (
            "class Cache:\n"
            "    def __init__(self, size, bounded=False, spill=None):\n"
            "        self.size = size\n"
            "    def get(self, key, fresh=False, default=None):\n"
            "        return key\n"
            "    @staticmethod\n"
            "    def make(size, bounded=False):\n"
            "        return Cache(size)\n"
        )
        sources = {
            "src/repro/cache.py": source,
            "examples/use.py": (
                "from repro.cache import Cache\n"
                "cache = Cache(8, True)\n"
                "cache.get(1, True)\n"
                "Cache.make(4, False)\n"
            ),
        }
        assert _switches(check_repo, sources) == [
            "Cache.__init__(spill=)",
            "Cache.get(default=)",
        ]

    def test_dataclass_fields_are_switches(self, check_repo):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class Options:\n"
            "    size: int = 4\n"
            "    strict: bool = True\n"
            "    label: str = None\n"
            "class Plain:\n"
            "    verbose: bool = False\n"
        )
        sources = {
            "src/repro/options.py": source,
            "examples/use.py": "from repro.options import Options\nOptions(8, False)\n",
        }
        assert _switches(check_repo, sources) == ["Options(label=)"]

    def test_private_and_nested_definitions_are_not_checked(self, check_repo):
        source = (
            "def _helper(fresh=False):\n    return fresh\n"
            "class _Hidden:\n    def run(self, fresh=False):\n        return fresh\n"
            "class Cache:\n"
            "    def _load(self, fresh=False):\n        return fresh\n"
            "def factory():\n"
            "    def inner(fresh=False):\n        return fresh\n"
            "    return inner\n"
        )
        assert _switches(check_repo, {"src/repro/cache.py": source}) == []

    def test_tests_and_files_outside_the_roots_do_not_count(self, check_repo):
        call = "from repro.cache import fetch\nfetch(1, fresh=True, limit=3)\n"
        sources = {
            "src/repro/cache.py": _FETCH,
            "tests/test_cache.py": call,
            "docs/snippet.py": call,
        }
        assert _switches(check_repo, sources) == ["fetch(fresh=)", "fetch(limit=)"]

    def test_allowlisted_switches_pass_and_stale_entries_fail(self, check_repo):
        sources = {"src/repro/cache.py": _FETCH}
        allowlist = {
            "repro.cache.fetch.fresh": "a test seam",
            "repro.cache.fetch.limit": "a test seam",
            "repro.cache.fetch.vanished": "removed long ago",
        }
        assert check_repo.find_test_only_switches(sources, allowlist) == [
            "switch allowlist entry 'repro.cache.fetch.vanished' names no "
            "switch under src/repro"
        ]

    def test_allowlist_names_exactly_the_two_test_seams(self, check_repo):
        assert set(check_repo.SWITCH_ALLOWLIST) == {
            "repro.cli.main.argv",
            "repro.sim.simulator.Simulator.__init__.suite",
        }
        assert all(reason.strip() for reason in check_repo.SWITCH_ALLOWLIST.values())

    def test_main_fails_and_lists_a_planted_switch(self, check_repo, monkeypatch, capsys):
        planted = dict(check_repo.caller_sources())
        planted["src/repro/planted.py"] = (
            "def planted_helper(key, *, planted_switch=False):\n    return key\n"
        )
        planted["examples/planted_use.py"] = (
            "from repro.planted import planted_helper\nplanted_helper(1)\n"
        )
        monkeypatch.setattr(check_repo, "caller_sources", lambda: planted)
        assert check_repo.main() == 1
        out = capsys.readouterr().out
        assert "1 test-only switch(es)" in out
        assert (
            "src/repro/planted.py:1: planted_helper(planted_switch=) is set only by tests/"
            in out
        )

    def test_repository_has_no_test_only_switches(self, check_repo):
        assert check_repo.find_test_only_switches(check_repo.caller_sources()) == []


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
            "repro.nn.tensor.affine",
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


class TestBareNames:
    _CODE = (
        '"""Module docstring naming only_in_a_docstring."""\n'
        "import os.path as osp\n"
        "from pkg.sub import thing\n"
        "def helper(option=1, *, flag=False):\n"
        '    """Docstrings do not count: ghost_name."""\n'
        "    return obj.attribute, call(keyword=2), 'string_token', b'bytes_token'\n"
        "class Widget:\n"
        "    pass\n"
    )

    def test_every_kind_of_code_identifier_counts(self, check_docs):
        names = check_docs.code_identifiers([self._CODE])
        for name in (
            "os", "path", "osp", "pkg", "sub", "thing", "helper", "option",
            "flag", "obj", "attribute", "call", "keyword", "string_token",
            "bytes_token", "Widget",
        ):
            assert name in names, name
        assert "ghost_name" not in names
        assert "only_in_a_docstring" not in names

    def test_bare_names_cover_calls_and_assignments_but_not_fences(self, check_docs):
        text = (
            "Use `helper`, `helper(option=2)` and `flag=True`; not `x.y`,\n"
            "`make test`, ``double``, or `--option`.\n"
            "```python\nfenced_only = 1\n```\n"
        )
        assert check_docs.bare_names(text) == ["helper", "helper", "flag", "double"]

    def test_stale_names_are_found_once_and_keywords_and_builtins_are_exempt(
        self, check_docs
    ):
        text = "`vanished` `vanished(1)` `helper` `None` `len` `lambda` `match`"
        identifiers = check_docs.code_identifiers([self._CODE])
        assert check_docs.find_stale_bare_names(text, identifiers) == ["vanished"]

    def test_allowlist_entries_need_a_doc_that_uses_them(self, check_docs, tmp_path, monkeypatch):
        monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
        monkeypatch.setattr(
            check_docs, "_tracked_identifiers", lambda: frozenset({"helper"})
        )
        # Tokens built at run time, so this file does not vouch for them.
        prose, unused = "Prose" + "Token", "Unused" + "Token"
        doc = tmp_path / "guide.md"
        doc.write_text(f"`helper` `{prose}` `vanished`\n")
        errors = check_docs.check_bare_names(
            [doc], {prose: "named in prose", unused: "no doc names it"}
        )
        assert errors == [
            "guide.md: stale bare name -> vanished",
            f"tools/check_docs.py: allowlist entry '{unused}' is no longer needed",
        ]

    def test_repository_docs_have_no_stale_bare_names(self, check_docs):
        assert check_docs.check_bare_names(check_docs.MODULE_REF_FILES) == []


_END_TO_END = [
    {"name": "wall_s", "better": "lower", "bound": 0.25},
    {"name": "hypervolume", "better": "higher", "bound": 0.2},
]


def _runs(values, *, failed=0, digest="d0"):
    """One fabricated run per ``(wall_s, hypervolume)`` pair."""
    return [
        {
            "metrics": {"wall_s": wall, "hypervolume": volume},
            "failed": failed,
            "attempted": 2,
            "digests": [digest, digest],
        }
        for wall, volume in values
    ]


class TestBenchPairsVerdict:
    def test_clear_gain_meets_the_claim(self, bench_pairs):
        parent = _runs([(8.0 + 0.1 * i, 1.0) for i in range(10)])
        change = _runs([(5.0 + 0.1 * i, 1.0) for i in range(10)])
        report = bench_pairs.verdict(
            {"parent": parent, "change": change}, _END_TO_END, "wall_s"
        )
        wall = report["metrics"]["wall_s"]
        assert wall["wins"] == 10 and wall["status"] == "ok"
        assert wall["parent"] == pytest.approx((8.225, 8.45, 8.675))
        assert report["metrics"]["hypervolume"]["wins"] == 0  # ties count for neither
        assert report["claim"]["met"] and report["ok"] and report["digests_match"]

    def test_eight_wins_of_ten_do_not_meet_the_claim(self, bench_pairs):
        parent = _runs([(8.0, 1.0)] * 10)
        change = _runs([(5.0, 1.0)] * 8 + [(9.0, 1.0)] * 2)
        report = bench_pairs.verdict(
            {"parent": parent, "change": change}, _END_TO_END, "wall_s"
        )
        assert report["claim"]["wins"] == 8 and not report["claim"]["met"]

    def test_gap_within_the_parent_iqr_does_not_meet_the_claim(self, bench_pairs):
        parent = _runs([(value, 1.0) for value in (6.0, 10.0) * 5])
        change = _runs([(value - 0.5, 1.0) for value in (6.0, 10.0) * 5])
        report = bench_pairs.verdict(
            {"parent": parent, "change": change}, _END_TO_END, "wall_s"
        )
        claim = report["claim"]
        assert claim["wins"] == 10 and claim["median_gain"] < claim["parent_iqr"]
        assert not claim["met"]

    def test_worse_median_beyond_the_bound_is_a_breach(self, bench_pairs):
        parent = _runs([(8.0, 1.0)] * 3)
        change = _runs([(8.0, 0.7)] * 3, digest="d1")
        report = bench_pairs.verdict({"parent": parent, "change": change}, _END_TO_END)
        assert report["metrics"]["hypervolume"]["status"] == "breach"
        assert report["metrics"]["wall_s"]["status"] == "ok"
        assert not report["ok"] and not report["digests_match"]
        assert "claim" not in report

    def test_wide_spread_is_unresolved_not_ok(self, bench_pairs):
        parent = _runs([(value, 1.0) for value in (4.0, 8.0, 12.0)])
        change = _runs([(value, 1.0) for value in (12.0, 8.0, 4.0)])
        report = bench_pairs.verdict({"parent": parent, "change": change}, _END_TO_END)
        assert report["metrics"]["wall_s"]["status"] == "unresolved"
        assert report["ok"]

    def test_failed_repetition_or_missing_run_fails_the_verdict(self, bench_pairs):
        parent = _runs([(8.0, 1.0)] * 2)
        change = _runs([(5.0, 1.0)]) + [
            {"metrics": {}, "failed": 1, "attempted": 1, "digests": []}
        ]
        report = bench_pairs.verdict({"parent": parent, "change": change}, _END_TO_END)
        assert report["failed"] == {"parent": 0, "change": 1}
        assert report["metrics"]["wall_s"]["compared"] == 1
        assert not report["ok"]

    def test_unequal_run_counts_are_rejected(self, bench_pairs):
        with pytest.raises(ValueError):
            bench_pairs.verdict(
                {"parent": _runs([(1.0, 1.0)]), "change": []}, _END_TO_END
            )
