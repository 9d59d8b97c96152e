#!/usr/bin/env python
"""Repository hygiene checker (the ``make repo-check`` target).

Two checks, each a pure function over its inputs so the unit tests
(``tests/test_tools_checks.py``) verify the rules against planted offenders
without touching the real tree:

1. **Tracked artifacts** (:func:`find_tracked_artifacts`, over a path
   list).  PR 6 accidentally committed 88 ``src/**/__pycache__/*.pyc``
   files — bytecode is machine-local noise that bloats diffs and goes stale
   the moment the source changes.  ``.gitignore`` keeps *new* artifacts out
   of ``git add``; this check fails whenever any compiled/bytecode/build
   artifact is already **git-tracked**.
2. **Test-only code** (:func:`find_test_only_definitions`, over a mapping
   of repo-relative paths to source text).  Every public (no leading
   underscore) module-level function or class under ``src/repro``, and
   every public method of a module-level class, needs a reference from a
   ``.py`` file under ``src/``, ``examples/``, ``benchmarks/``,
   ``perfbench/`` or ``tools/``: an ``ast.Name`` id, an ``ast.Attribute``
   attr, a ``from … import`` alias or a string constant equal to its name
   (so ``getattr(obj, "name")`` counts).  Files under ``tests/``, the
   definition's own body, ``from … import`` re-exports in ``__init__.py``
   and ``__all__`` strings do not count.  Matching by name is coarse on
   purpose and errs toward keeping code: a method shares its name with
   every call of that name, so the rule can miss dead code, but a name it
   flags has no caller outside ``tests/`` unless that caller builds the
   name at run time.  :data:`ALLOWLIST` exempts the reference oracles by
   qualified name, each with its reason; an entry that names no definition
   fails the check, so the list cannot go stale.

Exits non-zero listing every offence; wired as a prerequisite of
``make test`` next to ``tools/check_docs.py``, and
``tests/test_tools_checks.py`` runs both checks on the real tree.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from collections import Counter
from collections.abc import Iterator, Mapping
from pathlib import Path, PurePosixPath

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Path components that mark everything beneath them as an artifact.
ARTIFACT_DIRS = frozenset({"__pycache__", ".eggs", ".pytest_cache"})

#: File suffixes of compiled / bytecode / native-build outputs, plus
#: measurement-store artifacts (``.seg`` segment logs are machine-local
#: measurement caches — see docs/store.md — and must never be committed)
#: and trace files (``.trace.jsonl`` is per-run telemetry — see
#: docs/observability.md — not a committed artefact).
ARTIFACT_SUFFIXES = (
    ".pyc",
    ".pyo",
    ".pyd",
    ".so",
    ".dylib",
    ".o",
    ".a",
    ".whl",
    ".seg",
    ".trace.jsonl",
)

#: Directory-name suffixes of packaging / measurement-store output (any
#: path component): everything inside a ``*.store`` directory — manifest,
#: segments, lock file — is a local cache, like ``*.egg-info`` contents.
ARTIFACT_DIR_SUFFIXES = (".egg-info", ".store")


def is_artifact(path: str) -> bool:
    """True when *path* (repo-relative, posix) is a build/bytecode artifact."""
    pure = PurePosixPath(path)
    if any(part in ARTIFACT_DIRS for part in pure.parts):
        return True
    if any(part.endswith(ARTIFACT_DIR_SUFFIXES) for part in pure.parts):
        return True
    return pure.name.endswith(ARTIFACT_SUFFIXES)


def find_tracked_artifacts(paths: list[str]) -> list[str]:
    """The subset of *paths* that must never be git-tracked, in order."""
    return [path for path in paths if is_artifact(path)]


def tracked_files() -> list[str]:
    """Every git-tracked path (staged additions included) as posix strings."""
    output = subprocess.run(
        ["git", "ls-files", "-z"],
        cwd=REPO_ROOT,
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    return [path for path in output.split("\0") if path]


#: Top-level directories whose ``.py`` files count as callers.
CALLER_ROOTS = ("src", "examples", "benchmarks", "perfbench", "tools")

#: Directory whose public definitions need a caller outside ``tests/``.
DEFINITION_ROOT = "src/repro"

#: Definitions exempt from the test-only rule, by dotted module name (the
#: whole module) or ``module.Class.member`` / ``module.function``, mapped to
#: the reason.  Reference oracles check an independent spec: only the
#: equivalence tests that pin the fast path to them may call them.
ALLOWLIST: dict[str, str] = {
    "repro.sim.simulator.Simulator.run_scalar": (
        "frozen scalar simulator reference; the batch-equivalence suite pins "
        "run_sweep to it"
    ),
    "repro.meta.maml.MAMLTrainer.meta_step_scalar": (
        "frozen per-task meta-step reference; the meta-batch equivalence "
        "suite pins meta_step to it"
    ),
    "repro.meta.maml.MAMLTrainer.adapt_scalar": (
        "frozen per-task adaptation reference, paired with meta_step_scalar"
    ),
    "repro.dse.reference": (
        "frozen pre-engine exploration loops; the engine-equivalence suite "
        "pins one-workload campaigns to them"
    ),
    "repro.nn.gradcheck": (
        "finite-difference oracle that the kernel gradient tests check "
        "every backward against"
    ),
    "repro.dse.surrogates.CallableSurrogate": (
        "the seam through which the engine-vs-reference, checkpoint and "
        "runtime suites feed plain callables to the engine"
    ),
}

_DEFINITION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _module_name(path: str) -> str:
    """``src/repro/dse/engine.py`` -> ``repro.dse.engine``."""
    parts = list(PurePosixPath(path).with_suffix("").parts[1:])
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _definitions(tree: ast.Module) -> Iterator[tuple[str, ast.AST]]:
    """``(qualname, node)`` of every public definition the rule covers."""
    for node in tree.body:
        if not isinstance(node, _DEFINITION_NODES) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(
                    member, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member


def _is_dunder_all(node: ast.AST) -> bool:
    targets = []
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _reference_names(node: ast.AST, *, reexports: bool) -> Counter:
    """Names *node* references; ``reexports`` drops ``from … import`` aliases."""
    names: Counter = Counter()
    stack = [node]
    while stack:
        current = stack.pop()
        if _is_dunder_all(current) or (reexports and isinstance(current, ast.ImportFrom)):
            continue
        if isinstance(current, ast.Name):
            names[current.id] += 1
        elif isinstance(current, ast.Attribute):
            names[current.attr] += 1
        elif isinstance(current, ast.ImportFrom):
            names.update(alias.name for alias in current.names)
        elif isinstance(current, ast.Constant) and isinstance(current.value, str):
            names[current.value] += 1
        stack.extend(ast.iter_child_nodes(current))
    return names


def find_test_only_definitions(
    sources: Mapping[str, str], allowlist: Mapping[str, str] = ALLOWLIST
) -> list[str]:
    """One message per public definition that only ``tests/`` references.

    *sources* maps repo-relative posix paths to source text.  Definitions
    are read from the paths under :data:`DEFINITION_ROOT`, references from
    the paths under :data:`CALLER_ROOTS` (anything else, ``tests/`` among
    it, is ignored).  A stale *allowlist* entry is an offence too.
    """
    trees = {
        path: ast.parse(text, filename=path)
        for path, text in sources.items()
        if PurePosixPath(path).parts[0] in CALLER_ROOTS
    }
    references: Counter = Counter()
    for path, tree in trees.items():
        references.update(
            _reference_names(tree, reexports=PurePosixPath(path).name == "__init__.py")
        )

    offences = []
    used_entries = set()
    for path, tree in sorted(trees.items()):
        if not path.startswith(DEFINITION_ROOT + "/"):
            continue
        module = _module_name(path)
        for qualname, node in _definitions(tree):
            exempt = {module, f"{module}.{qualname}"} & allowlist.keys()
            if exempt:
                used_entries |= exempt
                continue
            name = qualname.rsplit(".", 1)[-1]
            own = _reference_names(node, reexports=False)[name]
            if references[name] - own <= 0:
                offences.append(
                    f"{path}:{node.lineno}: {qualname} has no caller outside tests/"
                )
    offences.extend(
        f"allowlist entry {entry!r} names no definition under {DEFINITION_ROOT}"
        for entry in sorted(allowlist.keys() - used_entries)
    )
    return offences


def caller_sources() -> dict[str, str]:
    """Source text of every ``.py`` file under :data:`CALLER_ROOTS`."""
    return {
        path.relative_to(REPO_ROOT).as_posix(): path.read_text()
        for root in CALLER_ROOTS
        for path in sorted((REPO_ROOT / root).rglob("*.py"))
    }


def main() -> int:
    status = 0
    offenders = find_tracked_artifacts(tracked_files())
    if offenders:
        print(f"repo-check: {len(offenders)} tracked artifact(s)")
        for path in offenders:
            print(f"  git-tracked build/bytecode artifact -> {path}")
        print("  (git rm --cached them; .gitignore already covers the patterns)")
        status = 1
    test_only = find_test_only_definitions(caller_sources())
    if test_only:
        print(f"repo-check: {len(test_only)} test-only definition(s)")
        for offence in test_only:
            print(f"  {offence}")
        print("  (wire each one in or delete it with its tests; see ALLOWLIST)")
        status = 1
    if status == 0:
        print(
            "repo-check: OK (no tracked build/bytecode artifacts, "
            "no test-only definitions)"
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
