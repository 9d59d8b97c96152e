#!/usr/bin/env python
"""Repository hygiene checker (the ``make repo-check`` target).

Three checks, each a pure function over its inputs so the unit tests
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
3. **Test-only switches** (:func:`find_test_only_switches`, over the same
   mapping).  A *switch* is a parameter of a public function or method
   under ``src/repro`` (``__init__`` included: it is called by its class's
   name), or a field of a public ``@dataclass`` there, whose default is
   ``None``, ``True`` or ``False``.  A switch needs a caller under the same
   roots that sets it: a call that passes its name as a keyword (any
   callee, so the check again errs toward keeping code), or a call of a
   same-named callable that reaches it by position or through ``*``/``**``.
   A switch that only ``tests/`` set selects a code path only tests reach;
   make it a constant and delete the path.  :data:`SWITCH_ALLOWLIST`
   exempts the test seams by ``module.qualname.parameter``, each with its
   reason, and fails on a stale entry like :data:`ALLOWLIST`.

Exits non-zero listing every offence; wired as a prerequisite of
``make test`` next to ``tools/check_docs.py``, and
``tests/test_tools_checks.py`` runs every check on the real tree.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from collections import Counter
from collections.abc import Iterator, Mapping
from typing import Optional
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


#: Defaults that make a parameter or dataclass field a switch.
SWITCH_DEFAULTS = (None, True, False)

#: Switches exempt from the test-only-switch rule, by
#: ``module.qualname.parameter`` (a dataclass field's qualname is its
#: class), mapped to the reason.
SWITCH_ALLOWLIST: dict[str, str] = {
    "repro.cli.main.argv": (
        "the test seam of the CLI: tests run it in-process on an argument "
        "list, the console entry point reads sys.argv"
    ),
    "repro.sim.simulator.Simulator.__init__.suite": (
        "the test seam of the simulator: tests substitute a small workload "
        "suite, every other caller simulates the SPEC CPU 2017 suite"
    ),
}


def _is_switch_default(node: Optional[ast.AST]) -> bool:
    return isinstance(node, ast.Constant) and any(
        node.value is value for value in SWITCH_DEFAULTS
    )


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _parameter_switches(
    node: ast.AST, offset: int
) -> Iterator[tuple[str, Optional[int]]]:
    """``(name, position)`` of each switch parameter of a ``def``.

    The position is the argument index a positional call must exceed to
    reach the parameter (*offset* discounts ``self``/``cls``); ``None``
    for keyword-only parameters.
    """
    arguments = node.args
    positional = arguments.posonlyargs + arguments.args
    defaults = [None] * (len(positional) - len(arguments.defaults)) + list(
        arguments.defaults
    )
    for index, (argument, default) in enumerate(zip(positional, defaults)):
        if _is_switch_default(default):
            yield argument.arg, index - offset
    for argument, default in zip(arguments.kwonlyargs, arguments.kw_defaults):
        if _is_switch_default(default):
            yield argument.arg, None


def _switches(
    tree: ast.Module,
) -> Iterator[tuple[str, str, str, Optional[int], ast.AST]]:
    """``(qualname, parameter, callee name, position, node)`` per switch."""
    for qualname, node in _definitions(tree):
        if isinstance(node, ast.ClassDef):
            if _is_dataclass(node):
                fields = [
                    statement
                    for statement in node.body
                    if isinstance(statement, ast.AnnAssign)
                    and isinstance(statement.target, ast.Name)
                ]
                for position, field in enumerate(fields):
                    if _is_switch_default(field.value):
                        yield qualname, field.target.id, node.name, position, field
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and member.name == "__init__":
                    for name, position in _parameter_switches(member, offset=1):
                        yield f"{qualname}.__init__", name, node.name, position, member
        elif "." in qualname:
            static = any(
                getattr(decorator, "id", None) == "staticmethod"
                for decorator in node.decorator_list
            )
            for name, position in _parameter_switches(node, offset=0 if static else 1):
                yield qualname, name, node.name, position, node
        else:
            for name, position in _parameter_switches(node, offset=0):
                yield qualname, name, node.name, position, node


def find_test_only_switches(
    sources: Mapping[str, str], allowlist: Mapping[str, str] = SWITCH_ALLOWLIST
) -> list[str]:
    """One message per switch that no call outside ``tests/`` sets.

    *sources* is read as by :func:`find_test_only_definitions`; a stale
    *allowlist* entry is an offence too.
    """
    trees = {
        path: ast.parse(text, filename=path)
        for path, text in sources.items()
        if PurePosixPath(path).parts[0] in CALLER_ROOTS
    }
    keywords: set[str] = set()
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                keywords.update(k.arg for k in node.keywords if k.arg is not None)
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(callee, []).append(node)

    def reached(callee: str, position: Optional[int]) -> bool:
        for call in calls.get(callee, ()):
            if any(isinstance(a, ast.Starred) for a in call.args) or any(
                k.arg is None for k in call.keywords
            ):
                return True
            if position is not None and len(call.args) > position:
                return True
        return False

    offences = []
    used_entries = set()
    for path, tree in sorted(trees.items()):
        if not path.startswith(DEFINITION_ROOT + "/"):
            continue
        module = _module_name(path)
        for qualname, name, callee, position, node in _switches(tree):
            entry = f"{module}.{qualname}.{name}"
            if entry in allowlist:
                used_entries.add(entry)
                continue
            if name in keywords or reached(callee, position):
                continue
            offences.append(
                f"{path}:{node.lineno}: {qualname}({name}=) is set only by tests/"
            )
    offences.extend(
        f"switch allowlist entry {entry!r} names no switch under {DEFINITION_ROOT}"
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
    sources = caller_sources()
    test_only = find_test_only_definitions(sources)
    if test_only:
        print(f"repo-check: {len(test_only)} test-only definition(s)")
        for offence in test_only:
            print(f"  {offence}")
        print("  (wire each one in or delete it with its tests; see ALLOWLIST)")
        status = 1
    switches = find_test_only_switches(sources)
    if switches:
        print(f"repo-check: {len(switches)} test-only switch(es)")
        for offence in switches:
            print(f"  {offence}")
        print(
            "  (make each one a constant and delete the path it selected; "
            "see SWITCH_ALLOWLIST)"
        )
        status = 1
    if status == 0:
        print(
            "repo-check: OK (no tracked build/bytecode artifacts, "
            "no test-only definitions or switches)"
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
