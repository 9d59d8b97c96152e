#!/usr/bin/env python
"""Documentation consistency checker (the ``make docs-check`` target).

Five failure classes, all of which have bitten stale docs before:

1. **Dead intra-repo links** — every relative markdown link in the repo's
   top-level ``*.md`` files and ``docs/*.md`` must point at a file or
   directory that exists (external ``http(s)``/``mailto`` links and pure
   ``#anchor`` links are not checked).
2. **Stale module references** — ``docs/*.md`` and ``README.md`` routinely
   name modules (``repro.nn.precision``, ``src/repro/meta/maml.py``,
   ``benchmarks/test_meta_throughput.py``).  Every such reference must
   resolve: dotted ``repro.…`` names are resolved against ``src/`` (the
   longest prefix that is a module or package is imported and any
   attribute tail, like ``repro.nn.tensor.stack``, must resolve on it),
   and path-like references are resolved against the repo root.  A
   backticked ``Class.member`` reference (`` `Simulator.run_batch` ``)
   must name a member of the class of that name under ``src/repro`` — see
   :func:`_class_members` for what counts as one.
3. **Uncataloged benchmark results** — ``benchmarks/results/*.json`` files
   are committed artefacts whose meaning lives in the ``docs/benchmarks.md``
   catalog.  Every result JSON must be named there, so a benchmark cannot
   land (or be renamed) without its catalog row.
4. **Unreferenced examples** — every ``examples/*.py`` script must be named
   in the README's module map / examples list.  Examples are the narrated
   entry points; one that is not discoverable from the README is dead
   documentation (and a new example cannot land without its README line).
5. **Stale bare names** — a backticked bare identifier in ``docs/*.md`` or
   ``README.md`` (`` `adapt_many` ``, `` `FocusedPool` ``, also leading a
   call or an assignment: `` `adapt_many(...)` ``, `` `refit=True` ``) must
   occur as an identifier in the git-tracked Python code: a name, attribute,
   definition, parameter, keyword or imported module part, or a string or
   bytes constant that is a whole identifier (docstrings do not count).
   Python keywords and builtins are exempt, and :data:`BARE_NAME_ALLOWLIST`
   names the tokens that are prose, not code, each with its reason (an
   entry no doc needs any more fails the check).

Exits non-zero listing every offence, so it can gate ``make test``.
"""

from __future__ import annotations

import ast
import builtins
import keyword
import re
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Markdown files whose links are validated.
LINKED_FILES = sorted(REPO_ROOT.glob("*.md")) + sorted((REPO_ROOT / "docs").glob("*.md"))

#: Files whose prose module references are validated.
MODULE_REF_FILES = sorted((REPO_ROOT / "docs").glob("*.md")) + [REPO_ROOT / "README.md"]

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")
_MEMBER = re.compile(r"`([A-Z][A-Za-z0-9_]*\.[A-Za-z_][A-Za-z0-9_]*)")
_PATHLIKE = re.compile(
    r"\b((?:src/repro|benchmarks|examples|tests|tools|docs)/[A-Za-z0-9_\-./]+)"
)


def check_links(path: Path) -> list[str]:
    """Return one message per dead relative link in *path*."""
    errors = []
    for match in _LINK.finditer(path.read_text()):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            errors.append(f"{path.relative_to(REPO_ROOT)}: dead link -> {target}")
    return errors


def _dotted_resolves(name: str) -> bool:
    """True when a dotted ``repro.…`` reference names something that exists.

    The longest prefix that is a module file (``repro.nn.tensor`` →
    ``src/repro/nn/tensor.py``) or a package directory is imported, and the
    rest is resolved on it attribute by attribute, so a doc naming a
    deleted function, class or method (``repro.dse.engine.CampaignEngine.
    vanished``) is as stale as one naming a deleted module.
    """
    parts = name.split(".")
    for end in range(len(parts), 0, -1):
        base = REPO_ROOT / "src" / Path(*parts[:end])
        if base.with_suffix(".py").exists() or base.is_dir():
            return _has_attributes(".".join(parts[:end]), parts[end:])
    return False


def _has_attributes(module: str, tail: list[str]) -> bool:
    import importlib

    if not tail:
        return True
    source = str(REPO_ROOT / "src")
    if source not in sys.path:
        sys.path.insert(0, source)
    try:
        target = importlib.import_module(module)
        for attribute in tail:
            target = getattr(target, attribute)
    except (ImportError, AttributeError):
        return False
    return True


def _own_members(node: ast.ClassDef) -> set[str]:
    """Names a class body defines, plus its ``self.<name>`` targets."""
    names = set()
    for statement in node.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(statement.name)
        elif isinstance(statement, ast.Assign):
            names.update(
                target.id
                for target in statement.targets
                if isinstance(target, ast.Name)
            )
        elif isinstance(statement, ast.AnnAssign):
            if isinstance(statement.target, ast.Name):
                names.add(statement.target.id)
    for inner in ast.walk(node):
        if (
            isinstance(inner, ast.Attribute)
            and isinstance(inner.ctx, ast.Store)
            and isinstance(inner.value, ast.Name)
            and inner.value.id == "self"
        ):
            names.add(inner.attr)
    return names


@lru_cache(maxsize=None)
def _class_members() -> dict[str, frozenset[str]]:
    """``{class name: member names}`` for the classes under ``src/repro``.

    A class's members are its ``def``s and nested classes, its class-level
    and annotated assignments (dataclass fields included), its
    ``self.<name> =`` targets, and everything it inherits through bases
    defined in the package.  A class name defined twice is left out: a
    reference to it cannot say which class it means.
    """
    definitions: dict[str, list[ast.ClassDef]] = {}
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                definitions.setdefault(node.name, []).append(node)
    unique = {name: nodes[0] for name, nodes in definitions.items() if len(nodes) == 1}

    def members(name: str, seen: frozenset[str]) -> set[str]:
        node = unique[name]
        names = _own_members(node)
        for base in node.bases:
            base_name = getattr(base, "id", getattr(base, "attr", None))
            if base_name in unique and base_name not in seen:
                names |= members(base_name, seen | {base_name})
        return names

    return {name: frozenset(members(name, frozenset({name}))) for name in unique}


def _member_resolves(reference: str) -> bool:
    """True unless ``Class.member`` names a package class lacking *member*.

    Classes outside ``src/repro`` (and names defined twice) are not checked.
    """
    class_name, member = reference.split(".")
    members = _class_members().get(class_name)
    return members is None or member in members


def check_module_references(path: Path) -> list[str]:
    """Return one message per stale module reference in *path*."""
    text = path.read_text()
    errors = []
    for match in _DOTTED.finditer(text):
        if not _dotted_resolves(match.group(0)):
            errors.append(
                f"{path.relative_to(REPO_ROOT)}: stale module reference -> "
                f"{match.group(0)}"
            )
    for match in _MEMBER.finditer(text):
        if not _member_resolves(match.group(1)):
            errors.append(
                f"{path.relative_to(REPO_ROOT)}: stale member reference -> "
                f"{match.group(1)}"
            )
    for match in _PATHLIKE.finditer(text):
        reference = match.group(1).rstrip(".")
        # Globby/illustrative references (benchmarks/test_*.py) are skipped.
        if "*" in reference:
            continue
        if not (REPO_ROOT / reference).exists():
            errors.append(
                f"{path.relative_to(REPO_ROOT)}: stale path reference -> {reference}"
            )
    return errors


#: Backticked bare tokens in the docs that name no Python identifier on
#: purpose, mapped to the reason.
BARE_NAME_ALLOWLIST: dict[str, str] = {
    "CLAIM": "a make variable of `make bench-pairs`",
    "PARENT": "a make variable of `make bench-pairs`",
    "SEED": "a make variable of `make bench-repo` and `make bench-pairs`",
    "NaN": "the floating-point value, named in prose",
    "theta_hat": "the adapted-parameter notation of Algorithm 1",
}

_FENCE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
_CODE_SPAN = re.compile(r"(`+)(.+?)(?<!`)\1(?!`)", re.DOTALL)
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
#: A code span that is a bare identifier, alone or leading a call or an
#: assignment.
_BARE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\(.*\)|=.*)?\Z", re.DOTALL)


def _docstrings(tree: ast.AST) -> set[int]:
    """``id()`` of every docstring constant in *tree*."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                found.add(id(body[0].value))
    return found


def code_identifiers(sources: list[str]) -> set[str]:
    """Every identifier the Python *sources* use, in the sense of check 5."""
    names: set[str] = set()
    for source in sources:
        tree = ast.parse(source)
        docstrings = _docstrings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                names.add(node.name)
            elif isinstance(node, ast.arg):
                names.add(node.arg)
            elif isinstance(node, ast.keyword) and node.arg is not None:
                names.add(node.arg)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
                if node.asname:
                    names.add(node.asname)
            elif isinstance(node, ast.ImportFrom) and node.module:
                names.update(node.module.split("."))
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                names.update(node.names)
            elif isinstance(node, ast.Constant) and id(node) not in docstrings:
                value = node.value
                if isinstance(value, bytes):
                    value = value.decode("ascii", "replace")
                if isinstance(value, str) and _IDENTIFIER.match(value):
                    names.add(value)
    return names


@lru_cache(maxsize=None)
def _tracked_identifiers() -> frozenset[str]:
    paths = subprocess.run(
        ["git", "ls-files", "-z", "*.py"],
        cwd=REPO_ROOT,
        check=True,
        capture_output=True,
        text=True,
    ).stdout.split("\0")
    # This file is left out: its allowlist's keys would vouch for
    # themselves.
    own = Path(__file__).resolve().relative_to(REPO_ROOT).as_posix()
    return frozenset(
        code_identifiers(
            [(REPO_ROOT / path).read_text() for path in paths if path and path != own]
        )
    )


def bare_names(text: str) -> list[str]:
    """Backticked bare identifiers of markdown *text*, fenced blocks skipped."""
    names = []
    for span in _CODE_SPAN.finditer(_FENCE.sub("", text)):
        bare = _BARE.match(span.group(2).strip())
        if bare:
            names.append(bare.group(1))
    return names


def find_stale_bare_names(text: str, identifiers: "set[str] | frozenset[str]") -> list[str]:
    """The bare names of *text* that are no identifier, keyword or builtin.

    Allowlisted tokens are included, so the caller can check the allowlist
    against what the docs need.
    """
    exempt = set(keyword.kwlist) | set(keyword.softkwlist) | set(dir(builtins))
    stale = []
    for name in bare_names(text):
        if name not in identifiers and name not in exempt and name not in stale:
            stale.append(name)
    return stale


def check_bare_names(
    paths: list[Path], allowlist: "dict[str, str]" = BARE_NAME_ALLOWLIST
) -> list[str]:
    """One message per stale bare name in *paths*, and per stale allowlist entry."""
    identifiers = _tracked_identifiers()
    errors = []
    needed = set()
    for path in paths:
        for name in find_stale_bare_names(path.read_text(), identifiers):
            if name in allowlist:
                needed.add(name)
            else:
                errors.append(
                    f"{path.relative_to(REPO_ROOT)}: stale bare name -> {name}"
                )
    errors.extend(
        f"tools/check_docs.py: allowlist entry {name!r} is no longer needed"
        for name in sorted(set(allowlist) - needed)
    )
    return errors


def check_benchmark_catalog() -> list[str]:
    """Return one message per ``benchmarks/results/*.json`` not cataloged."""
    catalog = REPO_ROOT / "docs" / "benchmarks.md"
    results = sorted((REPO_ROOT / "benchmarks" / "results").glob("*.json"))
    if not results:
        return []
    if not catalog.exists():
        return ["docs/benchmarks.md: missing (benchmark results need a catalog)"]
    text = catalog.read_text()
    return [
        f"docs/benchmarks.md: uncataloged benchmark result -> "
        f"benchmarks/results/{result.name}"
        for result in results
        if result.name not in text
    ]


def check_examples_referenced() -> list[str]:
    """Return one message per ``examples/*.py`` not named in the README."""
    readme = REPO_ROOT / "README.md"
    if not readme.exists():
        return ["README.md: missing (examples need a README reference)"]
    text = readme.read_text()
    return [
        f"README.md: unreferenced example -> examples/{script.name} "
        f"(add it to the examples list in the module map section)"
        for script in sorted((REPO_ROOT / "examples").glob("*.py"))
        if f"examples/{script.name}" not in text
    ]


def main() -> int:
    errors: list[str] = []
    for path in LINKED_FILES:
        errors.extend(check_links(path))
    for path in MODULE_REF_FILES:
        errors.extend(check_module_references(path))
    errors.extend(check_bare_names(MODULE_REF_FILES))
    errors.extend(check_benchmark_catalog())
    errors.extend(check_examples_referenced())
    if errors:
        print(f"docs-check: {len(errors)} problem(s)")
        for error in errors:
            print(f"  {error}")
        return 1
    checked = {p.relative_to(REPO_ROOT) for p in LINKED_FILES + MODULE_REF_FILES}
    print(f"docs-check: OK ({len(checked)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
