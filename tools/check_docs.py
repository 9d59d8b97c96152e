#!/usr/bin/env python
"""Documentation consistency checker (the ``make docs-check`` target).

Three failure classes, all of which have bitten stale docs before:

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
   and path-like references are resolved against the repo root.
3. **Uncataloged benchmark results** — ``benchmarks/results/*.json`` files
   are committed artefacts whose meaning lives in the ``docs/benchmarks.md``
   catalog.  Every result JSON must be named there, so a benchmark cannot
   land (or be renamed) without its catalog row.
4. **Unreferenced examples** — every ``examples/*.py`` script must be named
   in the README's module map / examples list.  Examples are the narrated
   entry points; one that is not discoverable from the README is dead
   documentation (and a new example cannot land without its README line).

Exits non-zero listing every offence, so it can gate ``make test``.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Markdown files whose links are validated.
LINKED_FILES = sorted(REPO_ROOT.glob("*.md")) + sorted((REPO_ROOT / "docs").glob("*.md"))

#: Files whose prose module references are validated.
MODULE_REF_FILES = sorted((REPO_ROOT / "docs").glob("*.md")) + [REPO_ROOT / "README.md"]

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")
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
