"""Every example script imports cleanly.

The examples are narrated end-to-end scripts (``make examples`` runs them,
which takes minutes); importing one runs its module body — the imports
and constants — but not ``main()``, which every script guards behind
``__main__``.  So a renamed or deleted name an example still uses fails
here, in seconds, instead of only when someone next runs the script.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_imports_without_running(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
