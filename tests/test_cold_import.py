"""What a fresh interpreter pays to import the package.

Every command is a short process that imports :mod:`repro` first, so the
import path stays NumPy-only: SciPy's ``stats`` alone takes over a second
and about 60 MB to import.  These checks start a new interpreter, because
other tests import SciPy in this one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.metrics import confidence_interval

_SRC = Path(__file__).resolve().parent.parent / "src"
#: An expression, for the child interpreter, naming its loaded SciPy modules.
_SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def _fresh_python(code: str) -> str:
    """Run *code* in a new interpreter that sees only ``src/``; return its stdout."""
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_importing_every_module_loads_no_scipy():
    # ``repro.__main__`` only dispatches under ``if __name__ == "__main__"``,
    # so importing it is safe.
    out = _fresh_python(
        "import importlib, json, pkgutil, sys\n"
        "import repro\n"
        "names = [info.name for info in pkgutil.walk_packages(repro.__path__, 'repro.')]\n"
        "for name in names:\n"
        "    importlib.import_module(name)\n"
        f"print(json.dumps({{'imported': len(names), 'scipy': {_SCIPY_MODULES}}}))\n"
    )
    report = json.loads(out)
    # Every module under src/repro except the package's own __init__.
    assert report["imported"] == len(list((_SRC / "repro").rglob("*.py"))) - 1
    assert report["scipy"] == []


def test_confidence_interval_imports_scipy_when_called():
    values = [0.3, 1.0, 2.5, 2.75]
    out = _fresh_python(
        "import sys\n"
        "from repro.metrics import confidence_interval\n"
        f"assert {_SCIPY_MODULES} == []\n"
        f"print(repr(confidence_interval({values!r})))\n"
    )
    assert float(out) == confidence_interval(values)
