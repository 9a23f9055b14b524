"""Each name has one import path: its defining module.

The package itself exports only ``__version__`` and imports none of its
modules, and every name a module lists in ``__all__`` is defined there.
"""

import importlib
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import gracelab

SRC = Path(gracelab.__file__).resolve().parents[1]
MODULES = sorted(
    info.name for info in pkgutil.iter_modules(gracelab.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"gracelab.{name}")
    assert module.__all__
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_package_import_loads_no_module_and_exports_only_the_version():
    # a fresh isolated interpreter, so that nothing imported by pytest or by
    # other tests counts
    code = (
        f"import sys, json; sys.path.insert(0, {str(SRC)!r}); import gracelab; "
        "print(json.dumps({'loaded': sorted(m for m in sys.modules "
        "if m.startswith('gracelab.')), 'public': [n for n in dir(gracelab) "
        "if not n.startswith('_')], 'version': gracelab.__version__}))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True
    )
    assert json.loads(done.stdout) == {"loaded": [], "public": [], "version": "0.1.0"}
