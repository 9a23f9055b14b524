"""Every gracelab name the benchmark tracer wraps still resolves.

bench/tracer.py replaces the functions named in its SPANS tuple and HOT
table with recording wrappers; a name that no longer resolves breaks the
traced pass.  The tracer wraps only the modules that ``import gracelab.cli``
has loaded, so that import must load every wrapped module.  The file is
read with ast, not imported, so this check needs nothing from bench/ at
run time.
"""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import gracelab

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_constants() -> dict[str, object]:
    constants = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("SPANS", "HOT"):
                constants[target.id] = ast.literal_eval(node.value)
    return constants


CONSTANTS = _tracer_constants()
# (module, dotted attribute path) for every wrapped name
WRAPPED = [tuple(name.split(".", 1)) for name in CONSTANTS["SPANS"]] + list(
    CONSTANTS["HOT"].values()
)


@pytest.mark.parametrize(("module", "path"), WRAPPED, ids=[".".join(w) for w in WRAPPED])
def test_wrapped_name_resolves(module, path):
    owner = importlib.import_module(f"gracelab.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_cli_import_loads_every_wrapped_module_and_no_dataclasses():
    # A fresh isolated interpreter, so that nothing imported by pytest or by
    # other tests counts.  dataclasses costs every CLI process its import of
    # inspect, ast, dis and tokenize, and each class it builds an exec.
    src = Path(gracelab.__file__).resolve().parents[1]
    code = (
        f"import sys, json; sys.path.insert(0, {str(src)!r}); import gracelab.cli; "
        "print(json.dumps(sorted(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True
    )
    loaded = set(json.loads(done.stdout))
    # the oracle scans run in the calling process; multiprocessing and pickle
    # would add to every process's set-up
    assert not {"dataclasses", "multiprocessing", "pickle"} & loaded
    assert {f"gracelab.{module}" for module, _ in WRAPPED} <= loaded
