"""Every gracelab name the benchmark tracer wraps still resolves.

bench/tracer.py replaces the functions named in its SPANS tuple and HOT
table with recording wrappers; a name that no longer resolves breaks the
traced pass.  The file is read with ast, not imported, so this check needs
nothing from bench/ at run time.
"""

import ast
import importlib
from pathlib import Path

import pytest

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
