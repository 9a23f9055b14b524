"""Each name has one import path: its defining module.

The package itself exports only ``__version__`` and imports none of its
modules, and every name a module lists in ``__all__`` is defined there and
read by program code, or kept on purpose (README "Kept on purpose").  The
private names one module imports from another are pinned.
"""

import ast
import importlib
import inspect
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


@pytest.mark.parametrize("name", MODULES)
def test_no_module_binds_a_wrapper_of_a_kernel(name):
    # each of these restated one call of a kernel its callers now make
    # directly: tree_folds(rows, op), whitty._signed_tree_sums,
    # encode_sequence(range(n), base), enumerate_valid_gammas and the
    # frozenset that class_sequences builds from _orbit
    module = importlib.import_module(f"gracelab.{name}")
    wrappers = {
        "_sequences",
        "_tree_folds",
        "whitty_rhs",
        "whitty_rhs_determinant_sign",
        "graceful_sequence_exponent",
        "valid_gamma_tuples",
    }
    assert wrappers & set(vars(module)) == set()


def test_the_label_sign_lives_beside_its_one_reader():
    from gracelab import digraph, whitty

    assert not hasattr(digraph, "_cycle_sign")
    assert not hasattr(digraph.Permutation, "sign")
    assert "_cycle_sign" in vars(whitty)


PACKAGE = Path(gracelab.__file__).resolve().parent
TREES = {name: ast.parse((PACKAGE / f"{name}.py").read_text()) for name in MODULES}


def test_the_oracle_scans_have_no_split():
    # the oracle scans run in the calling process: a library that forks can
    # deadlock a caller that runs threads, and the tree search takes no
    # f(0) mask
    from gracelab import genfun
    from gracelab.digraph import tree_folds

    removed = {
        "_SPLIT_FROM_N",
        "_usable_cpus",
        "_shares",
        "_run_share",
        "_reap",
        "_merged",
        "_f0_mask",
        "marshal",
        "os",
    }
    assert removed & set(vars(genfun)) == set()
    imported = set()
    for node in ast.walk(TREES["genfun"]):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert {"os", "marshal"} & imported == set()
    assert list(inspect.signature(tree_folds).parameters) == ["rows", "op"]


def test_private_cross_module_imports_are_pinned():
    # each private name one module imports from another is a helper whose
    # move would cost a private import elsewhere or a slower search
    imported = {}
    for name, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module.startswith("gracelab."):
                source = node.module.removeprefix("gracelab.")
                private = {f"{source}.{a.name}" for a in node.names if a.name[0] == "_"}
                if private:
                    imported.setdefault(name, set()).update(private)
    assert imported == {
        "conjecture": {"digraph._hits", "digraph._structure"},
        "neighbors": {"digraph._first_conjugators", "digraph._labels_are_graceful"},
        "whitty": {"genfun._in_entry_ring"},
    }


def _reads(tree):
    # every name a module loads, reads as an attribute or imports
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


# README "Kept on purpose": the oracles and definitions that only tests read
KEPT = {
    "conjecture.class_sequences",
    "conjecture.tree_classes",
    "digraph.all_value_tables",
    "digraph.complement",
    "digraph.relabel",
    "expansion.enumerate_valid_gammas_by_filter",
    "genfun.decode_exponent",
    "genfun.graceful_coefficient_F",
    "neighbors.edit_distance_at_most",
    "whitty.tree_sign",
}


def test_every_export_is_read_by_program_code_or_kept_on_purpose():
    reads = {name: _reads(tree) for name, tree in TREES.items()}
    unread = {
        f"{name}.{export}"
        for name in MODULES
        for export in importlib.import_module(f"gracelab.{name}").__all__
        if not any(export in names for names in reads.values())
    }
    assert unread == KEPT
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    kept = readme[readme.index("Kept on purpose") : readme.index("### Records")]
    assert [name for name in sorted(KEPT) if f"{name.split('.')[1]}`" not in kept] == []
