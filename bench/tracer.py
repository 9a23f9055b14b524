"""In-process pass over a workload's job list, optionally traced.

    python3 bench/tracer.py --workload fast-path --seed 1 --mode traced --out t.json

Each job runs through ``gracelab.cli.run(argv)`` in this one process with
stdout and stderr captured, and is checked like a CLI job.  In ``traced``
mode the public functions named below are replaced, in their defining
module and in every gracelab module that imported them, by recording
wrappers; the SparsePoly operators are wrapped on the class.  Coarse calls
record spans (name, start, end, parent); hot calls record only a call count
and accumulated time, and a hot call made inside another hot call (the add
inside a subtraction) is not counted again.  Everything is written to --out
once, when the pass ends.  The program itself is not changed.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import sys
import time
import traceback
from collections import defaultdict

import workloads

# Coarse calls: one span each.
SPANS = (
    "cli.run",
    "digraph.is_graceful",
    "digraph.grl_set",
    "expansion.enumerate_valid_gammas",
    "expansion.enumerate_sp",
    "expansion.tau_bruteforce",
    "expansion.sp_sum_identity_check",
    "genfun.compute_F",
    "genfun.compute_P",
    "genfun.det_poly",
    "genfun.det_via_minor_expansion",
    "genfun.compute_F_bruteforce",
    "genfun.compute_P_bruteforce",
    "genfun.tdmtt_check",
    "genfun.check_F_properties",
    "genfun.check_P_properties",
    "whitty.whitty_check",
    "neighbors.expansion_family",
    "neighbors.neighbors_via_expansion",
    "conjecture.check_conjecture_42",
    "conjecture.tree_classes",
    "conjecture.class_sequences",
)

# Hot calls: counters only.  Name -> (module, attribute path).
HOT = {
    "digraph.is_functional_tree": ("digraph", "is_functional_tree"),
    "expansion.decompose": ("expansion", "decompose"),
    "polyring.mul": ("polyring", "SparsePoly.__mul__"),
    "polyring.add": ("polyring", "SparsePoly.__add__"),
    "polyring.sub": ("polyring", "SparsePoly.__sub__"),
}

MODULES = ("cli", "digraph", "expansion", "polyring", "genfun", "whitty", "neighbors", "conjecture")

# Every metric a traced pass reports, in order, with its unit.
PER_LAYER = (
    *((f"{m}.self_s", "s") for m in MODULES),
    ("digraph.is_graceful_s", "s"),
    ("digraph.grl_set_s", "s"),
    ("digraph.is_functional_tree_calls", "count"),
    ("digraph.is_functional_tree_s", "s"),
    ("expansion.enumerate_valid_gammas_s", "s"),
    ("expansion.tau_bruteforce_s", "s"),
    ("expansion.sp_sum_identity_check_s", "s"),
    ("expansion.decompose_calls", "count"),
    ("expansion.decompose_s", "s"),
    ("polyring.mul_calls", "count"),
    ("polyring.add_calls", "count"),
    ("polyring.sub_calls", "count"),
    ("polyring.mul_s", "s"),
    ("polyring.add_s", "s"),
    ("polyring.sub_s", "s"),
    ("polyring.mul_terms_out", "count"),
    ("genfun.compute_P_s", "s"),
    ("genfun.det_poly_s", "s"),
    ("genfun.det_poly_calls", "count"),
    ("genfun.det_via_minor_expansion_s", "s"),
    ("genfun.compute_F_s", "s"),
    ("genfun.compute_P_bruteforce_s", "s"),
    ("genfun.compute_F_bruteforce_s", "s"),
    ("genfun.tdmtt_check_s", "s"),
    ("whitty.whitty_check_s", "s"),
    ("neighbors.expansion_family_s", "s"),
    ("neighbors.neighbors_via_expansion_s", "s"),
    ("neighbors.family_yield", "ratio"),
    ("conjecture.tree_classes_s", "s"),
    ("conjecture.class_sequences_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.plain_wall_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Spans and counters of one pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, hot seconds]
        self.stack: list[int] = []
        self.counters: dict[str, list] = defaultdict(lambda: [0, 0.0])  # calls, seconds
        self.in_hot = False
        self.mul_terms_out = 0
        self.family_members = 0

    def span(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, 0.0]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self.stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def hot(self, name: str, fn, after=None):
        counter = self.counters[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.in_hot:
                return fn(*args, **kwargs)
            self.in_hot = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.in_hot = False
                counter[0] += 1
                counter[1] += elapsed
                if self.stack:
                    self.spans[self.stack[-1]][4] += elapsed
            if after is not None:
                after(result)
            return result

        return wrapper

    def metrics(self) -> dict[str, float]:
        """Span totals, layer self times and counters.  A span's self time is
        its duration minus its child spans and the hot calls made directly
        inside it; hot-call time belongs to the hot function's module."""
        total = defaultdict(float)
        calls = defaultdict(int)
        self_s = dict.fromkeys(MODULES, 0.0)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, hot_s) in enumerate(self.spans):
            total[name] += end - start
            calls[name] += 1
            self_s[name.split(".")[0]] += end - start - child[i] - hot_s
        for name, (_, seconds) in self.counters.items():
            self_s[name.split(".")[0]] += seconds
        out = {f"{m}.self_s": s for m, s in self_s.items()}
        for name in SPANS:
            out[f"{name}_s"] = total[name]
        for name in HOT:
            count, seconds = self.counters.get(name, (0, 0.0))
            out[f"{name}_calls"] = count
            out[f"{name}_s"] = seconds
        out["genfun.det_poly_calls"] = calls["genfun.det_poly"]
        out["polyring.mul_terms_out"] = self.mul_terms_out
        decomposed = out["expansion.decompose_calls"]
        out["neighbors.family_yield"] = self.family_members / decomposed if decomposed else 0.0
        return out


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap the wrappers in for the duration of the pass, then restore."""
    importlib.import_module("gracelab.cli")  # loads every module it calls
    loaded = [m for name, m in sys.modules.items() if name == "gracelab" or name.startswith("gracelab.")]
    undo = []

    def replace(original, wrapper):
        for module in loaded:
            for attr, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def count_terms(poly):
        tracer.mul_terms_out += poly.term_count()

    def count_members(family):
        tracer.family_members += len(family.members)

    try:
        for name in SPANS:
            module, attr = name.split(".")
            original = getattr(importlib.import_module(f"gracelab.{module}"), attr)
            after = count_members if name == "neighbors.expansion_family" else None
            replace(original, tracer.span(name, original, after))
        for name, (module, path) in HOT.items():
            owner = importlib.import_module(f"gracelab.{module}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = tracer.hot(name, original, count_terms if name == "polyring.mul" else None)
            if outer:  # a class attribute: patch the class itself
                undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                replace(original, wrapper)
        yield
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


def capture(job: workloads.Job) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of cli.run(argv), as a process would give them."""
    from gracelab import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(list(job.argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # what the interpreter would print, and its exit code
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def run_in_process(job: workloads.Job) -> dict:
    start = time.perf_counter()
    code, out, err = capture(job)
    wall = time.perf_counter() - start
    return {"job": job.name, "wall_s": wall, **workloads.judge(job, code, out, err)}


def run_pass(jobs: list[workloads.Job], tracer: Tracer | None) -> list[dict]:
    if tracer is None:
        return [run_in_process(job) for job in jobs]
    with installed(tracer):
        return [run_in_process(job) for job in jobs]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced"), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    jobs = workloads.WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.mode == "traced" else None
    records = run_pass(jobs, tracer)
    doc = {"jobs": records}
    if tracer is not None:
        doc["metrics"] = tracer.metrics()
        doc["metrics"]["trace.traced_wall_s"] = sum(r["wall_s"] for r in records)
        doc["spans"] = tracer.spans
        doc["counters"] = dict(tracer.counters)
    with open(args.out, "w") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    main()
