"""Tests of the benchmark itself: its own mathematics, its checks, its tracer.

    python3 -m pytest bench/test_bench.py -q

Every workload's job list runs at small n through the same checks as the
benchmark, and each check is handed one corrupted output that it must
reject, so that a passing check means something.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import graphs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import (  # noqa: E402
    check_conjecture,
    check_coeff_p,
    check_gammas,
    check_genfun_f_structured,
    check_genfun_p,
    check_graceful_rejects,
    check_grl_star,
    check_labels_trivial,
    check_neighbors,
    check_props_f,
    check_sp,
    check_tau,
    check_tdmtt,
    check_usage_error,
    check_whitty_seeded,
    check_whitty_symbolic,
)

SMALL = {
    "oracle-scan": dict(n=5),
    "conjugate-search": dict(n=6),
    "fast-path": dict(p_n=5, f_n=4, whitty_n=4, gammas_n=6),
}
SEEDS = (1, 2)


# --- the benchmark's own mathematics against brute force --------------------


def conjugate(f, s):
    out = [0] * len(f)
    for j, v in enumerate(f):
        out[s[j]] = s[v]
    return tuple(out)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_canonical_form_separates_exactly_the_conjugation_orbits(n):
    tables = list(itertools.product(range(n), repeat=n))
    perms = list(itertools.permutations(range(n)))
    for f in tables:
        orbit = {conjugate(f, s) for s in perms}
        same = {g for g in tables if graphs.canonical_form(g) == graphs.canonical_form(f)}
        assert same == orbit
        assert graphs.automorphism_count(f) == sum(conjugate(f, s) == f for s in perms)


def test_automorphism_count_of_larger_inputs():
    rng = random.Random(0)
    perms = list(itertools.permutations(range(6)))
    for _ in range(30):
        f = tuple(rng.randrange(6) for _ in range(6))
        assert graphs.automorphism_count(f) == sum(conjugate(f, s) == f for s in perms)
    assert graphs.automorphism_count((0,) * 10) == math.factorial(9)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_pruned_graceful_search_matches_the_filter(n):
    tables = list(itertools.product(range(n), repeat=n))
    assert set(graphs.graceful_tables(n)) == {t for t in tables if graphs.is_graceful_labeling(t)}
    assert set(graphs.graceful_tables(n, fixed_zero=True)) == {
        t for t in tables if graphs.is_graceful_labeling(t) and t[0] == 0
    }


def test_within_one_image_matches_brute_force():
    n = 4
    tables = list(itertools.product(range(n), repeat=n))
    perms = list(itertools.permutations(range(n)))
    rng = random.Random(3)
    for g in rng.sample(tables, 6):
        conjugates = {conjugate(g, s) for s in perms}
        for h in tables:
            expected = any(sum(a != b for a, b in zip(h, c)) <= 1 for c in conjugates)
            assert graphs.within_one_image_of_conjugate(h, g) == expected


def leibniz(m):
    n = len(m)
    total = 0
    for p in itertools.permutations(range(n)):
        inversions = sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(m[i][p[i]] for i in range(n))
    return total


def test_bareiss_matches_leibniz():
    rng = random.Random(5)
    for n in range(1, 6):
        for _ in range(10):
            m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            assert graphs.bareiss_det(m) == leibniz(m)


def test_tree_theorem_sum_matches_tree_scan():
    a = graphs.lcg_matrix(4, 7, 1, 50)
    trees = [f for f in itertools.product(range(4), repeat=4) if graphs.is_tree(f)]
    assert len(trees) == 4**3
    assert graphs.tree_theorem_sum(a) == sum(math.prod(a[i][f[i]] for i in range(4)) for f in trees)


def test_lcg_matrix_follows_the_documented_recurrence():
    state = (6364136223846793005 * 5 + 1442695040888963407) % 2**64
    assert graphs.lcg_matrix(2, 5, 1, 50)[0][0] == 1 + (state >> 33) % 50


# --- seeded inputs -------------------------------------------------------------


@pytest.mark.parametrize("seed", range(20))
def test_seeded_inputs(seed):
    inputs = workloads.conjugate_inputs(seed)
    assert inputs == workloads.conjugate_inputs(seed)
    table = inputs["two_fixed_points"]
    assert sum(i == v for i, v in enumerate(table)) == 2
    assert graphs.is_tree(inputs["random_tree"])
    assert [j.argv for j in workloads.oracle_scan(seed)] == [j.argv for j in workloads.oracle_scan(seed)]


# --- the checks ----------------------------------------------------------------


def small_jobs():
    for name, sizes in SMALL.items():
        for seed in SEEDS:
            for job in workloads.WORKLOADS[name](seed, **sizes):
                yield pytest.param(job, id=f"{name}-{seed}-{job.name}")


@pytest.fixture(scope="module")
def out_dir():
    run.OUT.mkdir(parents=True, exist_ok=True)


@pytest.mark.parametrize("job", small_jobs())
def test_small_job_passes_its_check_as_a_cli_process(job, out_dir):
    record = run.run_job(job)
    if job.known_fault:
        # Kept as failing until seeds.Lcg's negative-seed fault is mended.
        assert not record["ok"]
    else:
        assert record["ok"], record["error"]


def bump(prefix):
    """Add one to the integer after `prefix` on its line."""

    def corrupt(out):
        return re.sub(rf"(?m)^({re.escape(prefix)})(-?\d+)", lambda m: m[1] + str(int(m[2]) + 1), out, 1)

    return corrupt


def bump_json_pairs(out):
    pairs = json.loads(out.splitlines()[0])
    pairs[-1][1] = str(int(pairs[-1][1]) + 1)
    return json.dumps(pairs) + "\n" + "\n".join(out.splitlines()[1:])


def bump_structured(out):
    doc = json.loads(out)
    doc["terms"][0][1] = str(int(doc["terms"][0][1]) + 1)
    return json.dumps(doc)


def bump_symbolic_lhs(out):
    lines = out.splitlines()
    pairs = json.loads(lines[0][len("lhs: "):])
    pairs[0][1] = str(int(pairs[0][1]) * 2)
    lines[0] = "lhs: " + json.dumps(pairs)
    return "\n".join(lines) + "\n"


def drop_first_line(out):
    return "".join(out.splitlines(keepends=True)[1:])


def bump_term_count(out):
    lines = out.splitlines()
    last = lines[-1]  # the term_count_bound claim
    computed = re.search(r"computed=(\d+)", last)[1]
    lines[-1] = last.replace(f"computed={computed}", f"computed={int(computed) + 1}")
    return "\n".join(lines) + "\n"


def identity_first(out):
    lines = out.splitlines()
    n = int(lines[0].split(":")[0])
    lines[0] = f"{n}:" + ",".join(str(i) for i in range(n))
    return "\n".join(lines) + "\n"


def repeat_first_line(out):
    lines = out.splitlines()
    lines[1] = lines[0]
    return "\n".join(lines) + "\n"


CORRUPTIONS = {
    check_tdmtt: bump("left: "),
    check_genfun_p: bump_json_pairs,
    check_props_f: bump_term_count,
    check_conjecture: drop_first_line,
    check_tau: bump("tau: "),
    check_sp: drop_first_line,
    check_whitty_seeded: bump("lhs: "),
    check_graceful_rejects: lambda out: out.replace("graceful: false", "graceful: true"),
    check_grl_star: lambda out: out.replace("count: 2", "count: 3"),
    check_neighbors: identity_first,
    check_coeff_p: bump("coefficient: "),
    check_genfun_f_structured: bump_structured,
    check_whitty_symbolic: bump_symbolic_lhs,
    check_gammas: repeat_first_line,
}


def check_of(job):
    return getattr(job.check, "func", job.check)


def test_every_check_has_a_corruption():
    checks = {check_of(j.values[0]) for j in small_jobs()} - {check_usage_error}
    assert checks == set(CORRUPTIONS)


@pytest.mark.parametrize("job", small_jobs())
def test_check_rejects_a_corrupted_output(job):
    code, out, err = tracer.capture(job)
    assert workloads.judge(job, code, out, err)["ok"] != bool(job.known_fault)
    if job.known_fault:
        return
    corrupted = CORRUPTIONS[check_of(job)](out)
    assert corrupted != out
    assert not workloads.judge(job, code, corrupted, err)["ok"]


def test_usage_error_check():
    check_usage_error(2, "", "error: sp: seed must be non-negative\n")
    with pytest.raises(workloads.CheckFailed):
        check_usage_error(1, "", "Traceback (most recent call last):\nValueError: x\n")
    check_labels_trivial(0, "0\n", "")
    with pytest.raises(workloads.CheckFailed):
        check_labels_trivial(0, "1\n", "")


# --- the tracer ----------------------------------------------------------------


def traced_pass(name):
    t = tracer.Tracer()
    records = tracer.run_pass(workloads.WORKLOADS[name](1, **SMALL[name]), t)
    return records, t.metrics()


def test_traced_pass_reports_every_layer_and_restores_the_program():
    from gracelab import digraph, genfun, polyring, whitty

    originals = (digraph.is_graceful, whitty.det_via_minor_expansion, polyring.SparsePoly.__mul__)
    records, m = traced_pass("fast-path")
    assert all(r["ok"] for r in records)
    assert (digraph.is_graceful, whitty.det_via_minor_expansion, polyring.SparsePoly.__mul__) == originals
    assert genfun.is_functional_tree is digraph.is_functional_tree
    names = {name for name, _ in tracer.PER_LAYER} - {"trace.traced_wall_s", "trace.plain_wall_s", "trace.overhead_s"}
    assert names <= set(m)
    # P at n=5 takes 5 determinants, the coefficient of a length-4 sequence 4 more
    assert m["genfun.det_poly_calls"] == 5 + 4
    assert m["polyring.mul_calls"] > 0 and m["polyring.mul_terms_out"] > 0
    assert m["expansion.decompose_calls"] == 0
    self_total = sum(m[f"{mod}.self_s"] for mod in tracer.MODULES)
    assert self_total == pytest.approx(m["cli.run_s"], rel=1e-6)


def test_layers_a_workload_does_not_call_report_zero():
    _, m = traced_pass("conjugate-search")
    assert m["polyring.mul_calls"] == 0 and m["genfun.det_poly_calls"] == 0
    assert m["expansion.decompose_calls"] > 0
    assert 0 < m["neighbors.family_yield"] <= 1
    _, m = traced_pass("oracle-scan")
    assert m["digraph.is_functional_tree_calls"] > 5**5  # tdmtt, P oracle, conjecture
    assert m["neighbors.expansion_family_s"] == 0


# --- the benchmark's contract ----------------------------------------------------


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "slowest_job_s", "setup_s", "peak_rss_mib"]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )


def test_probe_does_its_fixed_work():
    assert subprocess.run([sys.executable, str(BENCH / "probe.py")], timeout=60).returncode == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fast-path", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
