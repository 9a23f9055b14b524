"""The three workloads: seeded CLI job lists and the check for each job.

A job is one ``gracelab`` invocation plus a check of its exit code, stdout
and stderr.  Every check rests on a property the method must have or on a
computation made here (see graphs.py); none compares against saved output.
The program receives only the generated arguments; the workload seed never
reaches it directly.

    python3 bench/workloads.py --seed 1      # print the inputs of seed 1
"""

from __future__ import annotations

import argparse
import json
import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import graphs

DEFAULT_SEED = 1

# The one operation kept although it fails: a negative --seed must be a usage
# error (exit 2 with an "error:" line), but seeds.Lcg raises ValueError, so
# the CLI dies with a traceback and exit 1.
NEGATIVE_SEED_FAULT = "negative --seed raises ValueError in seeds.Lcg (exit 1, not 2)"


class CheckFailed(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    check: Callable[[int, str, str], None]  # (exit code, stdout, stderr)
    known_fault: str | None = None

    @property
    def name(self) -> str:
        return " ".join(self.argv)


def judge(job: Job, code: int, out: str, err: str) -> dict:
    """Run the job's check; a job fails on a wrong exit code or a failed check."""
    try:
        job.check(code, out, err)
    except (CheckFailed, ValueError, KeyError, IndexError) as exc:
        # ValueError, KeyError and IndexError come from output too malformed
        # to parse, which is a failed check as well.
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}", "known_fault": job.known_fault}
    return {"ok": True, "error": None, "known_fault": job.known_fault}


# --- parsing helpers ---------------------------------------------------------


def _fields(out: str) -> dict[str, str]:
    fields = {}
    for line in out.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key] = value
    return fields


def _exit(code: int, expected: int) -> None:
    expect(code == expected, f"exit code {code}, expected {expected}")


def _poly(pairs) -> dict[int, int]:
    poly = {}
    previous = -1
    for e_text, c_text in pairs:
        e, c = int(e_text), int(c_text)
        expect(e > previous, f"exponents not strictly ascending at {e}")
        expect(c != 0, f"stored zero coefficient at exponent {e}")
        poly[e] = c
        previous = e
    return poly


def _digits(e: int, base: int, count: int) -> list[int]:
    digits = []
    for _ in range(count):
        e, d = divmod(e, base)
        digits.append(d)
    expect(e == 0, f"exponent has more than {count} base-{base} digits")
    return digits


def _table(text: str) -> tuple[int, ...]:
    head, _, body = text.partition(":")
    values = tuple(int(v) for v in body.split(","))
    expect(len(values) == int(head), f"malformed table {text!r}")
    return values


def format_table(f) -> str:
    return f"{len(f)}:" + ",".join(str(v) for v in f)


# --- checks --------------------------------------------------------------------


def check_labels_trivial(code: int, out: str, err: str) -> None:
    _exit(code, 0)
    expect(out == "0\n", f"labels of 1:0 printed {out!r}")


def check_usage_error(code: int, out: str, err: str) -> None:
    _exit(code, 2)
    expect(out == "", "a usage error printed to stdout")
    expect(err.startswith("error:"), "no 'error:' line on stderr")


def check_tdmtt(n: int, seed: int, code: int, out: str, err: str) -> None:
    _exit(code, 0)
    f = _fields(out)
    expected = graphs.tree_theorem_sum(graphs.lcg_matrix(n, seed, 1, 50))
    expect(int(f["left"]) == expected, f"left {f['left']} != Bareiss {expected}")
    expect(int(f["right"]) == expected, f"right {f['right']} != Bareiss {expected}")
    expect(f["equal"] == "true", "equal is not true")


def _check_p_poly(n: int, poly: dict[int, int]) -> None:
    expect(sum(poly.values()) == n ** (n - 1), "P(1) is not n^(n-1)")
    for e in poly:
        digits = _digits(e, n, n)
        expect(sum(digits) == n, f"exponent {e} does not encode n labels")
        expect(digits[0] == 1, f"exponent {e} has {digits[0]} labels 0, not one")
    chain = 1 + (n - 1) * n  # the label sequence 0, 1, ..., 1
    expect(poly.get(chain) == n, "coefficient of 0,1,...,1 is not n")


def check_genfun_p(n: int, oracle: bool, code: int, out: str, err: str) -> None:
    _exit(code, 0)
    lines = out.splitlines()
    expect(len(lines) == (2 if oracle else 1), f"{len(lines)} lines")
    _check_p_poly(n, _poly(json.loads(lines[0])))
    if oracle:
        expect(lines[1] == "oracle: identical", f"oracle line {lines[1]!r}")


def check_coeff_p(n: int, code: int, out: str, err: str) -> None:
    _exit(code, 0)
    f = _fields(out)
    expect(int(f["exponent"]) == 1 + (n - 1) * n, f"exponent {f['exponent']}")
    expect(int(f["coefficient"]) == n, f"coefficient {f['coefficient']}, not {n}")


def check_genfun_f_structured(n: int, code: int, out: str, err: str) -> None:
    _exit(code, 0)
    doc = json.loads(out)
    expect(
        (doc["command"], doc["which"], doc["n"], doc["status"]) == ("genfun", "f", n, "pass"),
        "wrong header fields",
    )
    poly = _poly(doc["terms"])
    expect(sum(poly.values()) == n**n, "F(1) is not n^n")
    expect(poly.get(n) == 1, "coefficient of x^n is not 1")
    for e in poly:
        expect(sum(_digits(e, n + 1, n)) == n, f"exponent {e} does not encode n labels")


def _reachable_f_exponents(n: int) -> set[int]:
    # Vertex i can take any label 0..max(i, n-1-i); sum the choices.
    exps = {0}
    for i in range(n):
        steps = [(n + 1) ** label for label in range(max(i, n - 1 - i) + 1)]
        exps = {e + s for e in exps for s in steps}
    return exps


def check_props_f(n: int, code: int, out: str, err: str) -> None:
    _exit(code, 0)
    claims = {}
    for line in out.splitlines():
        expect(line.startswith("F: claim="), f"unexpected line {line!r}")
        parts = dict(p.split("=", 1) for p in line[3:].split(" ") if "=" in p)
        claims[parts["claim"]] = parts
    exps = _reachable_f_exponents(n)
    want = {
        "min_degree": str(min(exps)),
        "min_degree_coefficient": "1",
        "max_degree_extremal_sequence": str(max(exps)),
        "term_count_bound": str(len(exps)),
    }
    for claim, computed in want.items():
        expect(claims[claim]["computed"] == computed, f"{claim} computed != {computed}")
        expect(claims[claim]["status"] == "pass", f"{claim} status is not pass")


def check_conjecture(n: int, code: int, out: str, err: str) -> None:
    f = _fields(out)
    expect(int(f["classes"]) == graphs.ROOTED_TREES[n - 1], "class count is not A000081")
    expect(int(f["class_size_total"]) == n ** (n - 1), "class sizes do not sum to n^(n-1)")
    reps = [line.split()[1].rstrip(":") for line in out.splitlines() if line.startswith("class ")]
    expect(len(reps) == graphs.ROOTED_TREES[n - 1], "class line count is not A000081")
    tables = [_table(r) for r in reps]
    expect(all(graphs.is_tree(t) for t in tables), "a representative is not a tree")
    canons = {graphs.canonical_form(t) for t in tables}
    expect(len(canons) == len(tables), "two representatives are conjugate")
    holds = f["holds"] == "true"
    expect(holds == ("missing" not in out), "holds disagrees with the class lines")
    _exit(code, 0 if holds else 1)


def check_tau(n: int, code: int, out: str, err: str) -> None:
    _exit(code, 0)
    f = _fields(out)
    tau = sum(1 for t in graphs.graceful_tables(n) if not graphs.has_isolated_vertex(t))
    c = math.factorial((n - 1) // 2) * math.factorial(n // 2)
    expect(int(f["tau"]) == tau, f"tau {f['tau']} != pruned search {tau}")
    expect(int(f["lower"]) == 2 * c, "lower bound")
    expect(int(f["upper"]) == c * n * 2 ** (n // 2), "upper bound")
    expect(f["within_bounds"] == "true", "within_bounds is not true")


def check_sp(n: int, seed: int, code: int, out: str, err: str) -> None:
    _exit(code, 0)
    lines = out.splitlines()
    tables = set(graphs.graceful_tables(n, fixed_zero=True))
    listed = set()
    for line in lines[:-2]:
        images = [int(v) for v in line.split(",")]
        expect(sorted(images) == list(range(-n + 1, n)), f"not a bijection: {line}")
        g = images[n - 1 :]
        expect(all(images[n - 1 - i] == -g[i] for i in range(n)), f"not odd: {line}")
        listed.add(tuple(i + g[i] for i in range(n)))
    expect(len(listed) == len(lines) - 2, "repeated signed permutation")
    expect(listed == tables, "signed permutations differ from the graceful tables fixing 0")
    expect(lines[-2] == f"count: {len(tables)}", f"count line {lines[-2]!r}")
    a = graphs.lcg_matrix(n, seed, 1, 100)
    total = sum(math.prod(a[i][t[i]] for i in range(n)) for t in tables)
    expect(
        lines[-1] == f"identity: left={total} right={total} equal=true",
        f"identity line {lines[-1]!r}, expected both sides {total}",
    )


def _column_parity(n: int) -> int:
    return -1 if ((n - 1) // 2) % 2 else 1


def check_whitty_seeded(n: int, seed: int, code: int, out: str, err: str) -> None:
    _exit(code, 0)
    f = _fields(out)
    lhs = graphs.whitty_determinant(graphs.lcg_matrix(n, seed, 1, 100))
    expect(int(f["lhs"]) == lhs, f"lhs {f['lhs']} != Bareiss {lhs}")
    expect(int(f["rhs"]) == _column_parity(n) * lhs, "rhs is not the label-ordered lhs")
    expect(f["pass"] == "true", "pass is not true")


def _evaluate_symbolic(poly: dict[int, int], a) -> int:
    # Upper-triangle cell k carries x^((n+1)^k): the base-(n+1) digits of
    # an exponent are the multiplicities of the cells in the monomial.
    n = len(a)
    cells = [a[i][j] for i in range(n) for j in range(i, n)]
    total = 0
    for e, c in poly.items():
        digits = _digits(e, n + 1, len(cells))
        total += c * math.prod(v**d for v, d in zip(cells, digits))
    return total


def check_whitty_symbolic(n: int, code: int, out: str, err: str) -> None:
    _exit(code, 0)
    f = _fields(out)
    lhs = _poly(json.loads(f["lhs"]))
    rhs = _poly(json.loads(f["rhs"]))
    rng = random.Random(n)
    upper = [[rng.randint(1, 100) for _ in range(n)] for _ in range(n)]
    a = [[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    expect(
        _evaluate_symbolic(lhs, a) == graphs.whitty_determinant(a),
        "lhs does not evaluate to the Bareiss determinant",
    )
    parity = _column_parity(n)
    expect(rhs == {e: parity * c for e, c in lhs.items()}, "rhs is not the label-ordered lhs")
    expect(f["pass"] == "true", "pass is not true")


def check_gammas(n: int, code: int, out: str, err: str) -> None:
    _exit(code, 0)
    lines = out.splitlines()
    count = math.factorial((n - 1) // 2) * math.factorial(n // 2)
    expect(lines[-1] == f"{count} = {(n - 1) // 2}!*{n // 2}!", f"count line {lines[-1]!r}")
    expect(len(lines) - 1 == count, f"{len(lines) - 1} gammas, expected {count}")
    expect(len(set(lines[:-1])) == count, "repeated gamma")
    for line in lines[:-1]:
        gamma = [int(v) for v in line.split(",")]
        expect(sorted(gamma) == list(range(n)) and gamma[0] == 0, f"not a gamma: {line}")
        # every vertex i needs an in-range step i - gamma(i) or i + gamma(i)
        expect(
            all(i - v >= 0 or i + v <= n - 1 for i, v in enumerate(gamma)),
            f"invalid gamma: {line}",
        )


def check_graceful_rejects(f, code: int, out: str, err: str) -> None:
    # A gracefully labeled table has exactly one label 0, so exactly one
    # fixed point, and conjugation preserves the number of fixed points.
    expect(sum(1 for i, v in enumerate(f) if i == v) == 2, "input lacks two fixed points")
    _exit(code, 0)
    expect(out.splitlines() == ["gracefully_labeled: false", "graceful: false"], "not rejected")


def check_grl_star(n: int, code: int, out: str, err: str) -> None:
    _exit(code, 0)
    want = [format_table((0,) * n), format_table((n - 1,) * n), "count: 2"]
    expect(out.splitlines() == want, "star conjugates are not exactly the two constants")


def check_neighbors(g, code: int, out: str, err: str) -> None:
    _exit(code, 0)
    lines = out.splitlines()
    expect(len(set(lines)) == len(lines), "repeated neighbor")
    for line in lines:
        h = _table(line)
        expect(graphs.is_graceful_labeling(h), f"{line} is not gracefully labeled")
        expect(
            graphs.within_one_image_of_conjugate(h, g),
            f"{line} is not within one image of a conjugate of the input",
        )


# --- seeded inputs -------------------------------------------------------------


def two_fixed_point_table(rng: random.Random, n: int) -> tuple[int, ...]:
    """A random table with exactly two fixed points."""
    fixed = set(rng.sample(range(n), 2))
    return tuple(
        i if i in fixed else rng.choice([v for v in range(n) if v != i]) for i in range(n)
    )


def random_tree(rng: random.Random, n: int) -> tuple[int, ...]:
    """A random recursive functional tree: vertices taken in a random order,
    each pointing at an earlier one; the first is the root and loops."""
    order = list(range(n))
    rng.shuffle(order)
    f = [0] * n
    f[order[0]] = order[0]
    for k in range(1, n):
        f[order[k]] = order[rng.randrange(k)]
    return tuple(f)


def _seed_values(workload: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(1 << 32) for _ in range(count)]


def oracle_scan(seed: int, n: int = 7) -> list[Job]:
    s_tdmtt, s_sp, s_whitty = _seed_values("oracle-scan", seed, 3)
    N = str(n)
    return [
        Job(("tdmtt", "--n", N, "--seed", str(s_tdmtt)), partial(check_tdmtt, n, s_tdmtt)),
        Job(("genfun", "--which", "p", "--n", N, "--oracle"), partial(check_genfun_p, n, True)),
        Job(("props", "--n", N, "--which", "f"), partial(check_props_f, n)),
        Job(("conjecture", "--n", N), partial(check_conjecture, n)),
        Job(("tau", "--n", N), partial(check_tau, n)),
        Job(("sp", "--n", N, "--seed", str(s_sp)), partial(check_sp, n, s_sp)),
        Job(("whitty", "--n", N, "--seed", str(s_whitty)), partial(check_whitty_seeded, n, s_whitty)),
        Job(("sp", "--n", N, "--seed", "-1"), check_usage_error, NEGATIVE_SEED_FAULT),
    ]


def conjugate_inputs(seed: int, n: int = 10) -> dict[str, tuple[int, ...]]:
    rng = random.Random(f"conjugate-search:{seed}")
    return {
        "two_fixed_points": two_fixed_point_table(rng, n),
        "star": (0,) * n,
        "small_star": (0,) * (n - 1),
        "random_tree": random_tree(rng, n),
    }


def conjugate_search(seed: int, n: int = 10) -> list[Job]:
    inputs = conjugate_inputs(seed, n)
    table, tree = inputs["two_fixed_points"], inputs["random_tree"]
    small_star = inputs["small_star"]
    return [
        Job(("graceful", "--graph", format_table(table)), partial(check_graceful_rejects, table)),
        Job(("grl", "--graph", format_table(inputs["star"])), partial(check_grl_star, n)),
        Job(("neighbors", "--graph", format_table(small_star)), partial(check_neighbors, small_star)),
        Job(("neighbors", "--graph", format_table(tree)), partial(check_neighbors, tree)),
    ]


def fast_path(
    seed: int, p_n: int = 10, f_n: int = 9, whitty_n: int = 7, gammas_n: int = 12
) -> list[Job]:
    # No seeded input: the fast sides are deterministic, so the seed is unused.
    chain = ",".join(["0"] + ["1"] * (f_n - 1))
    return [
        Job(("genfun", "--which", "p", "--n", str(p_n)), partial(check_genfun_p, p_n, False)),
        Job(("coeff", "--which", "p", "--sequence", chain), partial(check_coeff_p, f_n)),
        Job(
            ("genfun", "--which", "f", "--n", str(f_n), "--format", "structured"),
            partial(check_genfun_f_structured, f_n),
        ),
        Job(("whitty", "--n", str(whitty_n), "--symbolic"), partial(check_whitty_symbolic, whitty_n)),
        Job(("gammas", "--n", str(gammas_n)), partial(check_gammas, gammas_n)),
    ]


WORKLOADS: dict[str, Callable[..., list[Job]]] = {
    "oracle-scan": oracle_scan,
    "conjugate-search": conjugate_search,
    "fast-path": fast_path,
}

# The fixed cost every job pays: interpreter start, import, parser build.
SETUP_JOB = Job(("labels", "--graph", "1:0"), check_labels_trivial)


def main() -> None:
    parser = argparse.ArgumentParser(description="print a seed's workload inputs")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args()
    for name, make in WORKLOADS.items():
        print(f"{name}:")
        for job in make(args.seed):
            print(f"  {job.name}")
    print("automorphism group sizes:")
    for label, f in conjugate_inputs(args.seed).items():
        print(f"  {label} {format_table(f)}: {graphs.automorphism_count(f)}")


if __name__ == "__main__":
    main()
