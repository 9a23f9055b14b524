"""Collect sets of benchmark runs and compare two sets.

    python3 bench/compare.py collect set-a.jsonl --seeds 1-10
    python3 bench/compare.py collect set-b.jsonl --seeds 11-20 --workload fast-path
    python3 bench/compare.py diff set-a.jsonl set-b.jsonl

`collect` runs bench/run.py once per workload and seed, with the run length
from BENCHMARK.json, and appends one JSON line per run.  `diff` prints, per
workload and end-to-end metric, the median and quartiles of each set and
whether the sets agree within BENCHMARK.json's bounds: each set's spread
(interquartile range over median; not judged for setup_s) is within the
bound, the second median is no worse than the first by more than the
bound, and both sets fail the same share of their operations.  It exits 1
when any pair disagrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(path: str, seeds: list[int], names: list[str]) -> None:
    spec = load_spec()
    with open(path, "a") as fh:
        for name in names:
            for seed in seeds:
                argv = [*spec["command"], "--workload", name, "--seed", str(seed),
                        "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                start = time.perf_counter()
                done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
                elapsed = time.perf_counter() - start
                result = json.loads(done.stdout.splitlines()[-1])
                fh.write(json.dumps({"workload": name, "seed": seed, "result": result}) + "\n")
                fh.flush()
                shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
                print(f"{name} seed {seed}: run took {elapsed:.1f} s, failed "
                      f"{result['failed']}/{result['attempted']} {shown}", flush=True)


def load_set(path: str) -> dict[str, list[dict]]:
    runs = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        record = json.loads(line)
        runs[record["workload"]].append(record["result"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def diff(path_a: str, path_b: str) -> bool:
    spec = load_spec()
    a, b = load_set(path_a), load_set(path_b)
    agree = True
    print(f"{'workload':17} {'metric':14} {'A q1/median/q3':>30} {'B q1/median/q3':>30} "
          f"{'spread A':>9} {'spread B':>9} {'B vs A':>8} {'bound':>6}  verdict")
    for name in [w["name"] for w in spec["workloads"]]:
        if name not in a or name not in b:
            continue
        share_a = {Fraction(r["failed"], r["attempted"]) for r in a[name]}
        share_b = {Fraction(r["failed"], r["attempted"]) for r in b[name]}
        if len(share_a | share_b) != 1:
            agree = False
            print(f"{name:17} failed share differs: A {sorted(map(str, share_a))} B {sorted(map(str, share_b))}")
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            qa = quartiles([r["metrics"][key]["value"] for r in a[name]])
            qb = quartiles([r["metrics"][key]["value"] for r in b[name]])
            spread_a = (qa[2] - qa[0]) / qa[1]
            spread_b = (qb[2] - qb[0]) / qb[1]
            change = (qb[1] - qa[1]) / qa[1]
            worse = change if metric["better"] == "lower" else -change
            ok = worse <= bound and (key == "setup_s" or max(spread_a, spread_b) <= bound)
            agree &= ok
            cells = ["/".join(f"{v:.4g}" for v in q) for q in (qa, qb)]
            print(f"{name:17} {key:14} {cells[0]:>30} {cells[1]:>30} {spread_a:9.3f} "
                  f"{spread_b:9.3f} {change:+8.3f} {bound:6.2f}  {'agree' if ok else 'DISAGREE'}")
    return agree


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="action", required=True)
    p = sub.add_parser("collect", help="run the benchmark and append the results to a set")
    p.add_argument("out")
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--workload", action="append", help="default: every workload")
    p = sub.add_parser("diff", help="compare two sets of runs")
    p.add_argument("a")
    p.add_argument("b")
    args = parser.parse_args()
    if args.action == "collect":
        names = args.workload or [w["name"] for w in load_spec()["workloads"]]
        collect(args.out, parse_seeds(args.seeds), names)
    else:
        sys.exit(0 if diff(args.a, args.b) else 1)


if __name__ == "__main__":
    main()
