"""One-off reference: wall time of each subcommand at its MAX_N ceiling.

    python3 bench/ceilings.py

Reads the ceilings from gracelab.cli.MAX_N, runs one CLI process per entry
(one at a time; tdmtt at n=8 alone takes minutes) and prints a markdown
table.  This is a reference table, not a workload: nothing checks it.
"""

from __future__ import annotations

import random
import sys

import run
import workloads

sys.path.insert(0, str(run.SRC))

from gracelab.cli import MAX_N  # noqa: E402


def star(n: int) -> str:
    return f"{n}:" + ",".join(["0"] * n)


def argv_at(kind: str, n: int) -> list[str]:
    chain = ",".join(["0"] + ["1"] * (n - 1))
    table = workloads.two_fixed_point_table(random.Random(workloads.DEFAULT_SEED), n)
    return {
        "graceful": ["graceful", "--graph", workloads.format_table(table)],
        "grl": ["grl", "--graph", star(n)],
        "gammas": ["gammas", "--n", str(n)],
        "sp": ["sp", "--n", str(n)],
        "tau": ["tau", "--n", str(n)],
        "genfun-f": ["genfun", "--which", "f", "--n", str(n)],
        "genfun-p": ["genfun", "--which", "p", "--n", str(n)],
        "genfun-oracle": ["genfun", "--which", "p", "--n", str(n), "--oracle"],
        "coeff-f": ["coeff", "--which", "f", "--sequence", chain],
        "coeff-p": ["coeff", "--which", "p", "--sequence", chain],
        "props": ["props", "--n", str(n)],
        "tdmtt": ["tdmtt", "--n", str(n)],
        "whitty": ["whitty", "--n", str(n)],
        "neighbors": ["neighbors", "--graph", star(n)],
        "neighbors-oracle": ["neighbors", "--graph", star(n), "--oracle"],
        "conjecture": ["conjecture", "--n", str(n)],
    }[kind]


def main() -> None:
    run.build()
    print("| MAX_N entry | n | command | wall (s) | max RSS (MiB) | exit |")
    print("| --- | ---: | --- | ---: | ---: | ---: |")
    for kind, n in MAX_N.items():
        job = workloads.Job(tuple(argv_at(kind, n)), lambda code, out, err: None)
        record = run.run_job(job)
        print(f"| `{kind}` | {n} | `{job.name}` | {record['wall_s']:.2f} | {record['rss_mib']:.1f} "
              f"| {record['exit']} |", flush=True)


if __name__ == "__main__":
    main()
