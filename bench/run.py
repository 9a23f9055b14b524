"""Run one benchmark workload of gracelab CLI jobs and print its metrics.

    python3 bench/run.py --workload oracle-scan --seed 1 --seconds 16 --trace 0
    python3 bench/run.py --workload all        # every workload, one line each

Jobs run one after another in a closed loop with one client: each job is a
fresh ``python -m gracelab.cli`` process, timed from spawn to exit, and its
output is checked (workloads.py).  A run repeats whole rounds of the job
list until --seconds have passed and reports medians over rounds.

On a shared host (other machines' work on the same cores) the speed can
drift by a quarter and more over minutes, which a run of a few tens of
seconds cannot average out.  So a run also times probe.py, a fixed
pure-Python workload that does not touch gracelab, before and after every
job, and reports every time at reference speed:
    measured time * PROBE_REFERENCE_S / median(probe times of the run).
A change to gracelab moves the jobs, not the probe, so it shows in full.
The measured times and the slowdown factor are printed before the result.

--trace 0 prints the end-to-end metrics; --trace 1 runs the same job list
in-process, once plainly and once with recording wrappers (tracer.py), and
prints the per-layer metrics.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "bench"
PROBE = Path(__file__).with_name("probe.py")
PROBE_REFERENCE_S = 0.13  # probe.py's wall time on a quiet 2-vCPU Xeon, Python 3.11


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def build() -> None:
    """Compile the package from source and make sure the children will import
    this checkout's copy; exits with an error when there is no program."""
    if not (SRC / "gracelab" / "cli.py").is_file():
        sys.exit(f"error: no gracelab sources under {SRC}")
    OUT.mkdir(parents=True, exist_ok=True)
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "gracelab")], check=True
    )
    where = subprocess.run(
        [sys.executable, "-c", "import gracelab; print(gracelab.__file__)"],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if Path(where).resolve().parent != (SRC / "gracelab").resolve():
        sys.exit(f"error: gracelab imported from {where}, not from {SRC}")


def run_job(job: workloads.Job) -> dict:
    """Spawn one CLI process, wait for it with wait4, check its output."""
    out_path, err_path = OUT / "job.out", OUT / "job.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "gracelab.cli", *job.argv],
            stdout=out, stderr=err, env=child_env(), cwd=ROOT,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text()
    stderr = err_path.read_text()
    return {
        "job": job.name,
        "exit": proc.returncode,
        "wall_s": wall,
        "rss_mib": usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        **workloads.judge(job, proc.returncode, stdout, stderr),
    }


def probe_sample() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, str(PROBE)], check=True)
    return time.perf_counter() - start


def setup_sample() -> float:
    record = run_job(workloads.SETUP_JOB)
    if not record["ok"]:
        sys.exit(f"error: setup job failed: {record['error']}")
    return record["wall_s"]


def rounds_until(seconds: float, one_round) -> list:
    """Whole rounds, at least one, until `seconds` have passed."""
    start = time.perf_counter()
    rounds = [one_round(1)]
    while time.perf_counter() - start < seconds:
        rounds.append(one_round(len(rounds) + 1))
    return rounds


def summarize(records: list[dict]) -> tuple[bool, int, int]:
    failed = [r for r in records if not r["ok"]]
    correct = all(r["known_fault"] for r in failed)
    return correct, len(records), len(failed)


def show(workload: str, round_no: int, r: dict) -> None:
    status = "ok" if r["ok"] else f"FAILED ({r['error']})"
    rss = f" {r['rss_mib']:7.1f} MiB" if "rss_mib" in r else ""
    print(f"{workload} round {round_no}: {r['wall_s']:8.3f} s{rss}  {r['job']}  {status}")


def untraced(workload: str, jobs: list[workloads.Job], seconds: float) -> dict:
    # Set-up and probe samples bracket every job, so that their medians span
    # the whole run rather than one moment of it.
    setup_sample()  # warm the page cache and the bytecode
    setups, probes = [], []

    def one_round(round_no: int) -> list[dict]:
        records = []
        for job in jobs:
            setups.append(setup_sample())
            probes.append(probe_sample())
            records.append(run_job(job))
            probes.append(probe_sample())
            show(workload, round_no, records[-1])
        return records

    rounds = rounds_until(seconds, one_round)
    correct, attempted, failed = summarize([r for rnd in rounds for r in rnd])
    measured = {
        "wall_s": statistics.median(sum(r["wall_s"] for r in rnd) for rnd in rounds),
        "slowest_job_s": statistics.median(max(r["wall_s"] for r in rnd) for rnd in rounds),
        "setup_s": statistics.median(setups),
    }
    slowdown = statistics.median(probes) / PROBE_REFERENCE_S
    print(f"{workload}: slowdown {slowdown:.4f} over {len(probes)} probes; measured "
          + ", ".join(f"{k} {v:.4f} s" for k, v in measured.items()))
    metrics = {k: (v / slowdown, "s") for k, v in measured.items()}
    metrics["peak_rss_mib"] = (
        statistics.median(max(r["rss_mib"] for r in rnd) for rnd in rounds), "MiB"
    )
    return result(correct, attempted, failed, metrics)


def traced(workload: str, seed: int, seconds: float) -> dict:
    def in_process(mode: str, round_no: int) -> dict:
        path = OUT / f"trace-{workload}-{seed}-{mode}-{round_no}.json"
        subprocess.run(
            [sys.executable, str(Path(__file__).with_name("tracer.py")),
             "--workload", workload, "--seed", str(seed), "--mode", mode, "--out", str(path)],
            env=child_env(), cwd=ROOT, check=True,
        )
        return json.loads(path.read_text())

    def one_round(round_no: int):
        plain, traced = in_process("plain", round_no), in_process("traced", round_no)
        for r in traced["jobs"]:
            show(workload + " traced", round_no, r)
        layer = traced["metrics"]
        layer["trace.plain_wall_s"] = sum(r["wall_s"] for r in plain["jobs"])
        layer["trace.overhead_s"] = layer["trace.traced_wall_s"] - layer["trace.plain_wall_s"]
        return plain["jobs"] + traced["jobs"], layer

    rounds = rounds_until(seconds, one_round)
    correct, attempted, failed = summarize([r for records, _ in rounds for r in records])
    metrics = {
        name: (statistics.median(layer[name] for _, layer in rounds), unit)
        for name, unit in tracer.PER_LAYER
    }
    return result(correct, attempted, failed, metrics)


def result(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    build()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if args.trace:
            res = traced(name, args.seed, args.seconds)
        else:
            res = untraced(name, workloads.WORKLOADS[name](args.seed), args.seconds)
        if args.workload == "all":
            res = {"workload": name, **res}
        print(json.dumps(res), flush=True)


if __name__ == "__main__":
    main()
