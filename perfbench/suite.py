"""Run every medwave benchmark workload and summarise the runs.

    python3 perfbench/suite.py [--seeds 0-9] [--workloads a,b] [--json PATH]
                               [--record]

For each workload this runs ``run.py`` once per seed with tracing off, one
process at a time, and once more with tracing on (first seed), each for
the ``run_seconds`` of ``BENCHMARK.json``. It prints
every end-to-end metric with its unit: the median over the seeds, the
quartiles, and their spread (q3 - q1) / median beside the metric's bound
from ``BENCHMARK.json``; then the per-layer metrics of the traced run and
the output fingerprint of each seed.

``--json PATH`` writes the raw results. ``--record`` also writes
``perfbench/baseline.json``: the environment (Python, numpy, CPU, cores,
L3, thread pins), each workload's rationale, the medians, the per-layer
breakdown and the fingerprints, as the baseline later changes compare with.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def seed_list(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["info"] = json.loads(lines[-2].removeprefix("info "))
    return result


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarise(spec: dict, runs: list) -> dict:
    out = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs
                  if name in r["metrics"]]
        if not values:
            continue
        q1, q2, q3 = quartiles(values)
        out[name] = {"median": q2, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / q2, "bound": metric["bound"],
                     "unit": metric["unit"], "runs": len(values)}
    return out


def git_head():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def environment() -> dict:
    import numpy

    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "commit": git_head(),
           "nproc": os.cpu_count(), "machine": platform.machine(),
           "thread_pins": {var: "1" for var in THREAD_PINS}}
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True,
                               timeout=30).stdout
    except OSError:
        lscpu = ""
    for line in lscpu.splitlines():
        key, _, value = line.partition(":")
        if key.strip() == "Model name":
            env["cpu"] = value.strip()
        elif key.strip() == "L3 cache":
            env["l3"] = value.strip()
    return env


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-9",
                        help="comma list of seeds or ranges (default 0-9)")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--json", default=None, help="write raw results here")
    parser.add_argument("--record", action="store_true",
                        help="write perfbench/baseline.json")
    args = parser.parse_args(argv)
    seeds = seed_list(args.seeds)
    seconds = spec["run_seconds"]
    why = {w["name"]: w["why"] for w in spec["workloads"]}

    results = {}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, seconds, 0) for s in seeds]
        traced = run_once(workload, seeds[0], seconds, 1)
        summary = summarise(spec, runs)
        results[workload] = {"why": why[workload], "summary": summary,
                             "runs": runs, "traced": traced}

        print(f"{workload}: {len(runs)} runs of {seconds} s, seeds "
              f"{args.seeds}")
        for name, s in summary.items():
            flag = "ok" if s["spread"] < s["bound"] / 3 else "WIDE"
            print(f"  {name:<14} median {s['median']:<12.6g} {s['unit']:<5} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                  f"spread {s['spread']:.4f} (bound {s['bound']}) {flag}")
        ops = [r["attempted"] for r in runs]
        failed = sum(r["failed"] for r in runs)
        print(f"  ops per run {min(ops)}..{max(ops)}, failed {failed}")
        for name, m in traced["metrics"].items():
            print(f"  {name:<26} {m['value']:>14.6g} {m['unit']}")
        for r in runs:
            print(f"  seed {r['info']['seed']:<4} fingerprint "
                  f"{r['info']['fingerprint']}")

    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=1) + "\n")
    if args.record:
        baseline = {
            "environment": environment(),
            "seconds": seconds,
            "seeds": seeds,
            "workloads": {
                name: {
                    "why": r["why"],
                    "end_to_end": r["summary"],
                    "per_layer": {k: v["value"] for k, v in
                                  r["traced"]["metrics"].items()},
                    "fingerprints": {str(run["info"]["seed"]):
                                     run["info"]["fingerprint"]
                                     for run in r["runs"]},
                } for name, r in results.items()},
        }
        (HERE / "baseline.json").write_text(
            json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
