"""medwave benchmark: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy. The run sets up the
workload three times (each set-up: import of medwave in a fresh
interpreter, input generation, one untimed warm-up operation), then runs
operations in a closed loop of one caller for ``--seconds`` seconds, and at
least ``min_ops`` of them, checking each output. BLAS and OpenMP pools are
pinned to one thread. End-to-end times are normalized by a reference
kernel timed around each op and set-up (see ``reference.py``); the traced
run also reports wall seconds.

With ``--trace 0`` every operation runs untraced and the run reports the
end-to-end metrics. With ``--trace 1`` every second operation runs with
the medwave layers wrapped (see ``spans.py``); the run reports per-layer
self times and counts per traced operation, the import time, the op and
reference seconds, and the tracing overhead against the untraced ops.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it,
starting ``info``, holds the op count, the failure share, the sha256
fingerprint of the outputs of the first ``min_ops`` operations and the
seconds of every op with the reference passes around it.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"      # before numpy is imported, here and below

import argparse
import hashlib
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from reference import Reference, normalized  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS = 3      # set-ups per run; setup_s is their median

MODULES = ("dataio", "grid", "medians", "wavelets", "shrinkage", "estimator",
           "simulate", "config", "cli")

IMPORT_PROBE = ("import time; t = time.perf_counter(); import medwave; "
                "t = time.perf_counter() - t; print(medwave.__file__); "
                "print(repr(t))")


def load_medwave():
    """Import medwave from this checkout's ``src/``, with every module the
    tracer wraps."""
    if not (SRC / "medwave" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no medwave source under {SRC}")
    sys.path.insert(0, str(SRC))
    medwave = importlib.import_module("medwave")
    if Path(medwave.__file__).resolve().parent != SRC / "medwave":
        raise SystemExit(f"run.py: imported medwave from {medwave.__file__}")
    for name in MODULES:
        importlib.import_module(f"medwave.{name}")
    return medwave


def import_seconds() -> float:
    """Time of ``import medwave`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    where, seconds = proc.stdout.split()
    if Path(where).resolve().parent != SRC / "medwave":
        raise SystemExit(f"run.py: fresh interpreter imported {where}")
    return float(seconds)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def run(args, medwave, workdir: str) -> dict:
    workload = WORKLOADS[args.workload](medwave, workdir)

    reference = Reference(workload.reference_kind)
    reference()
    import_times = []
    setups = []                     # (set-up seconds, reference before, after)
    for k in range(SETUPS):
        before = reference()
        imported = import_seconds()
        t0 = time.perf_counter()
        workload.setup()
        workload.prepare([args.seed, k, 1])
        try:
            workload.op()
        except Exception:   # the timed operations report it as a failure
            traceback.print_exc()
        import_times.append(imported)
        setups.append((imported + time.perf_counter() - t0, before,
                       reference()))

    tracer = Tracer() if args.trace else None
    plain, traced = [], []          # (op seconds, reference before, after)
    kept = {}                       # op index < min_ops -> (mise, sha256)
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    i = 0
    while i < workload.min_ops or time.perf_counter() < deadline:
        workload.prepare([args.seed, i, 0])
        before = reference()
        tracing = tracer is not None and i % 2 == 1
        attempted += 1
        try:
            if tracing:
                tracer.install()
            try:
                t0 = time.perf_counter()
                out = workload.op()
                seconds = time.perf_counter() - t0
            finally:
                if tracing:
                    tracer.uninstall()
            (traced if tracing else plain).append(
                (seconds, before, reference()))
            result = workload.check(out)
            if i < workload.min_ops:
                kept[i] = result
        except checks.CheckFailed as exc:
            failed += 1
            print(f"op {i}: check failed: {exc}", file=sys.stderr)
        except Exception:   # boundary: a crashing op is a failed op
            failed += 1
            print(f"op {i}: raised", file=sys.stderr)
            traceback.print_exc()
        out = None
        i += 1

    plain_s = [normalized(*op) for op in plain]
    traced_s = [normalized(*op) for op in traced]
    metrics = {}
    if args.trace:
        if traced:
            metrics.update(tracer.metrics(len(traced)))
        metrics["medwave.import_s"] = (statistics.median(import_times), "s")
        metrics["wall.setup_s"] = (
            statistics.median(s for s, _, _ in setups), "s")
        if plain:
            metrics["wall.op_s_p50"] = (
                statistics.median(op for op, _, _ in plain), "s")
            metrics["wall.ref_s_p50"] = (
                statistics.median(b + a for _, b, a in plain) / 2.0, "s")
        if traced and plain:
            metrics["trace.overhead_frac"] = (
                statistics.median(traced_s) / statistics.median(plain_s)
                - 1.0, "frac")
    else:
        # times are normalized to the reference kernel (see reference.py)
        metrics["setup_s"] = (
            statistics.median(normalized(*s) for s in setups), "s")
        if plain:
            metrics["op_s_p50"] = (statistics.median(plain_s), "s")
            metrics["obs_per_s"] = (
                workload.obs_per_op * len(plain) / sum(plain_s), "1/s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        if kept:
            # a median, as the MISE of heavy-tailed fits has outliers
            metrics["mise"] = (
                statistics.median(m for m, _ in kept.values()), "1")

    fingerprint = hashlib.sha256()
    for i in sorted(kept):
        fingerprint.update(kept[i][1].encode())
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "ops": attempted, "ops_failed_frac": failed / attempted,
        "setups": SETUPS, "fingerprint": fingerprint.hexdigest(),
        "op_s": [[round(t, 6) for t in op] for op in plain + traced],
    }
    return {"info": info, "correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    medwave = load_medwave()
    work_root = ROOT / ".perfbench_work"
    workdir = work_root / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = run(args, medwave, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass    # another run still uses it

    info = result.pop("info")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {info['ops']}  failed {result['failed']}  "
          f"ops_failed_frac {info['ops_failed_frac']:.4g}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:<26} {value:>14.6g} {unit}")
    print(f"  fingerprint {info['fingerprint']}")
    print("info " + json.dumps(info))
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
