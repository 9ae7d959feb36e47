"""The seed spread of acceptance criteria 4 to 7.

    python3 studies/criteria_spread.py [--output PATH]

Run from the root of a source checkout; medwave is imported from its
``src/`` directory and the exact targets from ``tests/oracles.py``. Each
criterion runs in the exact configuration of its test in
``tests/test_acceptance.py`` on seeds 1 to 10 (the test itself runs seed
0, which this script never does). For every reading it records the band
and the margin, the distance inside the band (negative outside it), and
for every criterion the mean and range of the reading and the margin. The
JSON goes to ``--output`` (default ``studies/criteria_spread.json``).

A change that moves a fit runs this script on both trees and compares the
two outputs: a reading moved by the change must be told apart from one
moved by the seed alone.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"      # before numpy is imported

import argparse
import json
import math
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from medwave.estimator import EstimatorConfig, fit  # noqa: E402
from medwave.simulate import (DesignDist, ErrorDist, SimulationConfig,  # noqa: E402
                              generate_dataset, rate_study, replication_rng)
from oracles import QUANTILES, scaled_median_variance  # noqa: E402

SEEDS = tuple(range(1, 11))
SIZES = (4096, 16384, 65536)
DB2 = EstimatorConfig(wavelet="db2")

# the bands of tests/test_acceptance.py
C4_TOL = 0.10
C5_BAND = (-2.0 / 3.0 - 0.2, -2.0 / 3.0 + 0.2)
C6_MAX = 0.25
C7_CEILING = -2.0 / 3.0 + 0.3


def reading(seed: int, value: float, band: str, margin: float,
            passed: bool, **extra) -> dict:
    return {"seed": seed, "reading": value, "band": band, "margin": margin,
            "pass": passed, **extra}


def criterion_4(seed: int, targets: dict) -> list:
    """Mean estimated noise level over 20 fits at n = 65536 against the
    exact 4 kappa Var(median), one reading per law: (mean - exact)/exact."""
    n, out = 65536, []
    for kind, target in targets.items():
        cfg = SimulationConfig(q=2, error_dist=ErrorDist(kind, 1.0),
                               sample_sizes=(n,), replications=20, seed=seed)
        vals = [fit(*generate_dataset(cfg, n, replication_rng(seed, n, rep))
                    [:2]).noise.h_inv_sq for rep in range(20)]
        rel = (float(np.mean(vals)) - target) / target
        out.append(reading(seed, rel, f"|x| <= {C4_TOL}", C4_TOL - abs(rel),
                           abs(rel) <= C4_TOL, law=kind))
    return out


def criteria_5_and_6(seed: int) -> tuple:
    """Criterion 5's db2 Gaussian slope, and criterion 6's |Cauchy -
    Gaussian| slope difference, which shares that Gaussian study."""
    gaussian = rate_study(SimulationConfig(
        q=2, error_dist=ErrorDist("gaussian", 1.0), sample_sizes=SIZES,
        replications=30, seed=seed, estimator=DB2))
    cauchy = rate_study(SimulationConfig(
        q=2, error_dist=ErrorDist("cauchy", 1.0), sample_sizes=SIZES,
        replications=30, seed=seed,
        design_dist=DesignDist("cauchy", np.eye(2)), beta=(1.0, -0.5),
        estimator=DB2))
    s = gaussian.slope
    lo, hi = C5_BAND
    finite = all(np.isfinite(p.mean_mise) for p in gaussian.points)
    c5 = reading(seed, s, f"[{lo:.4f}, {hi:.4f}]", min(s - lo, hi - s),
                 lo <= s <= hi and finite)
    diff = abs(cauchy.slope - s)
    finite = all(np.isfinite(p.mean_mise) for p in cauchy.points)
    c6 = reading(seed, diff, f"<= {C6_MAX}", C6_MAX - diff,
                 diff <= C6_MAX and finite, cauchy_slope=cauchy.slope,
                 gaussian_slope=s)
    return c5, c6


def criterion_7(seed: int) -> dict:
    """The pointwise-risk slope at (0.3, 0.7), default db4, 50 fits per
    size; it passes below the ceiling with a strictly falling risk."""
    study = rate_study(SimulationConfig(
        q=2, error_dist=ErrorDist("gaussian", 1.0), sample_sizes=SIZES,
        replications=50, seed=seed, u0=(0.3, 0.7)))
    means = [p.mean_pointwise for p in study.points]
    falling = means[0] > means[1] > means[2]
    s = study.pointwise_slope
    return reading(seed, s, f"<= {C7_CEILING:.4f}, risk strictly falling",
                   C7_CEILING - s, s <= C7_CEILING and falling,
                   risk_falling=falling, mean_risk=means)


def summary(rows: list) -> dict:
    values = [r["reading"] for r in rows]
    margins = [r["margin"] for r in rows]
    return {"mean": float(np.mean(values)),
            "range": [min(values), max(values)],
            "margin_mean": float(np.mean(margins)),
            "margin_range": [min(margins), max(margins)],
            "passed": f"{sum(r['pass'] for r in rows)}/{len(rows)}"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--output", default=str(HERE / "criteria_spread.json"))
    args = parser.parse_args(argv)
    assert 0 not in SEEDS, "seed 0 is the acceptance tests' own"

    start = time.perf_counter()
    targets = {kind: scaled_median_variance(QUANTILES[kind], 16)
               for kind in ("gaussian", "cauchy")}
    rows = {"4_gaussian": [], "4_cauchy": [], "5": [], "6": [], "7": []}
    for seed in SEEDS:
        gaussian, cauchy = criterion_4(seed, targets)
        rows["4_gaussian"].append(gaussian)
        rows["4_cauchy"].append(cauchy)
        c5, c6 = criteria_5_and_6(seed)
        rows["5"].append(c5)
        rows["6"].append(c6)
        rows["7"].append(criterion_7(seed))
    seconds = time.perf_counter() - start

    names = {
        "4_gaussian": "criterion 4, Gaussian: (mean h^-2 - exact)/exact",
        "4_cauchy": "criterion 4, Cauchy: (mean h^-2 - exact)/exact",
        "5": "criterion 5: db2 Gaussian MISE slope",
        "6": "criterion 6: |Cauchy slope - Gaussian slope|",
        "7": "criterion 7: pointwise-risk slope at (0.3, 0.7)",
    }
    report = {
        "seeds": list(SEEDS),
        "environment": {"python": platform.python_version(),
                        "numpy": np.__version__, "nproc": os.cpu_count()},
        "seconds": round(seconds, 1),
        "exact_targets": targets,
        "criteria": {key: {"what": names[key], "summary": summary(r),
                           "readings": r} for key, r in rows.items()},
    }
    Path(args.output).write_text(json.dumps(report, indent=1) + "\n")
    for key, entry in report["criteria"].items():
        s = entry["summary"]
        print(f"{entry['what']}: mean {s['mean']:+.4f}, range "
              f"[{s['range'][0]:+.4f}, {s['range'][1]:+.4f}], margin "
              f"[{s['margin_range'][0]:+.4f}, {s['margin_range'][1]:+.4f}], "
              f"passed {s['passed']}")
    print(f"{seconds:.1f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
