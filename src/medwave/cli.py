"""Command-line entry points.

Four subcommands::

    medwave estimate        fit one dataset CSV, write the estimate CSV
    medwave simulate        generate model datasets from a config file
    medwave rate-study      convergence-rate study; writes rates.csv + summary
    medwave coupling-check  variance of the normalized bin median

Exit codes: 0 success; 2 input or validation error (including unreadable
files and malformed flags); 3 numerical degeneracy — a noise estimate at
the clamp floor under ``--strict``.

Each handler imports only what it needs: ``estimate`` runs without loading
any simulation machinery.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="medwave",
        description="Robust wavelet regression on dyadic grids via binned "
                    "medians.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                metavar="{estimate,simulate,rate-study,"
                                        "coupling-check}")

    est = sub.add_parser(
        "estimate",
        help="fit one dataset (CSV with header u1,...,uq,y)",
    )
    est.add_argument("--input", required=True, help="dataset CSV path")
    est.add_argument("--output", default=None,
                     help="estimate CSV path (default: stdout)")
    est.add_argument("--wavelet", default="db4",
                     help="filter name: haar, db2, db4 (default db4)")
    est.add_argument("--j0", type=int, default=None,
                     help="primary resolution level (default: filter-based)")
    est.add_argument("--block-cardinality", type=int, default=None,
                     help="target coefficients per shrinkage block "
                          "(default: floor(ln n))")
    est.add_argument("--noise-mode", default="estimate",
                     help="'estimate' or 'known:VALUE' with VALUE the "
                          "analytic h(0)^-2 (default estimate)")
    est.add_argument("--no-shrinkage", action="store_true",
                     help="skip block shrinkage (medians + bias correction "
                          "only)")
    est.add_argument("--no-bias-correction", action="store_true",
                     help="skip the half-bin median bias correction")
    est.add_argument("--strict", action="store_true",
                     help="treat a clamped (degenerate) noise estimate as "
                          "an error (exit 3)")
    est.set_defaults(handler=_run_estimate)

    sim = sub.add_parser(
        "simulate",
        help="generate datasets from the partial linear model",
    )
    sim.add_argument("--config", required=True, help="config file path")
    sim.add_argument("--output-dir", default=".",
                     help="directory for dataset/truth CSVs (default: .)")
    sim.set_defaults(handler=_run_simulate)

    rate = sub.add_parser(
        "rate-study",
        help="convergence-rate study over the configured sample sizes",
    )
    rate.add_argument("--config", required=True, help="config file path")
    rate.add_argument("--output-dir", default=".",
                      help="directory for rates.csv and summary.txt "
                           "(default: .)")
    rate.set_defaults(handler=_run_rate_study)

    coup = sub.add_parser(
        "coupling-check",
        help="empirical variance of sqrt(4*kappa)*h(0)*median vs target 1",
    )
    coup.add_argument("--error-dist", required=True,
                      help="kind[:param], e.g. gaussian:1.0, cauchy, "
                           "student_t:3, laplace, shifted_exponential")
    coup.add_argument("--kappa", type=int, default=1001,
                      help="observations per median; must be odd "
                           "(default 1001)")
    coup.add_argument("--repetitions", type=int, default=20000,
                      help="number of medians drawn (default 20000)")
    coup.add_argument("--seed", type=int, default=0, help="RNG seed")
    coup.set_defaults(handler=_run_coupling_check)

    return parser


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------

def _run_estimate(args) -> int:
    from .dataio import read_grid_csv, write_estimate_csv, write_rows
    from .estimator import (EstimatorConfig, _parse_noise_mode,
                            evaluate_on_grid, fit)

    u, y = read_grid_csv(args.input)
    q = u.shape[1]

    config = EstimatorConfig(
        wavelet=args.wavelet,
        j0=args.j0,
        block_cardinality=args.block_cardinality,
        shrinkage_enabled=not args.no_shrinkage,
        bias_correction=not args.no_bias_correction,
        known_h_inv_sq=_parse_noise_mode(args.noise_mode, "--noise-mode"),
    )
    result = fit(u, y, config)
    design = result.design

    if result.noise.degenerate:
        cause = ("a single bin has no neighbour to estimate the noise level "
                 "from; --noise-mode known:VALUE gives one" if design.V == 1
                 else "all bin medians identical?")
        print(f"medwave: noise estimate clamped at floor ({cause})",
              file=sys.stderr)
        if args.strict:
            return 3

    table = evaluate_on_grid(result)
    if args.output:
        write_estimate_csv(args.output, table)
    else:
        write_rows(sys.stdout, table[:, :-1], table[:, -1], "fhat")
    print(f"medwave: n={len(y)} q={q} T={design.T} wavelet={config.wavelet} "
          f"b_hat={result.b_hat:.6g} h_inv_sq={result.noise.h_inv_sq:.6g}",
          file=sys.stderr)
    return 0


def _run_simulate(args) -> int:
    import os

    from .config import parse_config
    from .dataio import write_dataset_csv, write_estimate_csv
    from .simulate import _SizeContext, replication_rng

    config = parse_config(args.config)
    os.makedirs(args.output_dir, exist_ok=True)

    for n in config.sample_sizes:
        ctx = _SizeContext(config, n)
        for rep in range(config.replications):
            y = ctx.responses(replication_rng(config.seed, n, rep))
            path = os.path.join(args.output_dir,
                                f"dataset_n{n}_rep{rep}.csv")
            write_dataset_csv(path, ctx.row_template, y)
            print(path)
            if rep == 0:
                table = np.column_stack([ctx.grid_points, ctx.f_grid.ravel()])
                truth_path = os.path.join(args.output_dir, f"truth_n{n}.csv")
                write_estimate_csv(truth_path, table)
                print(truth_path)
    return 0


def _run_rate_study(args) -> int:
    import os

    from .config import parse_config
    from .dataio import _fmt
    from .simulate import rate_study

    config = parse_config(args.config)
    report = rate_study(config)
    os.makedirs(args.output_dir, exist_ok=True)

    has_pointwise = report.pointwise_slope is not None
    cols = ["n", "mean_mise", "se", "slope"]
    if has_pointwise:
        cols += ["pointwise_mean", "pointwise_se", "pointwise_slope"]
    rates_path = os.path.join(args.output_dir, "rates.csv")
    with open(rates_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for pt in report.points:
            row = [str(pt.n), _fmt(pt.mean_mise), _fmt(pt.se_mise),
                   _fmt(report.slope)]
            if has_pointwise:
                row += [_fmt(pt.mean_pointwise), _fmt(pt.se_pointwise),
                        _fmt(report.pointwise_slope)]
            fh.write(",".join(row) + "\n")

    lines = [
        f"rate study: test_function={config.test_function} q={config.q} "
        f"wavelet={config.estimator.wavelet} "
        f"replications={config.replications}",
    ]
    for pt in report.points:
        line = (f"  n={pt.n:<8d} mean MISE={pt.mean_mise:.6e} "
                f"se={pt.se_mise:.3e}")
        if has_pointwise:
            line += (f"  pointwise={pt.mean_pointwise:.6e} "
                     f"se={pt.se_pointwise:.3e}")
        lines.append(line)
    lines.append(f"fitted slope: {report.slope:.4f}")
    if report.target_slope is not None:
        lines.append(f"target slope: {report.target_slope:.4f}")
    if has_pointwise:
        lines.append(f"pointwise slope at u0={config.u0}: "
                     f"{report.pointwise_slope:.4f}")
    for w in report.warnings:
        lines.append(f"warning: {w}")
    summary = "\n".join(lines) + "\n"

    summary_path = os.path.join(args.output_dir, "summary.txt")
    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(summary)
    sys.stdout.write(summary)
    return 0


def _run_coupling_check(args) -> int:
    from .config import _parse_error_dist
    from .simulate import coupling_check

    dist = _parse_error_dist(args.error_dist)
    res = coupling_check(dist, args.kappa, args.repetitions, seed=args.seed)
    print(f"coupling check: {args.error_dist} kappa={res.kappa} "
          f"repetitions={res.repetitions}")
    print(f"  normalized median variance: {res.variance:.6f} "
          f"(target {res.target:g})")
    print(f"  normalized median mean:     {res.mean:.6f}")
    return 0


def main(argv=None) -> int:
    from .errors import MedwaveError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except MedwaveError as exc:
        print(f"medwave: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"medwave: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
