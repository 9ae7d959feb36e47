"""Acceptance gate: every shipped guarantee, measured at its stated tolerance.

One test per criterion; each records a single PASS/FAIL verdict line (echoed
in the terminal summary) and then asserts it. Each criterion checks what the
method promises at the sample sizes tested, not a limit it only reaches
asymptotically: criterion 4 holds the noise estimate to the exact
finite-sample variance of a 16-draw bin median, integrated independently of
medwave, and prints its distance to the asymptotic h^-2(0) as well;
criterion 7 checks the pointwise risk against the paper's upper bound (a
slope no shallower than the target band's upper edge) and prints the
variance/squared-bias split at u0.
"""

import math

import numpy as np

from conftest import record_acceptance
from medwave.estimator import EstimatorConfig, fit
from medwave.shrinkage import shrink, solve_lambda_star
from medwave.simulate import (
    DesignDist,
    ErrorDist,
    SimulationConfig,
    _covering_bin,
    coupling_check,
    generate_dataset,
    rate_study,
    replication_rng,
)
from medwave.simulate import test_function as regression_function
from medwave.wavelets import build_filter, dwt_qd, idwt_qd

import test_wavelets as tw
from oracles import QUANTILES, scaled_median_variance

SIZES = (4096, 16384, 65536)


def test_criterion_1_transform_correctness():
    # round-trip + Parseval on q in {1,2,3}, T in {4,8,16}, all filters and
    # primary levels; brute-force matrix-oracle equality on every instance
    # with at most 64 entries
    rng = np.random.default_rng(1)
    max_rt = max_pv = 0.0
    for q in (1, 2, 3):
        for T in (4, 8, 16):
            J = int(math.log2(T))
            for name in ("haar", "db2", "db4"):
                filt = build_filter(name)
                for j0 in range(J):
                    x = rng.standard_normal((T,) * q)
                    coeffs = dwt_qd(x[None], filt, j0)
                    back = idwt_qd(coeffs, filt, j0)[0]
                    max_rt = max(max_rt, float(np.max(np.abs(back - x))))
                    ex = float(np.sum(x * x))
                    max_pv = max(max_pv,
                                 abs(float(np.sum(coeffs ** 2)) - ex) / ex)
    max_oracle = 0.0
    for q, T in tw.small_instances():
        J = int(math.log2(T))
        for name in ("haar", "db2", "db4"):
            filt = build_filter(name)
            for j0 in range(J):
                M = tw.oracle_matrix(q, T, name, j0)
                x = rng.standard_normal((T,) * q)
                got = tw.to_vector(dwt_qd(x[None], filt, j0), j0)
                max_oracle = max(max_oracle,
                                 float(np.max(np.abs(got - M @ x.ravel()))))
    ok = max_rt < 1e-10 and max_pv < 1e-10 and max_oracle < 1e-10
    line = record_acceptance(
        1, ok,
        f"transform: round-trip {max_rt:.2e}, Parseval rel {max_pv:.2e}, "
        f"matrix-oracle {max_oracle:.2e} (all < 1e-10)")
    assert ok, line


def test_criterion_2_threshold_constant():
    lam = solve_lambda_star()
    residual = abs(lam - math.log(lam) - 3.0)
    ok = residual < 1e-12 and 4.505 < lam < 4.506
    line = record_acceptance(
        2, ok,
        f"lambda* = {lam:.12f}, residual {residual:.2e} < 1e-12, "
        f"in (4.505, 4.506)")
    assert ok, line


def test_criterion_3_median_coupling():
    g = coupling_check(ErrorDist("gaussian", 1.0), kappa=1001,
                       repetitions=20000, seed=0)
    c = coupling_check(ErrorDist("cauchy", 1.0), kappa=1001,
                       repetitions=20000, seed=0)
    ok = abs(g.variance - 1.0) <= 0.05 and abs(c.variance - 1.0) <= 0.05
    line = record_acceptance(
        3, ok,
        f"normalized-median variance: gaussian {g.variance:.4f}, "
        f"cauchy {c.variance:.4f} (target 1 within 5%, kappa=1001, "
        f"2e4 repetitions)")
    assert ok, line


def test_criterion_4_noise_estimator_calibration():
    # q=2, n=65536 (kappa = 16 observations per bin), smooth f, 20
    # replications. The estimate's expectation is 4 kappa Var(median of
    # kappa draws), which reaches h^-2(0) only as kappa -> infinity; the mean
    # estimate is checked against that exact finite-sample value, integrated
    # from the order statistics independently of medwave.
    n, kappa = 65536, 16
    arms = []
    ok = True
    for kind, limit, lname in (("gaussian", 2.0 * math.pi, "2*pi"),
                               ("cauchy", math.pi ** 2, "pi^2")):
        target = scaled_median_variance(QUANTILES[kind], kappa)
        cfg = SimulationConfig(q=2, error_dist=ErrorDist(kind, 1.0),
                               sample_sizes=(n,), replications=20, seed=0)
        vals = []
        for rep in range(20):
            u, y, _ = generate_dataset(cfg, n, replication_rng(0, n, rep))
            res = fit(u, y)
            assert res.design.kappa == kappa
            vals.append(res.noise.h_inv_sq)
        mean = float(np.mean(vals))
        rel = (mean - target) / target
        arms.append(f"{kind} {mean:.4f} vs exact {target:.4f} {rel:+.1%} "
                    f"({lname} {(mean - limit) / limit:+.1%})")
        ok = ok and abs(rel) <= 0.10
    line = record_acceptance(
        4, ok,
        f"mean estimated h^-2(0) against 4*kappa*Var(median), kappa={kappa}: "
        + "; ".join(arms) + " (tolerance 10% of the exact value; the"
        " asymptotic h^-2(0) in parentheses)")
    assert ok, line


def test_criterion_5_global_rate():
    band = (-2.0 / 3.0 - 0.2, -2.0 / 3.0 + 0.2)
    study = rate_study(SimulationConfig(
        q=2, error_dist=ErrorDist("gaussian", 1.0), sample_sizes=SIZES,
        replications=30, seed=0, estimator=EstimatorConfig(wavelet="db2")))
    context = rate_study(SimulationConfig(
        q=2, error_dist=ErrorDist("gaussian", 1.0), sample_sizes=SIZES,
        replications=30, seed=0))
    ok = band[0] <= study.slope <= band[1] \
        and all(np.isfinite(p.mean_mise) for p in study.points)
    line = record_acceptance(
        5, ok,
        f"log-log MISE slope {study.slope:.4f} in [{band[0]:.4f}, "
        f"{band[1]:.4f}] (db2; 30 reps). db4 default: {context.slope:.4f} "
        f"with uniformly smaller MISE — its 4 vanishing moments leave no "
        f"approximation error on the sine product, so it denoises below "
        f"the band")
    assert ok, line


def test_criterion_6_robustness_heavy_tails():
    gaussian = rate_study(SimulationConfig(
        q=2, error_dist=ErrorDist("gaussian", 1.0), sample_sizes=SIZES,
        replications=30, seed=0, estimator=EstimatorConfig(wavelet="db2")))
    cauchy = rate_study(SimulationConfig(
        q=2, error_dist=ErrorDist("cauchy", 1.0), sample_sizes=SIZES,
        replications=30, seed=0,
        design_dist=DesignDist("cauchy", np.eye(2)), beta=(1.0, -0.5),
        estimator=EstimatorConfig(wavelet="db2")))
    finite = all(np.isfinite(p.mean_mise) for p in cauchy.points)
    diff = abs(cauchy.slope - gaussian.slope)
    ok = finite and diff <= 0.25
    line = record_acceptance(
        6, ok,
        f"cauchy errors + cauchy design (beta=(1,-0.5)): slope "
        f"{cauchy.slope:.4f} vs gaussian {gaussian.slope:.4f}, "
        f"|diff| {diff:.3f} <= 0.25, all MISE finite: {finite}")
    assert ok, line


def test_criterion_7_pointwise_rate():
    # The paper bounds the pointwise risk from above by
    # (log n / n)^(2a/(2a+q)); the sine product is C^inf, so nothing bounds
    # it from below and only the band's upper edge is checked.
    ceiling = -2.0 / 3.0 + 0.3
    u0 = (0.3, 0.7)
    cfg = SimulationConfig(
        q=2, error_dist=ErrorDist("gaussian", 1.0), sample_sizes=SIZES,
        replications=50, seed=0, u0=u0)
    study = rate_study(cfg)
    means = [p.mean_pointwise for p in study.points]
    monotone = means[0] > means[1] > means[2]
    slope = study.pointwise_slope
    fast_enough = slope <= ceiling
    ok = monotone and fast_enough
    # split each size's risk into the variance and the squared bias of f_hat
    # in the bin covering u0, over the same replications
    f_u0 = float(regression_function(cfg.test_function)(np.asarray([u0]))[0])
    splits = []
    for n in SIZES:
        vals = []
        for rep in range(cfg.replications):
            u, y, _ = generate_dataset(cfg, n, replication_rng(cfg.seed, n, rep))
            res = fit(u, y, cfg.estimator)
            pos = tuple(l - 1 for l in _covering_bin(u0, res.design))
            vals.append(res.f_hat[pos])
        vals = np.asarray(vals)
        splits.append(f"n={n} {vals.var():.2e}/{(vals.mean() - f_u0) ** 2:.1e}")
    line = record_acceptance(
        7, ok,
        f"pointwise risk at (0.3, 0.7): means "
        + " > ".join(f"{m:.3e}" for m in means)
        + f" strictly decreasing: {monotone}; slope {slope:.4f} <= "
        f"{ceiling:.4f}: {fast_enough}. variance/squared bias: "
        + ", ".join(splits))
    assert ok, line


def test_criterion_8_blockwise_oracle_inequality():
    # synthetic gaussian coefficients in one length-8 block; the measured
    # risk must sit under 1.25*min(4*signal, 8*lambda* L/n) + 50 L/n^2
    lam = solve_lambda_star()
    n, L = 1024, 8
    sigma = 1.0 / (2.0 * math.sqrt(n))
    thetas = {
        "sparse": np.array([sigma / 2, sigma / 2, 0, 0, 0, 0, 0, 0]),
        "boundary": np.full(8, math.sqrt((lam - 1.0) * L * sigma ** 2 / 8.0)),
        "dense": np.full(8, 10.0 * sigma),
    }
    rng = np.random.default_rng(2024)
    ok = True
    parts = []
    for name, theta in thetas.items():
        total = 0.0
        draws = 10 ** 4
        for _ in range(draws):
            y = theta + sigma * rng.standard_normal(8)
            # a one-member q = 1 stack, J = 4, j0 = 3: y is its level-3
            # detail subband [8, 16)
            coeffs = np.concatenate([np.zeros(8), y])[None]
            out, _ = shrink(coeffs, 3, n, np.ones(1), L)
            total += float(np.sum((out[0, 8:] - theta) ** 2))
        risk = total / draws
        bound = 1.25 * min(4.0 * float(np.sum(theta ** 2)),
                           8.0 * lam * L / n) + 50.0 * L / n ** 2
        ok = ok and risk <= bound
        parts.append(f"{name} {risk / bound:.3f}")
    line = record_acceptance(
        8, ok,
        "per-block risk/bound ratios (<= 1, 1e4 draws each): "
        + ", ".join(parts))
    assert ok, line


def test_criterion_9_property_suites():
    # re-run the randomized invariant suites (>= 100 cases each) directly
    import test_estimator
    import test_grid
    import test_medians
    import test_shrinkage
    import test_simulate

    suites = [
        ("grid bin/interval agreement", test_grid.test_axis_bins_match_interval_definition),
        ("grid order invariance", test_grid.test_observation_order_irrelevant),
        ("median breakdown", test_medians.test_median_breakdown),
        ("shrinkage against the blockwise oracle", test_shrinkage.test_shrink_matches_blockwise_oracle),
        ("shrinkage factor bounds", test_shrinkage.test_shrinkage_properties_random),
        ("transform round-trip/Parseval", tw.test_round_trip_and_parseval_across_sizes),
        ("transform linearity", tw.test_linearity),
        ("shift equivariance", test_estimator.test_shift_equivariance),
        ("scale equivariance", test_estimator.test_scale_equivariance),
        ("seeded determinism", test_simulate.test_dataset_determinism_property),
    ]
    failed = []
    for name, fn in suites:
        try:
            fn()
        except AssertionError:
            failed.append(name)
    ok = not failed
    line = record_acceptance(
        9, ok,
        f"{len(suites)} randomized invariant suites, >= 100 cases each"
        + ("" if ok else f"; FAILED: {', '.join(failed)}"))
    assert ok, line
