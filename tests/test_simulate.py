"""Synthetic data machinery: distributions, datasets, risk, rate study."""

import math
import re
import sys
import threading

import numpy as np
import pytest

from medwave.errors import BadCovariance, BadValue, NonGridSampleSize, ShapeMismatch
from medwave import simulate
from medwave.estimator import EstimatorConfig, FitPlan, fit
from medwave.simulate import (
    CouplingResult,
    DesignDist,
    ErrorDist,
    RatePoint,
    SimulationConfig,
    available_test_functions,
    coupling_check,
    density_at_median,
    generate_dataset,
    mise,
    rate_study,
    replication_rng,
    sample_elliptical,
    sample_errors,
    test_function as regression_function,
)
from medwave.grid import plan_grid, product_grid


# ---------------------------------------------------------------------------
# design distributions
# ---------------------------------------------------------------------------

def test_gaussian_design_covariance():
    dist = DesignDist("gaussian", np.eye(3))
    x = sample_elliptical(dist, 100000, np.random.default_rng(0))
    emp = np.cov(x.T)
    assert np.max(np.abs(emp - np.eye(3))) < 0.05


def test_gaussian_design_general_sigma():
    sigma = np.array([[2.0, 0.6], [0.6, 1.0]])
    dist = DesignDist("gaussian", sigma)
    x = sample_elliptical(dist, 200000, np.random.default_rng(1))
    emp = np.cov(x.T)
    assert np.max(np.abs(emp - sigma)) < 0.05


@pytest.mark.parametrize("kind,nu", [("cauchy", 1.0), ("student_t", 2.0),
                                     ("laplace", 1.0)])
def test_elliptical_designs_are_centered(kind, nu):
    dist = DesignDist(kind, np.eye(2), nu=nu)
    x = sample_elliptical(dist, 100000, np.random.default_rng(2))
    med = np.median(x, axis=0)
    assert np.max(np.abs(med)) < 0.02


def test_linear_part_has_median_zero():
    # X'beta inherits the elliptical symmetry, whatever beta is
    dist = DesignDist("student_t", np.eye(2), nu=2.0)
    x = sample_elliptical(dist, 200000, np.random.default_rng(3))
    lin = x @ np.array([1.0, -2.0])
    assert abs(np.median(lin)) < 0.02


def test_design_covariance_validation():
    with pytest.raises(BadCovariance):
        DesignDist("gaussian", np.zeros((2, 3)))
    with pytest.raises(BadCovariance):
        DesignDist("gaussian", np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(BadCovariance):
        DesignDist("gaussian", np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(BadValue):
        DesignDist("uniform", np.eye(2))
    for nu in (0.0, math.inf, math.nan):
        with pytest.raises(BadValue):
            DesignDist("student_t", np.eye(2), nu=nu)


@pytest.mark.parametrize("sigma, shape", [
    ([[1.0], [1.0, 2.0]], "(2,)"),
    ([[1.0, 0.0], [0.0]], "(2,)"),
    ([1.0, [1.0, 2.0]], "(2,)"),
])
def test_ragged_design_covariance_raises_bad_covariance(sigma, shape):
    # numpy cannot make an array of a ragged nesting; the error names the
    # shape it can make of it, not numpy's "inhomogeneous shape"
    with pytest.raises(BadCovariance, match=rf"^sigma must be square, got "
                       rf"a ragged array of shape {re.escape(shape)}$"):
        DesignDist("gaussian", sigma)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_design_covariance_must_be_finite(bad):
    # checked before symmetry, and named: a NaN is not "not symmetric", and
    # an inf would make every response NaN
    sigma = np.eye(3)
    sigma[2, 1] = sigma[1, 2] = bad
    with pytest.raises(BadCovariance, match=rf"sigma\[1, 2\] = {bad} is "
                       "not finite"):
        DesignDist("gaussian", sigma)


# ---------------------------------------------------------------------------
# error distributions
# ---------------------------------------------------------------------------

def test_density_at_median_values():
    assert density_at_median(ErrorDist("gaussian", 1.0)) \
        == pytest.approx(1.0 / math.sqrt(2 * math.pi))
    assert density_at_median(ErrorDist("gaussian", 2.0)) \
        == pytest.approx(1.0 / (2.0 * math.sqrt(2 * math.pi)))
    assert density_at_median(ErrorDist("cauchy", 1.0)) \
        == pytest.approx(1.0 / math.pi)
    assert density_at_median(ErrorDist("laplace", 0.5)) == pytest.approx(1.0)
    assert density_at_median(ErrorDist("shifted_exponential")) == 0.5
    # student_t at nu=1 is cauchy
    assert density_at_median(ErrorDist("student_t", nu=1.0)) \
        == pytest.approx(1.0 / math.pi)
    # the gamma-function form where math.gamma does not overflow
    for nu in (0.5, 2.0, 3.0, 30.0, 300.0):
        assert density_at_median(ErrorDist("student_t", nu=nu)) \
            == pytest.approx(math.gamma((nu + 1) / 2) / (
                math.sqrt(nu * math.pi) * math.gamma(nu / 2)), rel=1e-12)
    # large nu: finite, and near the gaussian value
    assert math.isfinite(density_at_median(ErrorDist("student_t", nu=400.0)))
    assert density_at_median(ErrorDist("student_t", nu=1e6)) \
        == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-6)


def test_density_at_median_student_t_at_huge_nu():
    gauss = 1.0 / math.sqrt(2 * math.pi)
    for nu in (1e13, 1e16, 1e20):
        assert density_at_median(ErrorDist("student_t", nu=nu)) \
            == pytest.approx(gauss, rel=1e-12)
    # the first correction, 1/(4 nu) = 2.5e-11, must survive
    assert density_at_median(ErrorDist("student_t", nu=1e10)) \
        == pytest.approx((1 - 1 / 4e10) * gauss, rel=1e-12)
    # where the lgamma form still holds, the series agrees with it
    for nu in (400.0, math.nextafter(400.0, math.inf), 401.0, 500.0):
        lgamma_form = math.exp(math.lgamma((nu + 1) / 2)
                               - math.lgamma(nu / 2)) / math.sqrt(nu * math.pi)
        assert density_at_median(ErrorDist("student_t", nu=nu)) \
            == pytest.approx(lgamma_form, rel=1e-12)


def test_density_at_median_degenerate():
    from medwave.errors import UnknownDensityValue
    with pytest.raises(UnknownDensityValue):
        density_at_median(ErrorDist("gaussian", 0.0))
    with pytest.raises(UnknownDensityValue):
        density_at_median(ErrorDist("laplace", 0.0))


def test_error_dist_validation():
    with pytest.raises(BadValue):
        ErrorDist("uniform")
    with pytest.raises(BadValue):
        ErrorDist("gaussian", -1.0)
    for nu in (0.0, math.inf, math.nan):
        with pytest.raises(BadValue):
            ErrorDist("student_t", nu=nu)


@pytest.mark.parametrize("dist", [
    ErrorDist("gaussian", 1.0),
    ErrorDist("cauchy", 1.0),
    ErrorDist("laplace", 2.0),
    ErrorDist("student_t", nu=3.0),
    ErrorDist("shifted_exponential"),
])
def test_error_samples_have_median_zero(dist):
    draws = sample_errors(dist, 100000, np.random.default_rng(4))
    h0 = density_at_median(dist)
    # empirical median is within 4 asymptotic standard errors of 0
    tol = 4.0 / (2.0 * h0 * math.sqrt(draws.size))
    assert abs(np.median(draws)) < tol


def test_shifted_exponential_shape():
    draws = sample_errors(ErrorDist("shifted_exponential"), 100000,
                          np.random.default_rng(5))
    assert draws.min() >= -math.log(2.0)
    assert abs(draws.mean() - (1.0 - math.log(2.0))) < 0.02


def test_gaussian_scale_zero_is_noiseless():
    draws = sample_errors(ErrorDist("gaussian", 0.0), 100,
                          np.random.default_rng(6))
    assert np.all(draws == 0.0)


# every error law, as ErrorDist keywords of its standard (scale 1) form
STANDARD_ERRORS = [dict(kind="gaussian"), dict(kind="cauchy"),
                   dict(kind="laplace"), dict(kind="student_t", nu=3.0),
                   dict(kind="shifted_exponential")]


@pytest.mark.parametrize("law", STANDARD_ERRORS, ids=lambda law: law["kind"])
def test_scale_multiplies_every_kind_of_error(law):
    # a draw at scale s is s times the standard draw from the same stream,
    # bit for bit, and h(0) is divided by s
    standard = ErrorDist(**law)
    std_draws = sample_errors(standard, 2000, np.random.default_rng(12))
    std_h0 = density_at_median(standard)
    for scale in (1.0, 2.0, 0.3, 7.5):
        dist = ErrorDist(scale=scale, **law)
        draws = sample_errors(dist, 2000, np.random.default_rng(12))
        assert draws.tobytes() == (scale * std_draws).tobytes()
        assert density_at_median(dist) == pytest.approx(std_h0 / scale,
                                                        rel=1e-15)
    assert np.all(sample_errors(ErrorDist(scale=0.0, **law), 50,
                                np.random.default_rng(12)) == 0.0)


@pytest.mark.parametrize("law", STANDARD_ERRORS, ids=lambda law: law["kind"])
def test_scale_is_checked_for_every_kind(law):
    from medwave.errors import UnknownDensityValue
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(BadValue, match="scale"):
            ErrorDist(scale=bad, **law)
    with pytest.raises(UnknownDensityValue, match="scale 0"):
        density_at_median(ErrorDist(scale=0.0, **law))


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------

def test_function_registry():
    assert available_test_functions() == ("blocks", "sine_product", "zero")
    assert regression_function("sine_product").nominal_alpha == 2.0
    assert regression_function("blocks").nominal_alpha == 0.5
    assert regression_function("zero").nominal_alpha is None
    with pytest.raises(BadValue):
        regression_function("doppler")


@pytest.mark.parametrize("name", ["sine_product", "blocks", "zero"])
@pytest.mark.parametrize("q,n", [(1, 4096), (2, 4096)])
def test_functions_are_centered_on_both_grids(name, q, n):
    fn = regression_function(name)
    design = plan_grid(n, q)
    for grid in (product_grid(np.arange(design.m + 1) / design.m, q),
                 product_grid(np.arange(1, design.T + 1) / design.T, q)):
        assert abs(float(np.mean(fn(grid)))) <= 1e-9


def test_sine_product_factorizes():
    fn = regression_function("sine_product")
    u = np.array([[0.1, 0.3], [0.25, 0.7]])
    expected = np.sin(2 * np.pi * u[:, 0]) * np.sin(2 * np.pi * u[:, 1])
    np.testing.assert_allclose(fn(u), expected)


# ---------------------------------------------------------------------------
# dataset generation
# ---------------------------------------------------------------------------

FULL_CFG = SimulationConfig(
    q=1, error_dist=ErrorDist("gaussian", 1.0), sample_sizes=(1024,),
    design_dist=DesignDist("cauchy", np.eye(2)), beta=(1.0, -0.5), seed=0)


def test_dataset_determinism():
    u1, y1, f1 = generate_dataset(FULL_CFG, 1024, replication_rng(0, 1024, 3))
    u2, y2, f2 = generate_dataset(FULL_CFG, 1024, replication_rng(0, 1024, 3))
    assert np.array_equal(u1, u2)
    assert np.array_equal(y1, y2)
    assert np.array_equal(f1, f2)
    _, y3, _ = generate_dataset(FULL_CFG, 1024, replication_rng(0, 1024, 4))
    assert not np.array_equal(y1, y3)
    _, y4, _ = generate_dataset(FULL_CFG, 1024, replication_rng(1, 1024, 3))
    assert not np.array_equal(y1, y4)


def test_dataset_determinism_property():
    # 100+ replication indices: regeneration is bit-identical, neighbors differ
    for index in range(105):
        a = generate_dataset(FULL_CFG, 256, replication_rng(0, 256, index))
        b = generate_dataset(FULL_CFG, 256, replication_rng(0, 256, index))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        c = generate_dataset(FULL_CFG, 256, replication_rng(0, 256, index + 1))
        assert not np.array_equal(a[1], c[1])


def test_noiseless_dataset_equals_truth():
    cfg = SimulationConfig(q=2, error_dist=ErrorDist("gaussian", 0.0),
                           sample_sizes=(4096,), seed=0)
    u, y, f_grid = generate_dataset(cfg, 4096, replication_rng(0, 4096, 0))
    fn = regression_function("sine_product")
    np.testing.assert_array_equal(y, fn(u))
    design = plan_grid(4096, 2)
    assert u.shape == (4096, 2)
    assert f_grid.shape == design.tensor_shape()
    np.testing.assert_array_equal(
        f_grid.ravel(),
        fn(product_grid(np.arange(1, design.T + 1) / design.T, 2)))


def test_zero_beta_leaves_regression_untouched():
    cfg = SimulationConfig(
        q=1, error_dist=ErrorDist("gaussian", 0.0), sample_sizes=(256,),
        design_dist=DesignDist("gaussian", np.eye(2)), beta=(0.0, 0.0),
        seed=0)
    u, y, _ = generate_dataset(cfg, 256, replication_rng(0, 256, 0))
    np.testing.assert_array_equal(y, regression_function("sine_product")(u))


def test_heavy_tailed_design_moves_responses():
    # with cauchy X'beta the responses pick up huge excursions
    u, y, _ = generate_dataset(FULL_CFG, 1024, replication_rng(0, 1024, 0))
    fn_vals = regression_function("sine_product")(u)
    assert np.max(np.abs(y - fn_vals)) > 10.0


def textbook_design(dist, count, rng):
    """X drawn by plain expressions, each making a new array."""
    z = rng.standard_normal((count, dist.p)) @ dist._chol.T
    if dist.kind == "gaussian":
        return z
    if dist.kind in ("student_t", "cauchy"):
        w = rng.chisquare(dist.nu, size=count) / dist.nu
        return z / np.sqrt(w)[:, None]
    w = rng.exponential(1.0, size=count)
    return z * np.sqrt(w)[:, None]


SIGMAS = {1: [[2.0]], 2: [[1.0, 0.3], [0.3, 2.0]],
          3: [[1.0, 0.2, 0.1], [0.2, 1.5, -0.3], [0.1, -0.3, 0.8]]}
DESIGNS = [None] + [(kind, p) for kind in simulate._DESIGN_KINDS
                    for p in (1, 2, 3)]
ERRORS = [ErrorDist("gaussian", 0.5), ErrorDist("cauchy", 2.0),
          ErrorDist("student_t", 1.5, nu=2.5), ErrorDist("laplace", 0.7),
          ErrorDist("shifted_exponential", 1.2)]


@pytest.mark.parametrize("error", ERRORS, ids=lambda e: e.kind)
@pytest.mark.parametrize("design", DESIGNS, ids=str)
def test_in_place_draw_is_the_textbook_sum(design, error):
    # y = f_u + X beta + xi, summed in that order, with X and xi drawn by
    # the generator calls that allocate: the draw into a row of a buffer and
    # generate_dataset are both bit for bit this sum
    n, reps = 1089, 3
    if design is None:
        law, beta = None, ()
    else:
        kind, p = design
        law = DesignDist(kind, np.array(SIGMAS[p]),
                         nu=3.0 if kind == "student_t" else 1.0)
        beta = (1.0, -0.5, 0.25)[:p]
    cfg = SimulationConfig(q=2, sample_sizes=(n,), error_dist=error,
                           design_dist=law, beta=beta, seed=7)
    u = product_grid(np.arange(33) / 32, 2)
    f_u = regression_function(cfg.test_function)(u)
    expected = []
    for r in range(reps):
        rng = replication_rng(7, n, r)
        y = f_u if law is None else \
            f_u + textbook_design(law, n, rng) @ np.asarray(beta)
        expected.append(y + sample_errors(error, n, rng))
    bits = lambda v: np.asarray(v).view(np.uint64).tolist()
    ctx = simulate._SizeContext(cfg, n)
    Y = np.full((reps, n), np.nan)
    for r, row in enumerate(Y):
        assert ctx.responses(replication_rng(7, n, r), out=row) is row
    assert bits(Y) == bits(expected)
    for r in range(reps):
        u_r, y_r, _ = generate_dataset(cfg, n, replication_rng(7, n, r))
        assert np.array_equal(u_r, u)
        assert bits(y_r) == bits(expected[r])


# ---------------------------------------------------------------------------
# risk functional
# ---------------------------------------------------------------------------

def test_mise_examples():
    a = np.zeros((2, 2))
    assert mise(a, a) == 0.0
    assert mise(a + 3.0, a) == pytest.approx(9.0)
    assert mise(np.array([[0.0, 0.0], [0.0, 0.0]]),
                np.array([[1.0, 1.0], [1.0, 1.0]])) == pytest.approx(1.0)
    assert mise(np.array([1.0, 0.0]), np.array([0.0, 0.0])) \
        == pytest.approx(0.5)
    with pytest.raises(ShapeMismatch):
        mise(np.zeros((2, 2)), np.zeros((4,)))


# ---------------------------------------------------------------------------
# replications
# ---------------------------------------------------------------------------

def test_replication_rng_streams_are_stable():
    a = replication_rng(0, 1024, 5).standard_normal(4)
    b = replication_rng(0, 1024, 5).standard_normal(4)
    c = replication_rng(0, 1024, 6).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def replication_fit(cfg, n, index):
    """Replication ``index`` at size n, drawn and fitted alone through the
    public path, with the truth on the estimation grid."""
    u, y, f_grid = generate_dataset(cfg, n, replication_rng(cfg.seed, n, index))
    return fit(u, y, cfg.estimator), f_grid


def test_scores_measure_against_truth():
    cfg = SimulationConfig(q=1, error_dist=ErrorDist("gaussian", 0.5),
                           sample_sizes=(1024,), seed=0)
    [(m, p)] = simulate._study_scores(cfg)
    assert p is None
    # recompute the mise from a fit of the replication's dataset
    res, f_grid = replication_fit(cfg, 1024, 0)
    assert m.shape == (1,)
    assert m[0] == mise(res.f_hat, f_grid)


def test_pointwise_error_uses_covering_bin():
    cfg = SimulationConfig(q=1, error_dist=ErrorDist("gaussian", 0.0),
                           sample_sizes=(1024,), seed=0, u0=(0.7,))
    [(_, p)] = simulate._study_scores(cfg)
    res, _ = replication_fit(cfg, 1024, 0)
    T = res.design.T
    bin_index = math.ceil(0.7 * T)            # covering bin: (l-1)/T < u0 <= l/T
    truth = math.sin(2 * math.pi * 0.7)
    expected = (res.f_hat[bin_index - 1] - truth) ** 2
    assert p[0] == pytest.approx(float(expected), rel=1e-12)


def test_pointwise_error_at_domain_edges():
    for u0 in ((0.0,), (1.0,)):
        cfg = SimulationConfig(q=1, error_dist=ErrorDist("gaussian", 0.0),
                               sample_sizes=(256,), seed=0, u0=u0)
        [(_, p)] = simulate._study_scores(cfg)
        res, _ = replication_fit(cfg, 256, 0)
        T = res.design.T
        pos = 0 if u0[0] == 0.0 else T - 1
        truth = math.sin(2 * math.pi * u0[0])
        expected = (res.f_hat[pos] - truth) ** 2
        assert p[0] == pytest.approx(float(expected), rel=1e-12)


def test_bias_correction_reduces_global_offset():
    # asymmetric errors push every bin median off by the same drift; the
    # half-bin correction removes most of it
    cfg = SimulationConfig(q=1, error_dist=ErrorDist("shifted_exponential"),
                           sample_sizes=(65536,), replications=30, seed=0)
    on = EstimatorConfig()
    off = EstimatorConfig(bias_correction=False)
    drift_on = drift_off = 0.0
    for rep in range(30):
        rng = replication_rng(0, 65536, rep)
        u, y, f_grid = generate_dataset(cfg, 65536, rng)
        drift_on += float(np.mean(fit(u, y, on).f_hat) - np.mean(f_grid))
        drift_off += float(np.mean(fit(u, y, off).f_hat) - np.mean(f_grid))
    assert abs(drift_on / 30) < abs(drift_off / 30) / 3.0


def test_cauchy_errors_stress():
    # wild individual observations, yet the median pipeline stays accurate
    cfg = SimulationConfig(q=1, error_dist=ErrorDist("cauchy", 1.0),
                           sample_sizes=(65536,), replications=10, seed=0)
    for rep in range(10):
        rng = replication_rng(0, 65536, rep)
        u, y, f_grid = generate_dataset(cfg, 65536, rng)
        assert np.max(np.abs(y)) / np.median(np.abs(y)) > 100.0
        risk = mise(fit(u, y).f_hat, f_grid)
        assert np.isfinite(risk)
        assert risk < 0.01


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

def test_simulation_config_validation():
    err = ErrorDist("gaussian", 1.0)
    with pytest.raises(BadValue):
        SimulationConfig(q=0, error_dist=err, sample_sizes=(256,))
    with pytest.raises(BadValue):
        SimulationConfig(q=1, error_dist=err, sample_sizes=())
    with pytest.raises(BadValue):
        SimulationConfig(q=1, error_dist=err, sample_sizes=(256,),
                         replications=0)
    with pytest.raises(BadValue):
        SimulationConfig(q=1, error_dist=err, sample_sizes=(256,), seed=-1)
    with pytest.raises(NonGridSampleSize):
        SimulationConfig(q=2, error_dist=err, sample_sizes=(10,))
    with pytest.raises(BadValue):
        SimulationConfig(q=1, error_dist=err, sample_sizes=(256,),
                         test_function="doppler")
    with pytest.raises(BadValue):
        SimulationConfig(q=1, error_dist=err, sample_sizes=(256,),
                         beta=(1.0,))
    with pytest.raises(BadValue):
        SimulationConfig(q=1, error_dist=err, sample_sizes=(256,),
                         design_dist=DesignDist("gaussian", np.eye(2)),
                         beta=(1.0,))
    with pytest.raises(BadValue):
        SimulationConfig(q=1, error_dist=err, sample_sizes=(256,),
                         u0=(0.5, 0.5))
    with pytest.raises(BadValue):
        SimulationConfig(q=1, error_dist=err, sample_sizes=(256,),
                         u0=(1.5,))


# ---------------------------------------------------------------------------
# rate study
# ---------------------------------------------------------------------------

def test_rate_study_requires_enough_structure():
    err = ErrorDist("gaussian", 1.0)
    with pytest.raises(BadValue):
        rate_study(SimulationConfig(q=1, error_dist=err,
                                    sample_sizes=(256, 1024),
                                    replications=10))
    with pytest.raises(BadValue):
        rate_study(SimulationConfig(q=1, error_dist=err,
                                    sample_sizes=(256, 1024, 4096),
                                    replications=5))


def test_rate_study_refuses_an_undefined_slope():
    # a repeated size fits the same replications twice, and a zero mean
    # risk has no logarithm: each raises a BadValue naming its cause
    # instead of returning a slope that the sizes do not define
    with pytest.raises(BadValue, match="sample size 4096 is repeated"):
        rate_study(SimulationConfig(q=1, error_dist=ErrorDist("gaussian", 1.0),
                                    sample_sizes=(4096, 4096, 16384),
                                    replications=10))
    zero = SimulationConfig(q=1, error_dist=ErrorDist("gaussian", 0.0),
                            test_function="zero",
                            sample_sizes=(256, 1024, 4096), replications=10)
    with pytest.raises(BadValue, match="mean MISE is 0 at n=256"):
        rate_study(zero)


def test_rate_study_noiseless_decreases():
    cfg = SimulationConfig(q=1, error_dist=ErrorDist("gaussian", 0.0),
                           sample_sizes=(1024, 4096, 16384),
                           replications=10, seed=0)
    report = rate_study(cfg)
    m = [pt.mean_mise for pt in report.points]
    assert m[0] > m[1] > m[2] > 0.0
    assert report.slope < -0.5
    assert report.target_slope == pytest.approx(-0.8)    # alpha=2, q=1
    assert report.warnings == ()
    assert report.pointwise_slope is None
    for pt in report.points:
        assert pt.se_mise < 1e-15         # no randomness at scale 0
        assert pt.mean_pointwise is None


def test_rate_study_with_pointwise_target():
    cfg = SimulationConfig(q=1, error_dist=ErrorDist("gaussian", 0.5),
                           sample_sizes=(256, 1024, 4096),
                           replications=10, seed=0, u0=(0.3,))
    report = rate_study(cfg)
    assert len(report.points) == 3
    for pt in report.points:
        assert pt.mean_pointwise is not None
        assert pt.se_pointwise is not None
        assert pt.se_mise > 0.0
    assert report.pointwise_slope is not None
    assert np.isfinite(report.pointwise_slope)


def test_rate_study_theory_warnings():
    # blocks has nominal alpha 1/2: d = min(alpha - q/2, 1) = 0 triggers the
    # discretization-bias caveat while the pointwise condition holds
    cfg = SimulationConfig(q=1, error_dist=ErrorDist("gaussian", 0.0),
                           test_function="blocks",
                           sample_sizes=(1024, 4096, 16384),
                           replications=10, seed=0)
    report = rate_study(cfg)
    assert report.target_slope == pytest.approx(-0.5)
    assert len(report.warnings) == 1
    assert "discretization" in report.warnings[0]


def old_rate_study_loop(cfg):
    """The study as one dataset + fit + mise per replication: (n, mean, se,
    pointwise mean, pointwise se) per size and both slopes. Each dataset is
    drawn here, X before xi, and must equal generate_dataset's."""
    fn = regression_function(cfg.test_function)
    f_u0 = float(fn(np.asarray(cfg.u0)[None, :])[0])
    rows = []
    for n in cfg.sample_sizes:
        risks, ptw = [], []
        design = plan_grid(n, cfg.q)
        u = product_grid(np.arange(design.m + 1) / design.m, cfg.q)
        for r in range(cfg.replications):
            rng = replication_rng(cfg.seed, n, r)
            x = sample_elliptical(cfg.design_dist, n, rng)
            y = fn(u) + x @ np.asarray(cfg.beta)
            y = y + sample_errors(cfg.error_dist, n, rng)
            u_gen, y_gen, f_grid = generate_dataset(
                cfg, n, replication_rng(cfg.seed, n, r))
            assert np.array_equal(u_gen, u)
            assert np.array_equal(y_gen.view(np.uint64), y.view(np.uint64))
            res = fit(u, y, cfg.estimator)
            risks.append(mise(res.f_hat, f_grid))
            T = res.design.T
            pos = tuple(min(max(math.ceil(v * T), 1), T) - 1 for v in cfg.u0)
            ptw.append(float((res.f_hat[pos] - f_u0) ** 2))
        root = np.sqrt(cfg.replications)
        risks, ptw = np.array(risks), np.array(ptw)
        rows.append((n, float(risks.mean()),
                     float(np.std(risks, ddof=1) / root),
                     float(ptw.mean()), float(np.std(ptw, ddof=1) / root)))

    def slope(y):
        x = np.log([row[0] for row in rows])
        y = np.log(y)
        xc = x - x.mean()
        return float(np.sum(xc * (y - y.mean())) / np.sum(xc * xc))

    return (rows, slope([row[1] for row in rows]),
            slope([row[3] for row in rows]))


def test_rate_study_matches_the_per_replication_loop():
    # X is drawn before xi, and u0 takes the pointwise branch
    cfg = SimulationConfig(
        q=2, sample_sizes=(256, 1024, 4096), replications=10, seed=11,
        error_dist=ErrorDist("cauchy", 1.0),
        design_dist=DesignDist("student_t", np.array([[1.0, 0.3],
                                                      [0.3, 2.0]]), nu=3.0),
        beta=(1.0, -0.5), u0=(0.3, 0.7),
        estimator=EstimatorConfig(wavelet="db2"))
    report = rate_study(cfg)
    rows, slope, ptw_slope = old_rate_study_loop(cfg)
    got = [(pt.n, pt.mean_mise, pt.se_mise, pt.mean_pointwise,
            pt.se_pointwise) for pt in report.points]
    assert [row[0] for row in got] == [row[0] for row in rows]
    bits = lambda v: np.asarray(v, dtype=float).view(np.uint64).tolist()
    assert bits([row[1:] for row in got]) == bits([row[1:] for row in rows])
    assert bits([report.slope, report.pointwise_slope]) \
        == bits([slope, ptw_slope])


def test_rate_study_stacks_match_single_fits_across_boundaries(monkeypatch):
    # 11 replications: one partial stack at n = 4096 (32 rows fit), 8 + 3
    # at n = 16384 and five pairs and a single at n = 65536
    cfg = SimulationConfig(
        q=2, sample_sizes=(4096, 16384, 65536), replications=11, seed=20,
        error_dist=ErrorDist("cauchy", 1.0), u0=(0.3, 0.7),
        estimator=EstimatorConfig(wavelet="db2"))
    assert [max(1, simulate._STACK_OBS // n) for n in cfg.sample_sizes] \
        == [32, 8, 2]
    stacks = []
    fit_many = FitPlan.fit_many

    def recording(plan, Y):
        stacks.append(np.shape(Y))
        return fit_many(plan, Y)

    monkeypatch.setattr(FitPlan, "fit_many", recording)
    report = rate_study(cfg)
    monkeypatch.undo()
    assert stacks == [(11, 4096), (8, 16384), (3, 16384)] \
        + [(2, 65536)] * 5 + [(1, 65536)]
    f_u0 = float(regression_function(cfg.test_function)(
        np.asarray(cfg.u0)[None, :])[0])
    root = np.sqrt(cfg.replications)
    for point, n in zip(report.points, cfg.sample_sizes):
        m, p = [], []
        for r in range(cfg.replications):
            res, f_grid = replication_fit(cfg, n, r)
            pos = tuple(l - 1 for l in simulate._covering_bin(cfg.u0,
                                                               res.design))
            m.append(mise(res.f_hat, f_grid))
            p.append(float((res.f_hat[pos] - f_u0) ** 2))
        m, p = np.array(m), np.array(p)
        expected = RatePoint(
            n=n, mean_mise=float(m.mean()),
            se_mise=float(np.std(m, ddof=1) / root),
            mean_pointwise=float(p.mean()),
            se_pointwise=float(np.std(p, ddof=1) / root))
        bits = lambda pt: np.array(
            [pt.mean_mise, pt.se_mise, pt.mean_pointwise, pt.se_pointwise]
        ).view(np.uint64).tolist()
        assert point.n == n and bits(point) == bits(expected)


def small_stack_study(monkeypatch):
    """A study whose first size (n = 256) is fitted in five stacks of two
    replications, and the list of the threads that drew its responses, one
    entry per draw."""
    monkeypatch.setattr(simulate, "_STACK_OBS", 512)
    cfg = SimulationConfig(q=1, sample_sizes=(256, 512, 1024),
                           replications=10, seed=3,
                           error_dist=ErrorDist("cauchy", 1.0))
    drawn = []
    responses = simulate._SizeContext.responses

    def recording(ctx, rng, out=None):
        drawn.append(threading.get_ident())
        return responses(ctx, rng, out=out)

    monkeypatch.setattr(simulate._SizeContext, "responses", recording)
    return cfg, drawn


def test_rate_study_raises_a_draw_error_at_its_stack(monkeypatch):
    cfg, drawn = small_stack_study(monkeypatch)
    failure = BadValue("draw 5 failed")
    draw = simulate._SizeContext.responses

    def failing(ctx, rng, out=None):
        y = draw(ctx, rng, out=out)
        if len(drawn) == 6:     # replication 5 of n = 256, in stack 2
            raise failure
        return y

    monkeypatch.setattr(simulate._SizeContext, "responses", failing)
    fitted = []
    fit_many = FitPlan.fit_many
    monkeypatch.setattr(FitPlan, "fit_many",
                        lambda plan, Y: fitted.append(len(Y))
                        or fit_many(plan, Y))
    threads = threading.active_count()
    with pytest.raises(BadValue) as info:
        rate_study(cfg)
    assert info.value is failure
    # stacks 0 and 1 were fitted, stack 2 raised when its draw was awaited
    assert fitted == [2, 2]
    assert len(drawn) == 6
    assert len(set(drawn)) == 1 and drawn[0] != threading.get_ident()
    assert threading.active_count() == threads


def test_rate_study_draws_the_next_size_during_the_last_fit(monkeypatch):
    # n = 256 is fitted in five stacks of two; while this thread fits the
    # fifth, the helper draws the first stack of n = 512. The fit waits for
    # that draw, which a pipeline that ended with each size never starts
    cfg, drawn = small_stack_study(monkeypatch)
    started = threading.Event()
    draw = simulate._SizeContext.responses

    def signalling(ctx, rng, out=None):
        if ctx.n == 512:
            started.set()
        return draw(ctx, rng, out=out)

    monkeypatch.setattr(simulate._SizeContext, "responses", signalling)
    fitted, waited = [], []
    fit_many = FitPlan.fit_many

    def fitting(plan, Y):
        fitted.append(np.shape(Y))
        if len(fitted) == 5:
            waited.append(started.wait(timeout=5.0))
        return fit_many(plan, Y)

    monkeypatch.setattr(FitPlan, "fit_many", fitting)
    rate_study(cfg)
    assert fitted[:6] == [(2, 256)] * 5 + [(1, 512)]
    assert waited == [True]
    assert len(drawn) == 30


def test_rate_study_raises_a_fit_error_after_the_draw_in_flight(monkeypatch):
    cfg, drawn = small_stack_study(monkeypatch)
    failure = BadValue("fit 1 failed")
    fitted = []
    fit_many = FitPlan.fit_many

    def failing(plan, Y):
        fitted.append(len(Y))
        if len(fitted) == 2:
            raise failure
        return fit_many(plan, Y)

    monkeypatch.setattr(FitPlan, "fit_many", failing)
    threads = threading.active_count()
    with pytest.raises(BadValue) as info:
        rate_study(cfg)
    assert info.value is failure
    # the draw of stack 2 was in flight when stack 1's fit raised: it ran
    # to its end, and nothing after it was drawn
    assert len(drawn) == 6
    assert threading.active_count() == threads


def test_scores_hold_under_fast_thread_switching(monkeypatch):
    # the helper draws into one buffer while this thread fits the other; a
    # draw that reached the stack being fitted would change its scores.
    # Stacks of 4 x 4096 (three) then 8 x 2048 (8 and 4): the buffers are
    # viewed in a new shape from the first stack of the second size on
    monkeypatch.setattr(simulate, "_STACK_OBS", 4 * 4096)
    cfg = SimulationConfig(q=1, sample_sizes=(4096, 2048), replications=12,
                           seed=8, error_dist=ErrorDist("cauchy", 1.0))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        scores = simulate._study_scores(cfg)
    finally:
        sys.setswitchinterval(interval)
    assert len(scores) == 2
    for (m, _), n in zip(scores, cfg.sample_sizes):
        expected = [mise(res.f_hat, f_grid) for res, f_grid in
                    (replication_fit(cfg, n, r) for r in range(12))]
        assert m.tobytes() == np.array(expected).tobytes()


def test_rate_study_checks_u_once_per_size(monkeypatch):
    # the u checks run in bin_observations, through the estimator's binding;
    # a plan rebuilt per replication would check u 30 times here
    import medwave.estimator

    checked = []
    binner = medwave.estimator.bin_observations

    def counting(u, design):
        checked.append(design.n)
        return binner(u, design)

    monkeypatch.setattr(medwave.estimator, "bin_observations", counting)
    cfg = SimulationConfig(q=2, error_dist=ErrorDist("gaussian", 1.0),
                           sample_sizes=(256, 1024, 4096), replications=10,
                           seed=0)
    report = rate_study(cfg)
    assert len(report.points) == 3
    assert checked == [256, 1024, 4096]


def test_a_size_builds_its_median_classes_once_in_its_plan(monkeypatch):
    # the plan is made on first use and builds the median classes of its
    # design before any response is fitted; a study builds them once a size
    import medwave.medians as medians_module

    cfg = SimulationConfig(q=2, sample_sizes=(1089,), seed=0,
                           error_dist=ErrorDist("gaussian", 1.0))
    ctx = simulate._SizeContext(cfg, 1089)
    assert "plan" not in vars(ctx)
    plan = ctx.plan
    assert ctx.plan is plan
    assert "median_selections" in vars(plan.design)
    assert (plan.design.n, plan.design.q) == (ctx.design.n, ctx.design.q)

    built, classes = [], medians_module.median_selections

    def counting(design):
        built.append(design.n)
        return classes(design)

    monkeypatch.setattr(medians_module, "median_selections", counting)
    rate_study(SimulationConfig(q=2, error_dist=ErrorDist("gaussian", 1.0),
                                sample_sizes=(256, 1024, 4096),
                                replications=10, seed=0))
    assert built == [256, 1024, 4096]


def test_medwave_simulate_builds_no_plan(tmp_path, capsys, monkeypatch):
    # writing datasets reads the design's geometry only: u is not checked
    # and no plan is made
    from medwave.cli import main

    built = []
    monkeypatch.setattr(simulate, "plan_fit", lambda *args: built.append(args))
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("q = 2\nsample_sizes = 289, 1089\nreplications = 2\n"
                   "error_dist = gaussian:1\nseed = 1\n")
    assert main(["simulate", "--config", str(cfg),
                 "--output-dir", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert len(list((tmp_path / "out").iterdir())) == 6
    assert built == []


# ---------------------------------------------------------------------------
# coupling check
# ---------------------------------------------------------------------------

def test_coupling_check_gaussian():
    res = coupling_check(ErrorDist("gaussian", 1.0), kappa=1001,
                         repetitions=20000, seed=0)
    assert isinstance(res, CouplingResult)
    assert res.target == 1.0
    assert abs(res.variance - 1.0) < 0.05
    assert abs(res.mean) < 3.0 / math.sqrt(res.repetitions)
    assert res.h0 == pytest.approx(1.0 / math.sqrt(2 * math.pi))


def test_coupling_check_determinism_and_validation():
    a = coupling_check(ErrorDist("laplace", 1.0), 101, 2000, seed=7)
    b = coupling_check(ErrorDist("laplace", 1.0), 101, 2000, seed=7)
    assert a == b
    with pytest.raises(BadValue):
        coupling_check(ErrorDist("gaussian", 1.0), kappa=100, repetitions=100)
    with pytest.raises(BadValue):
        coupling_check(ErrorDist("gaussian", 1.0), kappa=-3, repetitions=100)
    with pytest.raises(BadValue):
        coupling_check(ErrorDist("gaussian", 1.0), kappa=101, repetitions=1)


@pytest.mark.parametrize("dist", [ErrorDist("gaussian", 1.0),
                                  ErrorDist("cauchy", 2.0),
                                  ErrorDist("student_t", nu=3.0),
                                  ErrorDist("laplace", 1.0),
                                  ErrorDist("shifted_exponential")],
                         ids=lambda d: d.kind)
def test_coupling_check_matches_an_np_median_loop(dist):
    # the same draws as coupling_check, one np.median per repetition
    for kappa, reps in ((1, 50), (3, 400), (15, 300), (101, 200)):
        res = coupling_check(dist, kappa, reps, seed=kappa)
        rng = np.random.default_rng([kappa, kappa, reps])
        draws = sample_errors(dist, reps * kappa, rng).reshape(reps, kappa)
        meds = np.array([np.median(row) for row in draws])
        meds *= math.sqrt(4.0 * kappa) * density_at_median(dist)
        assert res == CouplingResult(
            variance=float(np.var(meds, ddof=1)), target=1.0,
            mean=float(meds.mean()), kappa=kappa, repetitions=reps,
            h0=density_at_median(dist)), kappa
