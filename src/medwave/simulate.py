"""Monte Carlo harness: data generation, MISE, rate studies, coupling checks.

The synthetic model is the partially linear reduction

    Y_i = f(U_i) + X_i' beta + xi_i,

with U on the full equispaced grid of [0,1]^q, X an optional elliptical
design vector and xi a univariate error with median 0. The nuisance
rho = X'beta + xi is exactly what the median-binning estimator is built to
absorb, so the harness exists to measure how well f is recovered:

* ``rate_study`` runs replications across several sample sizes and fits the
  log-log slope of the mean MISE, to compare with the theoretical target
  -2 alpha / (2 alpha + q) for a test function of nominal smoothness alpha.
* ``coupling_check`` verifies the variance normalization of a sample median:
  sqrt(4 kappa) h(0) median_kappa has variance ~ 1 for any error density
  with positive h(0), which is the engine behind the noise calibration.

Reproducibility: every replication derives its own numpy Generator from the
tuple (seed, n, replication index); nothing touches global RNG state, and
identical triples give bit-identical datasets and fits, however a study
schedules its draws.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .dataio import RowTemplate
from .errors import BadCovariance, BadValue, ShapeMismatch, UnknownDensityValue
from .estimator import EstimatorConfig, FitPlan, plan_fit
# ``fit`` is not called here; it stays bound because the benchmark tracer's
# tests (perfbench/test_checks.py) check that every binding of it is wrapped.
from .estimator import fit  # noqa: F401
from .grid import (GridDesign, _bin_points, _integer, _real, plan_grid,
                   product_grid)
from .medians import _row_medians

__all__ = ["ErrorDist", "DesignDist", "TestFunction", "SimulationConfig",
           "RatePoint", "RateStudyReport", "CouplingResult", "test_function",
           "available_test_functions", "sample_elliptical", "sample_errors",
           "density_at_median", "generate_dataset", "mise", "rate_study",
           "coupling_check", "replication_rng"]


#: observations fitted in one stack, which bounds a rate study's memory: it
#: fits max(1, this // n) replications at once
_STACK_OBS = 2 ** 17


_ERROR_KINDS = ("gaussian", "cauchy", "student_t", "laplace",
                "shifted_exponential")
_DESIGN_KINDS = ("gaussian", "student_t", "cauchy", "laplace")


def _check_nu(kind: str, nu: float) -> None:
    """student_t takes a finite nu > 0; every other kind reads no nu and
    takes only the default 1."""
    if kind == "student_t":
        if not (np.isfinite(_real("nu", nu)) and nu > 0):
            raise BadValue(f"student_t needs a finite nu > 0, got {nu}")
    elif nu != 1:
        raise BadValue(f"{kind} takes no nu, got nu={nu}")


@dataclass(frozen=True)
class ErrorDist:
    """Univariate error distribution with median zero: ``scale`` (finite,
    >= 0) times a standard draw of ``kind``.

    student_t takes a finite ``nu`` > 0, and other kinds only the default
    ``nu`` = 1; the standard shifted_exponential has density
    h(x) = exp(-(x + ln 2)) on x >= -ln 2 (asymmetric).
    """

    kind: str
    scale: float = 1.0
    nu: float = 1.0

    def __post_init__(self):
        if self.kind not in _ERROR_KINDS:
            raise BadValue(f"unknown error distribution {self.kind!r}")
        if not (np.isfinite(_real("scale", self.scale)) and self.scale >= 0):
            raise BadValue(f"scale must be finite and >= 0, got {self.scale}")
        _check_nu(self.kind, self.nu)


@dataclass(frozen=True, eq=False)
class DesignDist:
    """Elliptical distribution of the linear-part covariates X in R^p.

    All kinds are scale mixtures of a N(0, sigma) vector: student_t divides
    by sqrt(chi2_nu / nu) (cauchy is nu = 1), laplace multiplies by the
    square root of an Exp(1) variable. Only student_t takes a ``nu`` other
    than 1. Raises BadCovariance unless sigma is square, finite (naming the
    first entry that is not), symmetric and positive definite.
    """

    kind: str
    sigma: np.ndarray
    nu: float = 1.0

    def __eq__(self, other):
        return (isinstance(other, DesignDist) and self.kind == other.kind
                and self.nu == other.nu
                and np.array_equal(self.sigma, other.sigma))

    def __hash__(self):
        return hash((self.kind, self.nu, self.sigma.tobytes()))

    def __post_init__(self):
        if self.kind not in _DESIGN_KINDS:
            raise BadValue(f"unknown design distribution {self.kind!r}")
        try:
            sigma = np.asarray(_real("sigma", self.sigma))
        except ValueError:      # numpy refuses a ragged nesting
            shape = np.asarray(self.sigma, dtype=object).shape
            raise BadCovariance("sigma must be square, got a ragged array "
                                f"of shape {shape}") from None
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise BadCovariance(f"sigma must be square, got shape {sigma.shape}")
        bad = np.argwhere(~np.isfinite(sigma))
        if bad.size:
            i, j = bad[0]
            raise BadCovariance(
                f"sigma[{i}, {j}] = {sigma[i, j]} is not finite")
        if not np.allclose(sigma, sigma.T, atol=1e-12, rtol=0.0):
            raise BadCovariance("sigma is not symmetric")
        try:
            chol = np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError:
            raise BadCovariance("sigma is not positive definite") from None
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "_chol", chol)
        _check_nu(self.kind, self.nu)

    @property
    def p(self) -> int:
        return self.sigma.shape[0]


def sample_elliptical(dist: DesignDist, count: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` i.i.d. vectors from the elliptical design law."""
    z = rng.standard_normal((count, dist.p)) @ dist._chol.T
    if dist.kind == "gaussian":
        return z
    if dist.kind in ("student_t", "cauchy"):
        w = rng.chisquare(dist.nu, size=count) / dist.nu  # cauchy: nu = 1
        return z / np.sqrt(w)[:, None]
    w = rng.exponential(1.0, size=count)  # laplace
    return z * np.sqrt(w)[:, None]


def sample_errors(dist: ErrorDist, count: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` i.i.d. errors (median zero by construction): the scale
    times ``count`` standard draws."""
    if dist.kind == "gaussian":
        draws = rng.standard_normal(count)
    elif dist.kind == "cauchy":
        draws = rng.standard_cauchy(count)
    elif dist.kind == "student_t":
        draws = rng.standard_t(dist.nu, size=count)
    elif dist.kind == "laplace":
        draws = rng.laplace(0.0, 1.0, size=count)
    else:  # shifted_exponential
        draws = rng.exponential(1.0, size=count) - math.log(2.0)
    draws *= dist.scale
    return draws


#: above this nu the student-t h(0) is taken from its asymptotic series
_T_SERIES_NU = 400.0

#: 1/h(0) of the standard law of every kind but student_t
_STANDARD_INV_H0 = {"gaussian": math.sqrt(2.0 * math.pi), "cauchy": math.pi,
                    "laplace": 2.0, "shifted_exponential": 2.0}


def density_at_median(dist: ErrorDist) -> float:
    """Analytic h(0), the error density at its median: the standard law's
    h(0) over the scale. Raises UnknownDensityValue at scale 0, where the
    law is a point mass."""
    if dist.scale == 0:
        raise UnknownDensityValue(f"{dist.kind} with scale 0 is degenerate")
    if dist.kind != "student_t":
        return 1.0 / (dist.scale * _STANDARD_INV_H0[dist.kind])
    nu = dist.nu
    if nu <= _T_SERIES_NU:
        # log-gamma: math.gamma overflows from nu = 343 on
        h0 = math.exp(math.lgamma((nu + 1) / 2)
                      - math.lgamma(nu / 2)) / math.sqrt(nu * math.pi)
    else:
        # The lgamma difference cancels as nu grows (it is 1.5e-5 off at
        # 1e10), so use the asymptotic series of
        # Gamma((nu+1)/2) / (Gamma(nu/2) sqrt(nu pi)); its first omitted
        # term is below 1e-14 relative from nu = 400 on.
        x = 1.0 / nu
        series = 1.0 - x / 4 + x ** 2 / 32 + 5 * x ** 3 / 128 \
            - 21 * x ** 4 / 2048
        h0 = series / math.sqrt(2.0 * math.pi)
    return h0 / dist.scale


@dataclass(frozen=True)
class TestFunction:
    """Closed-form regression function on [0,1]^q, centered (integral 0).

    ``nominal_alpha`` is the smoothness used for rate targets (None when a
    rate target makes no sense, e.g. the zero function).
    """

    name: str
    evaluator: Callable = field(repr=False)
    nominal_alpha: Optional[float]

    def __call__(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.ndim == 1:
            u = u[:, None]
        return self.evaluator(u)


def _sine_product(u: np.ndarray) -> np.ndarray:
    return np.prod(np.sin(2.0 * np.pi * u), axis=1)


# Piecewise-constant profile with dyadic breakpoints and odd reflection
# about 1/2. The first segment is 0 and the reflection is odd, so grid
# quadrature over {i/m} or {l/T} cancels in exact pairs: the centering
# holds to round-off even though the function is discontinuous.
_BLOCK_EDGES = np.array([0.0, 1.0 / 32, 3.0 / 32, 7.0 / 32, 5.0 / 16,
                         13.0 / 32, 0.5])
_BLOCK_HEIGHTS = np.array([0.0, 0.7, -1.1, 1.5, -0.6, 0.9])


def _blocks_profile(x: np.ndarray) -> np.ndarray:
    lower = np.minimum(x, 1.0 - x)
    seg = np.searchsorted(_BLOCK_EDGES, lower, side="right") - 1
    seg = np.clip(seg, 0, _BLOCK_HEIGHTS.size - 1)
    sign = np.where(x < 0.5, 1.0, np.where(x > 0.5, -1.0, 0.0))
    return sign * _BLOCK_HEIGHTS[seg]


def _blocks_tensor(u: np.ndarray) -> np.ndarray:
    return np.prod(_blocks_profile(u), axis=1)


def _zero(u: np.ndarray) -> np.ndarray:
    return np.zeros(u.shape[0])


_TEST_FUNCTIONS = {
    "sine_product": TestFunction("sine_product", _sine_product,
                                 nominal_alpha=2.0),
    "blocks": TestFunction("blocks", _blocks_tensor, nominal_alpha=0.5),
    "zero": TestFunction("zero", _zero, nominal_alpha=None),
}


def available_test_functions() -> tuple:
    return tuple(sorted(_TEST_FUNCTIONS))


def test_function(name: str) -> TestFunction:
    try:
        return _TEST_FUNCTIONS[name]
    except KeyError:
        raise BadValue(f"unknown test function {name!r}; available: "
                       f"{available_test_functions()}") from None


@dataclass(frozen=True)
class SimulationConfig:
    """Full description of a simulation experiment."""

    q: int
    sample_sizes: tuple
    error_dist: ErrorDist
    replications: int = 1
    test_function: str = "sine_product"
    design_dist: Optional[DesignDist] = None
    beta: tuple = ()
    seed: int = 0
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    u0: Optional[tuple] = None

    def __post_init__(self):
        for name, low in (("q", 1), ("replications", 1), ("seed", 0)):
            _integer(name, getattr(self, name), low)
        if not self.sample_sizes:
            raise BadValue("sample_sizes must be nonempty")
        object.__setattr__(self, "sample_sizes",
                           tuple(_integer("sample_sizes entry", n)
                                 for n in self.sample_sizes))
        object.__setattr__(self, "beta",
                           tuple(_real("beta", b) for b in self.beta))
        for n in self.sample_sizes:
            plan_grid(n, self.q)  # raises NonGridSampleSize when invalid
        test_function(self.test_function)
        if self.design_dist is not None:
            if len(self.beta) != self.design_dist.p:
                raise BadValue(
                    f"beta has length {len(self.beta)} but design is "
                    f"{self.design_dist.p}-dimensional"
                )
        elif self.beta:
            raise BadValue("beta given without a design distribution")
        if not all(np.isfinite(self.beta)):
            raise BadValue("beta must be finite")
        if self.u0 is not None:
            u0 = tuple(_real("u0", v) for v in self.u0)
            if len(u0) != self.q or not all(0.0 <= v <= 1.0 for v in u0):
                raise BadValue(f"u0 must be {self.q} coordinates in [0,1]")
            object.__setattr__(self, "u0", u0)


def replication_rng(seed: int, n: int, index: int) -> np.random.Generator:
    """Independent stream for one replication, derived from (seed, n, index)."""
    return np.random.default_rng([seed, n, index])


def generate_dataset(config: SimulationConfig, n: int,
                     rng: np.random.Generator):
    """One synthetic dataset of size n: (u, y, f_grid), the observation
    locations (n, q), the responses (n,), and the truth f at the V
    estimation grid points as a (T,)*q tensor (what MISE is measured
    against). X is drawn before xi, so a given generator state yields a
    bit-identical dataset.
    """
    ctx = _SizeContext(config, n)
    return ctx.u, ctx.responses(rng), ctx.f_grid


def mise(f_hat: np.ndarray, f_true: np.ndarray) -> float:
    """Grid-quadrature integrated squared error: V^{-1} sum (f_hat - f)^2."""
    if f_hat.shape != f_true.shape:
        raise ShapeMismatch(f"shape mismatch: {f_hat.shape} vs {f_true.shape}")
    diff = f_hat - f_true
    return float(np.mean(diff * diff))


def _covering_bin(u0: tuple, design: GridDesign) -> tuple:
    """1-based axis indices of the bin ((l-1)/T, l/T] containing u0; a
    coordinate of 0 lands in bin 1, as observations do."""
    return tuple(min(max(math.ceil(v * design.T), 1), design.T) for v in u0)


class _SizeContext:
    """What every replication at one sample size n shares: the ``design``,
    the design points ``u`` (n, q), the truth ``f_u`` at them, the V
    estimation points ``grid_points`` (V, q) with the truth ``f_grid`` on
    them as a (T,)*q tensor, and, made on first use, the fit ``plan`` of u
    and the ``row_template`` of u for writing datasets."""

    def __init__(self, config: SimulationConfig, n: int):
        self.config = config
        self.n = n
        self.design = design = plan_grid(n, config.q)
        fn = test_function(config.test_function)
        self.u = product_grid(np.arange(design.m + 1) / design.m, design.q)
        self.f_u = fn(self.u)
        self.grid_points = _bin_points(design)
        self.f_grid = fn(self.grid_points).reshape(design.tensor_shape())

    @cached_property
    def plan(self) -> FitPlan:
        return plan_fit(self.u, self.config.estimator)

    @cached_property
    def row_template(self) -> RowTemplate:
        return RowTemplate(self.u)

    def responses(self, rng: np.random.Generator,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
        """One replication's y, written into ``out`` when given; X is drawn
        first when present, then xi."""
        config = self.config
        y = self.f_u
        if config.design_dist is not None:
            x = sample_elliptical(config.design_dist, self.n, rng)
            y = y + x @ np.asarray(config.beta)
        return np.add(y, sample_errors(config.error_dist, self.n, rng),
                      out=out)


def _study_scores(config: SimulationConfig) -> list:
    """Per sample size, the (R,) MISE and, when u0 is set, the (R,) squared
    errors at u0 (else None) of every replication of a study.

    One helper thread draws stack k + 1 of the sequence of all sizes'
    stacks while this thread fits stack k; the helper must call nothing the
    benchmark tracer wraps. A draw's error is raised at its stack, a fit's
    error once the draw in flight has finished.
    """
    sizes, reps = config.sample_sizes, config.replications
    jobs = [(i, start, min(reps - start, stack))
            for i, stack in enumerate(max(1, _STACK_OBS // n) for n in sizes)
            for start in range(0, reps, stack)]
    buffers = np.empty((2, max(_STACK_OBS, *sizes)))
    if config.u0 is not None:
        # The fitted function is piecewise constant on bins, so its value
        # at u0 is the estimate in the covering bin; the error is taken
        # against f at u0 itself (discretization offset included).
        f_u0 = float(test_function(config.test_function)([config.u0])[0])

    def draw(ctx: _SizeContext, k: int) -> np.ndarray:
        Y = buffers[k % 2, :jobs[k][2] * ctx.n].reshape(-1, ctx.n)
        for r, row in enumerate(Y, jobs[k][1]):
            ctx.responses(replication_rng(config.seed, ctx.n, r), out=row)
        return Y

    scores, upcoming = [], _SizeContext(config, sizes[0])
    with ThreadPoolExecutor(max_workers=1) as helper:
        drawn = helper.submit(draw, upcoming, 0)
        for k, (i, start, count) in enumerate(jobs):
            if start == 0:      # made while the helper draws stack k
                ctx, plan, m, p = upcoming, upcoming.plan, np.empty(reps), None
                if config.u0 is not None:
                    p = np.empty(reps)
                    pos = tuple(l - 1
                                for l in _covering_bin(config.u0, ctx.design))
                if i + 1 < len(sizes):
                    upcoming = _SizeContext(config, sizes[i + 1])
            Y = drawn.result()
            if k + 1 < len(jobs):
                drawn = helper.submit(
                    draw, upcoming if jobs[k + 1][1] == 0 else ctx, k + 1)
            for r, result in enumerate(plan.fit_many(Y), start):
                m[r] = mise(result.f_hat, ctx.f_grid)
                if p is not None:
                    p[r] = (result.f_hat[pos] - f_u0) ** 2
            if start + count == reps:
                scores.append((m, p))
    return scores


@dataclass(frozen=True)
class RatePoint:
    n: int
    mean_mise: float
    se_mise: float
    mean_pointwise: Optional[float] = None
    se_pointwise: Optional[float] = None


@dataclass(frozen=True)
class RateStudyReport:
    points: tuple
    slope: float
    target_slope: Optional[float]
    pointwise_slope: Optional[float]
    warnings: tuple
    config: SimulationConfig = field(repr=False, compare=False, default=None)


def _ols_slope(x: np.ndarray, y: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xc = x - x.mean()
    return float(np.sum(xc * (y - y.mean())) / np.sum(xc * xc))


def _theory_warnings(alpha: Optional[float], q: int) -> tuple:
    """Rate-theory applicability notes for a nominal smoothness alpha."""
    if alpha is None:
        return ()
    notes = []
    target = 2.0 * alpha / (2.0 * alpha + q)
    if not alpha > q / 6.0:
        notes.append(
            f"nominal alpha={alpha} fails alpha > q/6 = {q / 6.0:.3f}; the "
            "pointwise rate guarantee does not apply"
        )
    d = min(alpha - q / 2.0, 1.0)
    if not (d > 0 and 3.0 * d / (2.0 * q) > target):
        notes.append(
            f"nominal alpha={alpha} fails 3d/(2q) > 2a/(2a+q) with "
            f"d=min(alpha-q/2,1)={d:.3f}; discretization bias may dominate "
            "the target rate"
        )
    return tuple(notes)


def rate_study(config: SimulationConfig) -> RateStudyReport:
    """Monte Carlo MISE across sample sizes with a log-log slope fit.

    Requires at least 3 distinct sample sizes, at least 10 replications,
    and a nonzero mean risk at every size, or the slope is not defined
    (BadValue).
    """
    sizes = config.sample_sizes
    if len(sizes) < 3:
        raise BadValue("rate_study needs at least 3 sample sizes")
    repeated = [n for n in sizes if sizes.count(n) > 1]
    if repeated:
        raise BadValue(f"rate_study: sample size {repeated[0]} is repeated")
    if config.replications < 10:
        raise BadValue("rate_study needs at least 10 replications")

    points = []
    for n, scores in zip(sizes, _study_scores(config)):
        stats = []
        for name, risk in zip(("MISE", "pointwise risk"), scores):
            if risk is None:
                continue
            if risk.mean() == 0.0:
                raise BadValue(f"rate_study: mean {name} is 0 at n={n}")
            stats += [float(risk.mean()), float(
                np.std(risk, ddof=1) / np.sqrt(config.replications))]
        points.append(RatePoint(n, *stats))

    logn = np.log([pt.n for pt in points])
    slope = _ols_slope(logn, np.log([pt.mean_mise for pt in points]))
    ptw_slope = None if config.u0 is None else _ols_slope(
        logn, np.log([pt.mean_pointwise for pt in points]))
    alpha = test_function(config.test_function).nominal_alpha
    target = None if alpha is None else -2.0 * alpha / (2.0 * alpha + config.q)
    return RateStudyReport(
        points=tuple(points), slope=slope, target_slope=target,
        pointwise_slope=ptw_slope,
        warnings=_theory_warnings(alpha, config.q), config=config,
    )


@dataclass(frozen=True)
class CouplingResult:
    variance: float
    target: float
    mean: float
    kappa: int
    repetitions: int
    h0: float


def coupling_check(error_dist: ErrorDist, kappa: int, repetitions: int,
                   seed: int = 0) -> CouplingResult:
    """Empirical variance of sqrt(4 kappa) h(0) * median of kappa draws.

    The normalized median is asymptotically standard normal for any error
    law with h(0) > 0, so the variance target is 1. ``kappa`` must be odd
    (single middle order statistic).
    """
    kappa = _integer("kappa", kappa)
    repetitions = _integer("repetitions", repetitions)
    seed = _integer("seed", seed, 0)
    if kappa < 1 or kappa % 2 == 0:
        raise BadValue(f"kappa must be odd and positive, got {kappa}")
    if repetitions < 2:
        raise BadValue("need at least 2 repetitions")
    h0 = density_at_median(error_dist)
    rng = np.random.default_rng([seed, kappa, repetitions])
    scale = math.sqrt(4.0 * kappa) * h0
    meds = np.empty(repetitions)
    chunk = max(1, int(2e6) // kappa)
    for done in range(0, repetitions, chunk):
        take = min(chunk, repetitions - done)
        draws = sample_errors(error_dist, take * kappa, rng).reshape(take, kappa)
        meds[done:done + take] = _row_medians(draws)
    meds *= scale
    return CouplingResult(
        variance=float(np.var(meds, ddof=1)), target=1.0,
        mean=float(meds.mean()), kappa=kappa, repetitions=repetitions, h0=h0,
    )
