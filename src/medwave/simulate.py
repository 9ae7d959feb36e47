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
identical triples give bit-identical datasets. Everything that depends on
the sample size alone is made once per n and shared by its replications:
the grid design, the design points u, the truth f at them and at the V
estimation points, the fit plan of u on that design (the grid checks, the
median classes, the filter, j0 and L) and the row template that
``medwave simulate`` fills to write each dataset (the text of u). Each replication draws only its X and xi, from its own generator, and
is written through that template, or fitted through that plan. A rate
study fits its replications in stacks of up to 2^17 observations
(max(1, 2^17 // n) replications): each replication's responses fill one
row of a preallocated stack, and :meth:`FitPlan.fit_many` fits the stack
in one pass of every stage. Each fit is bit-identical to fitting its
replication alone, as :func:`run_replication` does (a stack of one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .dataio import RowTemplate
from .errors import BadCovariance, BadValue, ShapeMismatch, UnknownDensityValue
from .estimator import EstimatorConfig, FitPlan, FitResult, _plan_on
# ``fit`` is not called here; it stays bound because the benchmark tracer's
# tests (perfbench/test_checks.py) check that every binding of it is wrapped.
from .estimator import fit  # noqa: F401
from .grid import GridDesign, plan_grid, product_grid
from .medians import _row_medians

__all__ = [
    "ErrorDist",
    "DesignDist",
    "TestFunction",
    "SimulationConfig",
    "RatePoint",
    "RateStudyReport",
    "CouplingResult",
    "test_function",
    "available_test_functions",
    "sample_elliptical",
    "sample_errors",
    "density_at_median",
    "generate_dataset",
    "mise",
    "run_replication",
    "rate_study",
    "coupling_check",
]


#: observations fitted in one stack: a rate study fits max(1, this // n)
#: replications at once, which bounds the memory of the stack's fit
_STACK_OBS = 2 ** 17


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------

_ERROR_KINDS = ("gaussian", "cauchy", "student_t", "laplace",
                "shifted_exponential")
_DESIGN_KINDS = ("gaussian", "student_t", "cauchy", "laplace")


@dataclass(frozen=True)
class ErrorDist:
    """Univariate error distribution with median zero.

    kind in {gaussian, cauchy, laplace} takes a ``scale`` >= 0;
    student_t takes a finite ``nu`` > 0; shifted_exponential has no parameters
    (density h(x) = exp(-(x + ln 2)) on x >= -ln 2, asymmetric).
    """

    kind: str
    scale: float = 1.0
    nu: float = 1.0

    def __post_init__(self):
        if self.kind not in _ERROR_KINDS:
            raise BadValue(f"unknown error distribution {self.kind!r}")
        if self.kind in ("gaussian", "cauchy", "laplace"):
            if not (np.isfinite(self.scale) and self.scale >= 0):
                raise BadValue(f"scale must be >= 0, got {self.scale}")
        if self.kind == "student_t" and not (np.isfinite(self.nu)
                                             and self.nu > 0):
            raise BadValue(f"student_t needs a finite nu > 0, got {self.nu}")


@dataclass(frozen=True, eq=False)
class DesignDist:
    """Elliptical distribution of the linear-part covariates X in R^p.

    All kinds are scale mixtures of a N(0, sigma) vector: student_t divides
    by sqrt(chi2_nu / nu) (cauchy is nu = 1), laplace multiplies by the
    square root of an Exp(1) variable.
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
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise BadCovariance(f"sigma must be square, got shape {sigma.shape}")
        if not np.allclose(sigma, sigma.T, atol=1e-12, rtol=0.0):
            raise BadCovariance("sigma is not symmetric")
        try:
            chol = np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError:
            raise BadCovariance("sigma is not positive definite") from None
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "_chol", chol)
        if self.kind == "student_t" and not (np.isfinite(self.nu)
                                             and self.nu > 0):
            raise BadValue(f"student_t needs a finite nu > 0, got {self.nu}")

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
        nu = 1.0 if dist.kind == "cauchy" else dist.nu
        w = rng.chisquare(nu, size=count) / nu
        return z / np.sqrt(w)[:, None]
    if dist.kind == "laplace":
        w = rng.exponential(1.0, size=count)
        return z * np.sqrt(w)[:, None]
    raise BadValue(f"unknown design distribution {dist.kind!r}")  # pragma: no cover


def sample_errors(dist: ErrorDist, count: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` i.i.d. errors (median zero by construction)."""
    if dist.kind == "gaussian":
        return dist.scale * rng.standard_normal(count)
    if dist.kind == "cauchy":
        return dist.scale * rng.standard_cauchy(count)
    if dist.kind == "student_t":
        return rng.standard_t(dist.nu, size=count)
    if dist.kind == "laplace":
        return rng.laplace(0.0, dist.scale, size=count) if dist.scale > 0 \
            else np.zeros(count)
    if dist.kind == "shifted_exponential":
        return rng.exponential(1.0, size=count) - math.log(2.0)
    raise BadValue(f"unknown error distribution {dist.kind!r}")  # pragma: no cover


#: above this nu the student-t h(0) is taken from its asymptotic series
_T_SERIES_NU = 400.0


def density_at_median(dist: ErrorDist) -> float:
    """Analytic h(0), the error density at its median.

    Raises
    ------
    UnknownDensityValue
        When no (finite, positive) analytic value exists, e.g. scale 0.
    """
    if dist.kind == "gaussian":
        if dist.scale <= 0:
            raise UnknownDensityValue("gaussian with scale 0 is degenerate")
        return 1.0 / (dist.scale * math.sqrt(2.0 * math.pi))
    if dist.kind == "cauchy":
        if dist.scale <= 0:
            raise UnknownDensityValue("cauchy with scale 0 is degenerate")
        return 1.0 / (math.pi * dist.scale)
    if dist.kind == "student_t":
        nu = dist.nu
        if nu <= _T_SERIES_NU:
            # log-gamma: math.gamma overflows from nu = 343 on
            return math.exp(math.lgamma((nu + 1) / 2)
                            - math.lgamma(nu / 2)) / math.sqrt(nu * math.pi)
        # The lgamma difference cancels as nu grows (it is 1.5e-5 off at
        # 1e10), so use the asymptotic series of
        # Gamma((nu+1)/2) / (Gamma(nu/2) sqrt(nu pi)); its first omitted
        # term is below 1e-14 relative from nu = 400 on.
        x = 1.0 / nu
        series = 1.0 - x / 4 + x ** 2 / 32 + 5 * x ** 3 / 128 \
            - 21 * x ** 4 / 2048
        return series / math.sqrt(2.0 * math.pi)
    if dist.kind == "laplace":
        if dist.scale <= 0:
            raise UnknownDensityValue("laplace with scale 0 is degenerate")
        return 1.0 / (2.0 * dist.scale)
    if dist.kind == "shifted_exponential":
        return 0.5
    raise UnknownDensityValue(f"no analytic h(0) for {dist.kind!r}")


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------

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
        raise BadValue(
            f"unknown test function {name!r}; available: "
            f"{available_test_functions()}"
        ) from None


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

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
        if self.q < 1:
            raise BadValue(f"q must be >= 1, got {self.q}")
        if self.replications < 1:
            raise BadValue(f"replications must be >= 1, got {self.replications}")
        if self.seed < 0:
            raise BadValue(f"seed must be >= 0, got {self.seed}")
        if not self.sample_sizes:
            raise BadValue("sample_sizes must be nonempty")
        object.__setattr__(self, "sample_sizes",
                           tuple(int(n) for n in self.sample_sizes))
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))
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
            u0 = tuple(float(v) for v in self.u0)
            if len(u0) != self.q or not all(0.0 <= v <= 1.0 for v in u0):
                raise BadValue(f"u0 must be {self.q} coordinates in [0,1]")
            object.__setattr__(self, "u0", u0)


def replication_rng(seed: int, n: int, index: int) -> np.random.Generator:
    """Independent stream for one replication, derived from (seed, n, index)."""
    return np.random.default_rng([seed, n, index])


# ---------------------------------------------------------------------------
# data generation and risk
# ---------------------------------------------------------------------------

def generate_dataset(config: SimulationConfig, n: int,
                     rng: np.random.Generator):
    """One synthetic dataset of size n.

    Returns (u, y, f_grid): observation locations (n, q), responses (n,),
    and the ground truth f at the V estimation grid points as a (T,)*q
    tensor (the quantity MISE is measured against).

    Draw order is fixed (X first when present, then xi) so a given generator
    state yields a bit-identical dataset.
    """
    ctx = _SizeContext(config, n)
    return ctx.u, ctx.responses(rng), ctx.f_grid


def mise(f_hat: np.ndarray, f_true: np.ndarray) -> float:
    """Grid-quadrature integrated squared error: V^{-1} sum (f_hat - f)^2."""
    if f_hat.shape != f_true.shape:
        raise ShapeMismatch(
            f"shape mismatch: {f_hat.shape} vs {f_true.shape}"
        )
    diff = f_hat - f_true
    return float(np.mean(diff * diff))


def _covering_bin(u0: tuple, design: GridDesign) -> tuple:
    """1-based axis indices of the bin containing u0.

    Axis bins are the half-open cells ((l-1)/T, l/T]; a coordinate of 0
    lands in bin 1, matching the binning convention for observations.
    """
    idx = []
    for v in u0:
        l = int(math.ceil(v * design.T))
        idx.append(min(max(l, 1), design.T))
    return tuple(idx)


@dataclass(frozen=True)
class ReplicationOutcome:
    mise: float
    pointwise_sq_error: Optional[float]
    result: FitResult = field(repr=False, compare=False, default=None)


class _SizeContext:
    """What every replication at one sample size n shares.

    The ``design``, the design points ``u`` (n, q), the truth ``f_u`` at
    them, the V estimation points ``grid_points`` (V, q) with the truth
    ``f_grid`` on them as a (T,)*q tensor, and, made on first use, the fit
    plan of u on that same design and the row template of u for writing
    datasets. Replications draw only their X and xi.
    """

    def __init__(self, config: SimulationConfig, n: int):
        self.config = config
        self.n = n
        self.design = design = plan_grid(n, config.q)
        self.fn = fn = test_function(config.test_function)
        self.u = product_grid(np.arange(design.m + 1) / design.m, design.q)
        self.f_u = fn(self.u)
        self.grid_points = product_grid(
            np.arange(1, design.T + 1) / design.T, design.q)
        self.f_grid = fn(self.grid_points).reshape(design.tensor_shape())

    @cached_property
    def plan(self) -> FitPlan:
        return _plan_on(self.u, self.design, self.config.estimator)

    @cached_property
    def row_template(self) -> RowTemplate:
        return RowTemplate(self.u)

    @cached_property
    def f_u0(self) -> float:
        """The truth at the configured u0."""
        u0 = np.asarray(self.config.u0, dtype=float)[None, :]
        return float(self.fn(u0)[0])

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

    def replicate_many(self, indices, stack: np.ndarray) -> list:
        """Draw the replications ``indices`` into the first rows of
        ``stack``, fit them in one call and score each."""
        config = self.config
        Y = stack[:len(indices)]
        for row, index in zip(Y, indices):
            self.responses(replication_rng(config.seed, self.n, index),
                           out=row)
        if config.u0 is not None:
            # The fitted function is piecewise constant on bins, so its value
            # at u0 is the estimate in the covering bin; the error is taken
            # against f at u0 itself (discretization offset included).
            pos = tuple(l - 1 for l in _covering_bin(config.u0, self.design))
        outcomes = []
        for result in self.plan.fit_many(Y):
            ptw = None
            if config.u0 is not None:
                ptw = float((result.f_hat[pos] - self.f_u0) ** 2)
            outcomes.append(ReplicationOutcome(
                mise=mise(result.f_hat, self.f_grid), pointwise_sq_error=ptw,
                result=result))
        return outcomes

    def replicate(self, index: int) -> ReplicationOutcome:
        """Draw, fit and score replication ``index``: a stack of one."""
        return self.replicate_many([index], np.empty((1, self.n)))[0]


def run_replication(config: SimulationConfig, n: int,
                    index: int) -> ReplicationOutcome:
    """Generate, fit and score replication ``index`` at sample size n."""
    return _SizeContext(config, n).replicate(index)


# ---------------------------------------------------------------------------
# rate study
# ---------------------------------------------------------------------------

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

    The replications of a sample size n are fitted in stacks of
    max(1, 2^17 // n); every replication's fit is bit-identical to that of
    :func:`run_replication`.

    Requires at least 3 sample sizes and at least 10 replications.
    """
    if len(config.sample_sizes) < 3:
        raise BadValue("rate_study needs at least 3 sample sizes")
    if config.replications < 10:
        raise BadValue("rate_study needs at least 10 replications")

    points = []
    reps = config.replications
    for n in config.sample_sizes:
        m = np.empty(reps)
        p = np.empty(reps) if config.u0 is not None else None
        ctx = _SizeContext(config, n)
        size = min(reps, max(1, _STACK_OBS // n))
        stack = np.empty((size, n))
        for start in range(0, reps, size):
            indices = range(start, min(start + size, reps))
            for r, out in zip(indices, ctx.replicate_many(indices, stack)):
                m[r] = out.mise
                if p is not None:
                    p[r] = out.pointwise_sq_error
        se = float(np.std(m, ddof=1) / np.sqrt(config.replications))
        if p is not None:
            points.append(RatePoint(
                n=n, mean_mise=float(m.mean()), se_mise=se,
                mean_pointwise=float(p.mean()),
                se_pointwise=float(np.std(p, ddof=1) / np.sqrt(config.replications)),
            ))
        else:
            points.append(RatePoint(n=n, mean_mise=float(m.mean()), se_mise=se))

    logn = np.log([pt.n for pt in points])
    slope = _ols_slope(logn, np.log([pt.mean_mise for pt in points]))
    ptw_slope = None
    if config.u0 is not None:
        ptw_slope = _ols_slope(
            logn, np.log([pt.mean_pointwise for pt in points])
        )
    alpha = test_function(config.test_function).nominal_alpha
    target = None if alpha is None else -2.0 * alpha / (2.0 * alpha + config.q)
    return RateStudyReport(
        points=tuple(points), slope=slope, target_slope=target,
        pointwise_slope=ptw_slope,
        warnings=_theory_warnings(alpha, config.q), config=config,
    )


# ---------------------------------------------------------------------------
# coupling check
# ---------------------------------------------------------------------------

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
    if kappa < 1 or kappa % 2 == 0:
        raise BadValue(f"kappa must be odd and positive, got {kappa}")
    if repetitions < 2:
        raise BadValue("need at least 2 repetitions")
    h0 = density_at_median(error_dist)
    rng = np.random.default_rng([seed, kappa, repetitions])
    scale = math.sqrt(4.0 * kappa) * h0
    meds = np.empty(repetitions)
    chunk = max(1, int(2e6) // kappa)
    done = 0
    while done < repetitions:
        take = min(chunk, repetitions - done)
        draws = sample_errors(error_dist, take * kappa, rng).reshape(take, kappa)
        meds[done:done + take] = _row_medians(draws)
        done += take
    meds *= scale
    return CouplingResult(
        variance=float(np.var(meds, ddof=1)), target=1.0,
        mean=float(meds.mean()), kappa=kappa, repetitions=repetitions, h0=h0,
    )
