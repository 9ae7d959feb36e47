"""End-to-end pipeline: identity paths, equivariances, denoising value."""

import dataclasses

import numpy as np
import pytest

from medwave.errors import (BadPrimaryLevel, BadShape, BadValue, EmptyBin,
                            IncompleteGrid, OffGridPoint, ShapeMismatch)
from medwave.estimator import (EstimatorConfig, FitPlan, evaluate_on_grid,
                               fit, plan_fit)
from medwave.grid import bin_observations, plan_grid
from medwave.medians import MedianSummary
from medwave.shrinkage import shrink
from medwave.wavelets import CoefficientPyramid, build_filter, dwt_qd

RAW = EstimatorConfig(shrinkage_enabled=False, bias_correction=False)


def grid_1d(n):
    """The n = m+1 one-axis design points i/m, i = 0..m."""
    return np.arange(n, dtype=float) / (n - 1)


def grid_2d(n_axis):
    return grid_nd(n_axis, 2)


def grid_nd(n_axis, q):
    """All n_axis**q product grid points, C order."""
    pts = grid_1d(n_axis)
    return np.stack(np.meshgrid(*[pts] * q, indexing="ij"),
                    axis=-1).reshape(-1, q)


def equivariance_designs():
    """(u, noiseless response, case count) at q = 1, 2 and 3.

    q = 2 (17 points per axis, unequal bin counts) and q = 3 cover the
    block sums taken along several axes.
    """
    u = grid_1d(256)
    yield u, np.sin(2 * np.pi * u), 110
    for n_axis, q in ((17, 2), (16, 3)):
        u = grid_nd(n_axis, q)
        yield u, np.prod(np.sin(2 * np.pi * u), axis=1), 30


def naive_bin_medians_1d(u, y, n, T):
    """Median per dyadic bin, computed with plain integer arithmetic."""
    m = n - 1
    i = np.rint(u * m).astype(int)
    bins = np.maximum(1, -(-(i * T) // m))        # ceil(i T / m), 0 -> bin 1
    return np.array([np.median(y[bins == l]) for l in range(1, T + 1)])


# ---------------------------------------------------------------------------
# identity paths
# ---------------------------------------------------------------------------

def test_raw_pipeline_returns_bin_medians():
    rng = np.random.default_rng(0)
    n = 256
    u = grid_1d(n)
    y = rng.standard_normal(n)
    result = fit(u, y, RAW)
    T = result.design.T
    np.testing.assert_allclose(
        result.f_hat, naive_bin_medians_1d(u, y, n, T), atol=1e-10)
    assert result.b_hat == 0.0
    assert result.diagnostics is None


def test_bin_constant_signal_recovered_exactly():
    # a response that is constant within every bin is its own median;
    # with shrinkage and bias correction off, the pipeline is the identity
    n = 256
    u = grid_1d(n)
    design = plan_grid(n, 1)
    T = design.T
    m = n - 1
    levels = np.sin(np.arange(1, T + 1))
    bins = np.maximum(1, -(-(np.arange(n) * T) // m))
    y = levels[bins - 1].astype(float)
    result = fit(u, y, RAW)
    np.testing.assert_allclose(result.f_hat, levels, atol=1e-10)


def test_constant_response_exact_with_degenerate_noise():
    n = 1024
    u = grid_1d(n)
    y = np.full(n, 2.5)
    result = fit(u, y)                            # full defaults
    assert result.noise.degenerate
    np.testing.assert_allclose(result.f_hat, 2.5, atol=1e-10)
    assert result.b_hat == pytest.approx(0.0, abs=1e-12)
    # every detail block had zero energy, hence was zeroed
    assert result.diagnostics.factor_min == 0.0
    assert sum(result.diagnostics.zeroed_per_level.values()) \
        == result.diagnostics.total_blocks


# ---------------------------------------------------------------------------
# equivariances
# ---------------------------------------------------------------------------

def test_shift_equivariance():
    rng = np.random.default_rng(3)
    for u, f, cases in equivariance_designs():
        for case in range(cases):
            y = f + 0.3 * rng.standard_normal(f.size)
            c = float(rng.uniform(-100.0, 100.0))
            base = fit(u, y)
            shifted = fit(u, y + c)
            np.testing.assert_allclose(shifted.f_hat, base.f_hat + c,
                                       atol=1e-9)
            assert shifted.b_hat == pytest.approx(base.b_hat, abs=1e-10)
            assert shifted.noise.h_inv_sq == pytest.approx(
                base.noise.h_inv_sq, rel=1e-10)


def test_scale_equivariance():
    # medians, the paired noise statistic, and the shrinkage factors all
    # commute with positive scaling of the responses
    rng = np.random.default_rng(4)
    for u, f, cases in equivariance_designs():
        for case in range(cases):
            y = f + 0.3 * rng.standard_normal(f.size)
            c = float(rng.choice([0.01, 0.5, 3.0, 1000.0]))
            base = fit(u, y)
            scaled = fit(u, c * y)
            np.testing.assert_allclose(
                scaled.f_hat, c * base.f_hat, rtol=1e-9, atol=1e-12 * c)
            assert scaled.b_hat == pytest.approx(c * base.b_hat, rel=1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_response_rejected(bad):
    u = grid_2d(17)
    y = np.sin(2 * np.pi * u[:, 0])
    y[[40, 200]] = bad
    with pytest.raises(BadValue, match=rf"y\[40\] = {bad}"):
        fit(u, y)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_coordinate_rejected(bad):
    # checked before the coordinates are cast to grid indices, so no
    # invalid-cast warning is raised on the way to the error
    u = grid_2d(17)
    y = np.sin(2 * np.pi * u[:, 0])
    u[[40, 200], 1] = bad
    with pytest.raises(BadValue, match=rf"u\[40, 1\] = {bad}"):
        fit(u, y)


def test_determinism():
    rng = np.random.default_rng(5)
    n = 4096
    u = grid_2d(64)
    y = rng.standard_normal(n)
    a = fit(u, y)
    b = fit(u, y)
    assert np.array_equal(a.f_hat, b.f_hat)
    assert a.b_hat == b.b_hat
    assert a.noise.h_inv_sq == b.noise.h_inv_sq


# ---------------------------------------------------------------------------
# denoising actually helps
# ---------------------------------------------------------------------------

def test_shrinkage_beats_raw_medians_on_noisy_sine():
    from medwave.simulate import (ErrorDist, SimulationConfig,
                                  generate_dataset, mise, replication_rng)
    config = SimulationConfig(q=2, error_dist=ErrorDist("gaussian", 1.0),
                              test_function="sine_product",
                              sample_sizes=(65536,), replications=30, seed=0)
    wins = 0
    total_shrunk = total_raw = 0.0
    for rep in range(30):
        rng = replication_rng(0, 65536, rep)
        u, y, f_grid = generate_dataset(config, 65536, rng)
        shrunk = mise(fit(u, y).f_hat, f_grid)
        raw = mise(fit(u, y, RAW).f_hat, f_grid)
        total_shrunk += shrunk
        total_raw += raw
        wins += shrunk < raw
    assert wins >= 27                 # shrinkage wins in >= 90% of runs
    assert total_shrunk < 0.5 * total_raw


# ---------------------------------------------------------------------------
# small-design and validation paths
# ---------------------------------------------------------------------------

def test_single_bin_design_bypasses_transform():
    # n=4, q=2 has J=0: one bin, the estimate is the global median
    u = grid_2d(2)
    y = np.array([1.0, 2.0, 3.0, 10.0])
    result = fit(u, y, EstimatorConfig(bias_correction=False))
    assert result.design.J == 0
    assert result.f_hat.shape == (1, 1)
    assert result.f_hat[0, 0] == pytest.approx(2.5)   # median of y
    assert result.diagnostics is None
    assert result.noise.degenerate


def test_single_bin_design_accepts_known_noise():
    u = grid_2d(2)
    y = np.array([1.0, 2.0, 3.0, 10.0])
    cfg = EstimatorConfig(noise_mode="known", known_h_inv_sq=2.0,
                          bias_correction=False)
    result = fit(u, y, cfg)
    assert not result.noise.degenerate
    assert result.noise.h_inv_sq == 2.0


def test_empty_half_bins_matter_only_with_bias_correction():
    # 7 points on one axis: T = 4, so floor(7 / 8) = 0 points per half-bin
    u = grid_1d(7)
    y = np.array([3.0, -1.0, 4.0, 1.0, -5.0, 9.0, 2.0])
    result = fit(u, y, RAW)
    assert result.b_hat == 0.0
    # bins hold points {0, 1}, {2, 3}, {4}, {5, 6}
    assert np.allclose(result.f_hat, [1.0, 2.5, -5.0, 5.5], rtol=0, atol=1e-12)
    with pytest.raises(EmptyBin, match=r"half-bin \(1,\) is empty"):
        fit(u, y, EstimatorConfig(shrinkage_enabled=False))


def test_default_primary_level_follows_filter():
    # n=16, q=1 -> J=3; db4 wants level 3, clamped to J-1=2; haar wants 1
    rng = np.random.default_rng(6)
    u = grid_1d(16)
    y = rng.standard_normal(16)
    res_db4 = fit(u, y, EstimatorConfig(wavelet="db4"))
    assert set(res_db4.diagnostics.blocks_per_level) == {2}
    res_haar = fit(u, y, EstimatorConfig(wavelet="haar"))
    assert set(res_haar.diagnostics.blocks_per_level) == {1, 2}


def test_explicit_j0_respected_and_validated():
    rng = np.random.default_rng(7)
    u = grid_1d(256)                  # J = 6
    y = rng.standard_normal(256)
    res = fit(u, y, EstimatorConfig(j0=1))
    assert set(res.diagnostics.blocks_per_level) == {1, 2, 3, 4, 5}
    with pytest.raises(BadPrimaryLevel):
        fit(u, y, EstimatorConfig(j0=6))
    with pytest.raises(BadPrimaryLevel):
        EstimatorConfig(j0=-1)


def test_config_validation():
    with pytest.raises(BadValue):
        EstimatorConfig(noise_mode="known")
    with pytest.raises(BadValue):
        EstimatorConfig(noise_mode="known", known_h_inv_sq=0.0)
    with pytest.raises(BadValue):
        EstimatorConfig(noise_mode="oracle")
    with pytest.raises(BadValue):
        EstimatorConfig(block_cardinality=0)


def test_known_noise_mode_drives_shrinkage():
    # h_inv_sq = 1/h^2(0) grows with the noise level: an absurdly large
    # value zeroes every detail block, an absurdly small one keeps them all
    rng = np.random.default_rng(8)
    u = grid_1d(256)
    y = np.sin(2 * np.pi * u) + 0.1 * rng.standard_normal(256)
    noisy = fit(u, y, EstimatorConfig(noise_mode="known",
                                      known_h_inv_sq=1e15,
                                      bias_correction=False))
    assert noisy.noise.h_inv_sq == 1e15
    assert sum(noisy.diagnostics.zeroed_per_level.values()) \
        == noisy.diagnostics.total_blocks
    clean = fit(u, y, EstimatorConfig(noise_mode="known",
                                      known_h_inv_sq=1e-15,
                                      bias_correction=False))
    assert not clean.diagnostics.zeroed_per_level
    assert clean.diagnostics.factor_min > 0.999


# ---------------------------------------------------------------------------
# grid evaluation table
# ---------------------------------------------------------------------------

def test_evaluate_on_grid_layout():
    rng = np.random.default_rng(9)
    n = 4096                          # q=2 -> T=16, V=256
    u = grid_2d(64)
    y = rng.standard_normal(n)
    res = fit(u, y)
    table = evaluate_on_grid(res)
    assert table.shape == (256, 3)
    T = res.design.T
    # lexicographic coordinates l/T
    k = 0
    for l1 in range(1, T + 1):
        for l2 in range(1, T + 1):
            assert table[k, 0] == pytest.approx(l1 / T)
            assert table[k, 1] == pytest.approx(l2 / T)
            k += 1
    np.testing.assert_array_equal(table[:, 2], res.f_hat.ravel())


# ---------------------------------------------------------------------------
# one plan, many responses
# ---------------------------------------------------------------------------

def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def assert_same_record(a, b):
    """Two records (noise or shrinkage) agree field by field, floats bit
    for bit."""
    assert type(a) is type(b)
    if a is None:
        return
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, float):
            assert bits(x) == bits(y), f.name
        elif isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), f.name
        else:
            assert x == y, f.name


def assert_same_fit(a, b):
    assert np.array_equal(bits(a.f_hat), bits(b.f_hat))
    assert bits(a.b_hat) == bits(b.b_hat)
    assert_same_record(a.noise, b.noise)
    assert_same_record(a.diagnostics, b.diagnostics)
    assert a.design == b.design


KNOWN = EstimatorConfig(noise_mode="known", known_h_inv_sq=2.5)
NO_SHRINK = EstimatorConfig(shrinkage_enabled=False)
NO_BIAS = EstimatorConfig(bias_correction=False)

# (points per axis, q, configs); T divides m+1 for 256, 64 and 16 points
# per axis, not for 250, 17 and 13; 7 points have empty half-bins; 2x2 has
# J = 0
PLAN_CASES = [
    (256, 1, (EstimatorConfig(), KNOWN, NO_SHRINK, RAW)),
    (250, 1, (EstimatorConfig(wavelet="haar"), KNOWN, NO_SHRINK)),
    (64, 2, (EstimatorConfig(wavelet="db2"), KNOWN, RAW)),
    (17, 2, (EstimatorConfig(), NO_SHRINK, EstimatorConfig(j0=1))),
    (16, 3, (EstimatorConfig(), KNOWN, NO_SHRINK)),
    (13, 3, (EstimatorConfig(wavelet="haar"), RAW)),
    (7, 1, (NO_BIAS, RAW, EstimatorConfig(noise_mode="known",
                                          known_h_inv_sq=1.0,
                                          bias_correction=False))),
    (2, 2, (EstimatorConfig(), KNOWN, NO_BIAS)),
]


@pytest.mark.parametrize("side,q,configs", PLAN_CASES,
                         ids=[f"{s}^{q}" for s, q, _ in PLAN_CASES])
def test_plan_reused_over_responses_matches_fresh_fits(side, q, configs):
    rng = np.random.default_rng(side * 10 + q)
    u = grid_nd(side, q)
    perm = rng.permutation(len(u))
    u = u[perm]                       # rows out of grid order
    f = np.prod(np.sin(2 * np.pi * u), axis=1)
    ys = [f + rng.standard_cauchy(len(u)) for _ in range(4)]
    ys.append(np.round(ys[0]))        # tied medians
    for config in configs:
        plan = plan_fit(u, config)
        assert isinstance(plan, FitPlan)
        assert (plan.j0 is None) == (plan.design.J == 0)
        for y in ys:
            assert_same_fit(plan.fit(y), fit(u, y, config))


# pairs of designs with equal T and q but not equal m, so their bin-median
# classes differ while their level geometry is shared
REUSE_PAIRS = [((65, 2), (64, 2)), ((17, 3), (16, 3)), ((257, 1), (256, 1))]


@pytest.mark.parametrize("first,second", REUSE_PAIRS,
                         ids=[f"{a}^{q}-{b}^{p}" for (a, q), (b, p)
                              in REUSE_PAIRS])
def test_plan_reuse_interleaved_with_another_design(first, second):
    # a plan's three fits, each followed by a plan fit and a fresh fit on
    # another design, equal fresh fits bit for bit; the plan's design
    # builds its median classes once
    rng = np.random.default_rng(first[0] + second[0])
    us = [grid_nd(*first)[rng.permutation(first[0] ** first[1])],
          grid_nd(*second)]
    plans = [plan_fit(u, EstimatorConfig(wavelet="db2")) for u in us]
    assert plans[0].design.T == plans[1].design.T
    classes = []
    for _ in range(3):
        for plan, u in zip(plans, us):
            y = np.round(np.sin(3 * u.sum(axis=1))
                         + rng.standard_cauchy(len(u)), 1)
            assert_same_fit(plan.fit(y), fit(u, y, plan.config))
            classes.append(plan.design.median_selections)
        other = us[1]
        fit(other, rng.standard_normal(len(other)), plans[1].config)
    assert all(c is classes[0] for c in classes[0::2])
    assert all(c is classes[1] for c in classes[1::2])
    assert classes[0] is not classes[1]


@pytest.mark.parametrize("side,q", [(64, 1), (250, 1), (17, 2), (13, 3)])
def test_fits_leave_the_callers_y_unchanged(side, q):
    # the medians sort gathered copies: neither the caller's y nor a
    # plan's earlier responses change, whatever order a plan sees them in
    rng = np.random.default_rng(side + q)
    u = grid_nd(side, q)[rng.permutation(side ** q)]
    ys = [np.round(rng.standard_cauchy(len(u))) for _ in range(5)]
    before = [y.copy() for y in ys]
    plan = plan_fit(u)
    forward = [plan.fit(y) for y in ys]
    backward = [plan.fit(y) for y in ys[::-1]][::-1]
    for y, y0, a, b in zip(ys, before, forward, backward):
        assert np.array_equal(bits(y), bits(y0))
        assert_same_fit(a, b)
        fit(u, y)
        assert np.array_equal(bits(y), bits(y0))


def test_empty_half_bins_raise_from_the_fit_not_the_plan():
    plan = plan_fit(grid_1d(7))
    with pytest.raises(EmptyBin, match=r"half-bin \(1,\) is empty"):
        plan.fit(np.zeros(7))


def test_errors_in_u_raise_from_the_plan():
    u = grid_2d(17)
    bad = u.copy()
    bad[40, 1] = np.nan
    with pytest.raises(BadValue, match=r"coordinate u\[40, 1\] = nan"):
        plan_fit(bad)
    bad = u.copy()
    bad[5, 0] += 1e-6
    with pytest.raises(OffGridPoint, match="is not a multiple of 1/16"):
        plan_fit(bad)
    bad = u.copy()
    bad[5, 0] = 1.5
    with pytest.raises(OffGridPoint, match=r"coordinate 1.5 outside \[0, 1\]"):
        plan_fit(bad)
    bad = u.copy()
    bad[3] = bad[4]
    with pytest.raises(IncompleteGrid, match="is duplicated"):
        plan_fit(bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_errors_in_y_raise_from_the_plan_fit(bad):
    u = grid_2d(17)
    plan = plan_fit(u)
    y = np.sin(2 * np.pi * u[:, 0])
    y[[40, 200]] = bad
    with pytest.raises(BadValue) as from_plan:
        plan.fit(y)
    with pytest.raises(BadValue) as from_fit:
        fit(u, y)
    assert str(from_plan.value) == str(from_fit.value) == (
        f"response y[40] = {bad} is not finite (rows count from 0); every "
        "response must be finite")
    for short in (np.zeros(288), np.zeros((289, 1))):
        with pytest.raises(IncompleteGrid) as from_plan:
            plan.fit(short)
        with pytest.raises(IncompleteGrid) as from_fit:
            fit(u, short)
        assert str(from_plan.value) == str(from_fit.value) == (
            f"expected 289 observations in 2 dims, got u(289, 2), "
            f"y{short.shape}")


def test_fit_many_checks_the_stack():
    u = grid_2d(17)
    plan = plan_fit(u)
    Y = np.sin(2 * np.pi * u[:, 0]) + np.zeros((3, 1))
    assert len(plan.fit_many(Y)) == 3
    assert plan.fit_many(Y[:0]) == []
    for bad in (Y[0], Y[:, :-1], Y[:, :, None]):
        with pytest.raises(IncompleteGrid, match=r"got u\(289, 2\), y\("):
            plan.fit_many(bad)
    with pytest.raises(IncompleteGrid):
        plan.fit(Y)
    Y[2, 40] = np.nan
    with pytest.raises(BadValue, match=r"response y\[2, 40\] = nan"):
        plan.fit_many(Y)


# each inner stage given the unstacked input it took before every stage
# took a (B, ...) stack: a named error, never an IndexError or a wrong result
UNSTACKED = {
    "with_responses": (
        lambda: bin_observations(grid_1d(16), plan_grid(16, 1))
        .with_responses(np.zeros(16)), IncompleteGrid),
    "MedianSummary": (
        lambda: MedianSummary(plan_grid(16, 1), np.zeros(8), np.zeros(8)),
        ShapeMismatch),
    "dwt_qd": (lambda: dwt_qd(np.zeros(8), build_filter("haar"), 0),
               BadShape),
    "CoefficientPyramid": (lambda: CoefficientPyramid(np.zeros(8), 0),
                           BadShape),
    "shrink": (lambda: shrink(CoefficientPyramid(np.zeros((1, 8)), 1), 16,
                              1.0, 2), BadValue),
}


@pytest.mark.parametrize("stage", list(UNSTACKED))
def test_unstacked_input_raises_a_named_error(stage):
    call, error = UNSTACKED[stage]
    with pytest.raises(error):
        call()
