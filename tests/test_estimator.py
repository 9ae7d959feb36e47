"""End-to-end pipeline: identity paths, equivariances, denoising value."""

import numpy as np
import pytest

from medwave.errors import BadPrimaryLevel, BadValue, ShapeMismatch
from medwave.estimator import EstimatorConfig, evaluate_on_grid, fit
from medwave.grid import plan_grid

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
    table = evaluate_on_grid(res, res.design)
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


def test_evaluate_on_grid_rejects_foreign_design():
    rng = np.random.default_rng(10)
    u = grid_1d(256)
    res = fit(u, rng.standard_normal(256))
    with pytest.raises(ShapeMismatch):
        evaluate_on_grid(res, plan_grid(16, 1))
