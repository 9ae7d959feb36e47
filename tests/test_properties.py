"""Properties of the whole fit, over random designs, filters and levels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medwave.estimator import EstimatorConfig, fit, plan_fit
from medwave.grid import bin_observations, plan_grid, product_grid
from medwave.medians import bin_medians
from medwave.wavelets import available_filters

# points per axis for each dimension: every design has at least one
# detail level (J >= 1) and stays small enough for a quick fit
SIDES = {1: (4, 300), 2: (4, 40), 3: (4, 12)}


def has_half_bins(side, q):
    """Whether every half-bin of the side^q design holds an observation
    (``fit`` with bias correction raises EmptyBin otherwise)."""
    d = plan_grid(side ** q, q)
    return (d.m + 1) // (2 * d.T) >= 1


@st.composite
def fit_cases(draw, need_half_bins=True):
    """(u, y, config) on a full grid with a valid explicit j0; designs with
    empty half-bins only when ``need_half_bins`` is False."""
    q = draw(st.sampled_from((1, 2, 3)))
    sides = st.integers(*SIDES[q])
    if need_half_bins:
        sides = sides.filter(lambda s: has_half_bins(s, q))
    side = draw(sides)
    u = product_grid(np.arange(side) / (side - 1), q)
    J = plan_grid(side ** q, q).J
    config = EstimatorConfig(wavelet=draw(st.sampled_from(available_filters())),
                             j0=draw(st.integers(0, J - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    noise = draw(st.sampled_from((rng.standard_normal, rng.standard_cauchy)))
    y = np.prod(np.sin(2 * np.pi * u), axis=1) + noise(len(u))
    return u, y, config


PROPERTY = settings(max_examples=25, deadline=None)


@PROPERTY
@given(fit_cases(need_half_bins=False))
def test_round_trip_without_shrinkage_or_bias(case):
    u, y, config = case
    raw = EstimatorConfig(wavelet=config.wavelet, j0=config.j0,
                          shrinkage_enabled=False, bias_correction=False)
    binned = bin_observations(u, plan_grid(len(y), u.shape[1]))
    Q = bin_medians(binned.with_responses(y[None])).q_full[0]
    f_hat = fit(u, y, raw).f_hat
    assert np.max(np.abs(f_hat - Q)) <= 1e-12 * np.max(np.abs(Q))


@PROPERTY
@given(fit_cases())
def test_fit_is_bit_deterministic(case):
    u, y, config = case
    a, b = fit(u, y, config), fit(u, y, config)
    assert a.f_hat.tobytes() == b.f_hat.tobytes()
    assert a.b_hat == b.b_hat


@PROPERTY
@given(fit_cases(), st.integers(0, 2 ** 32 - 1))
def test_row_order_leaves_fit_bit_identical(case, seed):
    u, y, config = case
    perm = np.random.default_rng(seed).permutation(len(y))
    base, shuffled = fit(u, y, config), fit(u[perm], y[perm], config)
    assert base.f_hat.tobytes() == shuffled.f_hat.tobytes()


@PROPERTY
@given(fit_cases(), st.floats(1e-3, 1e3), st.floats(-1e3, 1e3))
def test_affine_map_of_response_maps_the_fit(case, a, c):
    # medians and b_hat move with a*y + c, the noise level scales as a^2
    # so the shrinkage factors stay, and c lives in the gross coefficients.
    # Cauchy outliers in the medians lift the round-off above f_hat's size;
    # 1e-10 is 300 times the worst of 800 cases drawn (3.2e-13).
    u, y, config = case
    base = fit(u, y, config).f_hat
    moved = fit(u, a * y + c, config).f_hat
    scale = np.max(np.abs(a * base)) + abs(c)
    assert np.max(np.abs(moved - (a * base + c))) <= 1e-10 * scale


def uneven(side, q):
    """Whether the side^q design's axis intervals have two lengths, so its
    bins fall into several count classes."""
    return np.unique(plan_grid(side ** q, q).axis_lengths).size > 1


def float_bits(x):
    return np.float64(x).tobytes()


def assert_results_bit_equal(got, want):
    assert got.f_hat.shape == want.f_hat.shape
    assert got.f_hat.tobytes() == want.f_hat.tobytes()
    assert float_bits(got.b_hat) == float_bits(want.b_hat)
    assert (float_bits(got.noise.h_inv_sq), got.noise.degenerate,
            got.noise.source) == (float_bits(want.noise.h_inv_sq),
                                  want.noise.degenerate, want.noise.source)
    if want.diagnostics is None:
        assert got.diagnostics is None
        return
    g, w = got.diagnostics, want.diagnostics
    assert g.blocks_per_level == w.blocks_per_level
    assert g.zeroed_per_level == w.zeroed_per_level
    assert g.factor_histogram.tolist() == w.factor_histogram.tolist()
    assert float_bits(g.factor_min) == float_bits(w.factor_min)
    assert float_bits(g.factor_mean) == float_bits(w.factor_mean)
    assert g.total_blocks == w.total_blocks


@st.composite
def stack_cases(draw):
    """A design with uneven axis intervals and a (B, n) stack of responses
    for it, one row of which is constant; the estimator options but j0."""
    q = draw(st.sampled_from((1, 2, 3)))
    side = draw(st.integers(*SIDES[q]).filter(lambda s: uneven(s, q)))
    u = product_grid(np.arange(side) / (side - 1), q)
    B = draw(st.sampled_from((1, 2, 5)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    Y = (np.prod(np.sin(2 * np.pi * u), axis=1)
         + rng.standard_cauchy((B, len(u))))
    flat = draw(st.integers(0, B - 1))
    Y[flat] = draw(st.floats(-10, 10))
    noise = draw(st.sampled_from(("estimate", "known")))
    options = dict(
        known_h_inv_sq=draw(st.floats(0.1, 20.0)) if noise == "known"
        else None,
        shrinkage_enabled=draw(st.booleans()),
        bias_correction=has_half_bins(side, q) and draw(st.booleans()))
    return u, Y, flat, options


@pytest.mark.parametrize("wavelet", available_filters())
@settings(max_examples=20, deadline=None)
@given(case=stack_cases())
def test_stack_rows_fit_bit_identical_to_single_fits(wavelet, case):
    """Row i of ``fit_many`` equals ``fit(Y[i])`` bit for bit, at every
    valid j0; only the constant row's noise estimate is degenerate."""
    u, Y, flat, options = case
    for j0 in range(plan_grid(*u.shape).J):
        plan = plan_fit(u, EstimatorConfig(wavelet=wavelet, j0=j0, **options))
        results = plan.fit_many(Y)
        assert len(results) == len(Y)
        for y, got in zip(Y, results):
            assert_results_bit_equal(got, plan.fit(y))
        if options["known_h_inv_sq"] is None:
            assert [r.noise.degenerate for r in results] == [
                i == flat for i in range(len(Y))]
