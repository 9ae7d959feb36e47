"""Properties of the whole fit, over random designs, filters and levels."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from medwave.estimator import EstimatorConfig, fit
from medwave.grid import bin_observations, plan_grid, product_grid
from medwave.medians import bin_medians
from medwave.wavelets import available_filters

# points per axis for each dimension: every design has at least one
# detail level (J >= 1) and stays small enough for a quick fit
SIDES = {1: (4, 300), 2: (4, 40), 3: (4, 12)}


def has_half_bins(side, q):
    """Whether every half-bin of the side^q design holds an observation
    (``fit`` with bias correction raises EmptyBin otherwise)."""
    return plan_grid(side ** q, q).nu >= 1


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
    Q = bin_medians(bin_observations(u, y, plan_grid(len(y), u.shape[1]))).q_full
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
