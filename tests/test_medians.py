"""Bin medians, bias correction, noise-level estimation."""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import gammaln, ndtri

from medwave.errors import DegenerateNoise, EmptyBin
from medwave.grid import bin_observations, plan_grid
from medwave.medians import (
    NOISE_FLOOR,
    MedianSummary,
    bias_correction,
    bin_medians,
    estimate_noise_level,
    known_noise_level,
    sample_median,
)


#: quantile functions F^{-1} of the standard laws the exact target covers
QUANTILES = {
    "gaussian": lambda u: float(ndtri(u)),
    "cauchy": lambda u: math.tan(math.pi * (u - 0.5)),
    "uniform": lambda u: u - 0.5,
}


def scaled_median_variance(ppf, kappa: int) -> float:
    """Exact 4 kappa Var(median of kappa iid draws) for quantile function ppf.

    This is the expectation of the paired-difference noise estimate at bin
    count kappa, computed without medwave: the order-statistic densities are
    integrated over u = F(x). Odd kappa takes X_(r), r = (kappa + 1)/2; even
    kappa takes the midpoint of X_(r) and X_(r+1), r = kappa/2.
    """
    r = (kappa + 1) // 2
    upper = kappa - r if kappa % 2 else kappa - r - 1
    log_c = gammaln(kappa + 1) - gammaln(r) - gammaln(upper + 1)

    def weight(u, v):
        # density of (F(X_(r)), F(X_(r+1))) for even kappa, of F(X_(r)) for odd
        if u <= 0.0 or v >= 1.0:
            return 0.0
        return math.exp(log_c + (r - 1) * math.log(u) + upper * math.log1p(-v))

    if kappa % 2:
        def moment(p):
            return integrate.quad(lambda u: weight(u, u) * ppf(u) ** p,
                                  0.0, 1.0, points=[0.5], limit=200)[0]
    else:
        def moment(p):
            return integrate.dblquad(
                lambda v, u: weight(u, v) * (0.5 * (ppf(u) + ppf(v))) ** p,
                0.0, 1.0, lambda u: u, 1.0)[0]
    mean = moment(1)
    return 4.0 * kappa * (moment(2) - mean * mean)


def grid_1d(n):
    return np.arange(n) / (n - 1)


def full_grid(m, q):
    axes = [np.arange(m + 1) / m] * q
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=1)


def test_sample_median_midpoint_convention():
    assert sample_median([3.0]) == 3.0
    assert sample_median([1.0, 2.0]) == 1.5
    assert sample_median([1.0, 2.0, 10.0]) == 2.0
    assert sample_median([4.0, 1.0, 2.0, 10.0]) == 3.0  # (2+4)/2
    with pytest.raises(EmptyBin):
        sample_median([])


def test_bin_medians_by_hand_unequal_counts():
    # n=25, q=1: T=8, counts (4,3,3,3,3,3,3,3) exercise the ragged path
    d = plan_grid(25, 1)
    assert d.T == 8
    u = grid_1d(25)
    y = u * 24  # y = index, so bin medians are medians of index runs
    b = bin_observations(u, y, d)
    assert b.counts.tolist() == [4, 3, 3, 3, 3, 3, 3, 3]
    med = bin_medians(b)
    assert med.q_full[0] == 1.5            # median of 0,1,2,3
    assert med.q_full[1] == 5.0            # median of 4,5,6
    assert med.q_full[7] == 23.0           # median of 22,23,24


def test_bin_medians_equal_counts_match_ragged_path():
    rng = np.random.default_rng(3)
    d = plan_grid(64, 1)  # T=16, kappa=4, equal counts
    u = grid_1d(64)
    y = rng.standard_normal(64)
    b = bin_observations(u, y, d)
    med = bin_medians(b)
    for code in range(d.V):
        assert med.q_full.ravel()[code] == np.median(y[b.bin_codes == code])
        assert med.q_half.ravel()[code] \
            == np.median(y[(b.bin_codes == code) & b.half_mask])


def test_empty_half_bin_is_named():
    # q=3 with only 3 points per axis: half length floor(3/4) = 0
    d = plan_grid(27, 3)
    assert (d.m + 1) // (2 * d.T) == 0
    u = full_grid(2, 3)
    summary = bin_medians(bin_observations(u, np.zeros(27), d))
    assert summary.q_half is None
    with pytest.raises(EmptyBin) as exc:
        bias_correction(summary)
    assert "half-bin (1, 1, 1) is empty" in str(exc.value)


def test_median_summary_shape_guard():
    d = plan_grid(16, 1)
    with pytest.raises(EmptyBin):
        MedianSummary(design=d, q_full=np.zeros(4), q_half=np.zeros(8))


def test_bias_correction_constant_shift_invariant():
    rng = np.random.default_rng(11)
    d = plan_grid(256, 1)
    u = grid_1d(256)
    y = rng.standard_normal(256)
    b0 = bias_correction(bin_medians(bin_observations(u, y, d)))
    b1 = bias_correction(bin_medians(bin_observations(u, y + 37.5, d)))
    assert b1 == pytest.approx(b0, abs=1e-12)


def test_bias_correction_zero_mean_under_symmetry():
    # f = 0, symmetric errors: mean of b_hat over 50 replications within
    # 2 standard errors of 0 (the bias of the median is O(kappa^{-2}) = 0
    # when h'(0) = 0).
    d = plan_grid(65536, 2)
    u = full_grid(d.m, 2)
    vals = []
    for rep in range(50):
        rng = np.random.default_rng([5, rep])
        y = rng.standard_normal(65536)
        vals.append(bias_correction(bin_medians(bin_observations(u, y, d))))
    vals = np.asarray(vals)
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean()) < 2 * se + 1e-12


def test_error_median_expectation_shifted_exponential():
    # Independent oracle for the bias the half-bin machinery estimates:
    # the mean sample median of kappa=16 draws from Exp(1) - ln 2.
    # Exact value via order statistics of Exp(1): E X_(k:n) = H_n - H_{n-k};
    # the asymptotic expansion -h'(0)/(8 h^3(0) kappa) gives 1/(2 kappa).
    kappa = 16
    H = np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1, 17))))
    exact = H[16] - (H[8] + H[7]) / 2.0 - math.log(2.0)
    assert exact == pytest.approx(1.0 / (2 * kappa), rel=0.05)

    rng = np.random.default_rng(123)
    reps = 200000
    draws = rng.exponential(1.0, size=(reps, kappa)) - math.log(2.0)
    meds = np.median(draws, axis=1)
    se = meds.std(ddof=1) / np.sqrt(reps)
    assert meds.mean() == pytest.approx(exact, abs=3 * se)
    assert meds.mean() == pytest.approx(1.0 / (2 * kappa), rel=0.15)


def test_median_coupling_variance_across_groups():
    # Variance of sqrt(4 kappa) h(0) * median within 5% of 1 at kappa=1001.
    kappa, groups = 1001, 4000
    rng = np.random.default_rng(99)
    x = rng.standard_normal((groups, kappa))
    meds = np.array([sample_median(row) for row in x])
    h0 = 1.0 / math.sqrt(2 * math.pi)
    z = math.sqrt(4 * kappa) * h0 * meds
    assert z.var(ddof=1) == pytest.approx(1.0, abs=0.05)


def test_scaled_median_variance_closed_forms():
    # the median of two N(0,1) draws is their mean: 4 * 2 * (1/2) = 4
    assert scaled_median_variance(QUANTILES["gaussian"], 2) == \
        pytest.approx(4.0, rel=1e-8)
    # Uniform(-1/2, 1/2) at odd kappa: the median is Beta(r, r) - 1/2,
    # variance 1/(4 (kappa + 2))
    for kappa in (1, 3, 5, 17, 101):
        assert scaled_median_variance(QUANTILES["uniform"], kappa) == \
            pytest.approx(kappa / (kappa + 2), rel=1e-8)
    # large kappa reaches h^-2(0), the limit criterion 3 checks by simulation
    for kind, h_inv_sq in (("gaussian", 2 * math.pi), ("cauchy", math.pi ** 2)):
        assert scaled_median_variance(QUANTILES[kind], 1001) == \
            pytest.approx(h_inv_sq, rel=0.01)


def test_median_breakdown():
    # Corrupting up to floor((kappa-1)/2) observations in a bin cannot move
    # the bin median outside the range of the clean observations.
    rng = np.random.default_rng(17)
    for case in range(120):
        kappa = int(rng.integers(3, 40))
        clean = rng.standard_normal(kappa)
        k_bad = int(rng.integers(0, (kappa - 1) // 2 + 1))
        corrupted = clean.copy()
        idx = rng.choice(kappa, size=k_bad, replace=False)
        corrupted[idx] = rng.choice([-1e12, 1e12], size=k_bad)
        med = sample_median(corrupted)
        keep = np.delete(clean, idx)
        assert keep.min() <= med <= keep.max()


def test_noise_estimate_hand_arithmetic():
    d = plan_grid(16, 1)  # V=8, kappa=2
    q = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
    summary = MedianSummary(design=d, q_full=q, q_half=q)
    est = estimate_noise_level(summary)
    # pairs (1-2), (3-4), (5-6), (7-8): four squared diffs of 1
    # raw = (2*2/4) * 4 = 4
    assert est.h_inv_sq == pytest.approx(4.0)
    assert est.sigma == pytest.approx(math.sqrt(4.0) / (2 * math.sqrt(16)))
    assert not est.degenerate


def test_noise_estimate_matches_pairing_formula():
    # irregular median values: estimate equals the written-out pair formula
    d = plan_grid(25, 1)
    q = np.array([1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0])
    summary = MedianSummary(design=d, q_full=q, q_half=q)
    est = estimate_noise_level(summary)
    diffs = q[0:8:2] - q[1:8:2]
    assert est.h_inv_sq == pytest.approx(
        2.0 * d.kappa / 4 * np.sum(diffs ** 2))


def test_noise_estimate_gaussian_accuracy():
    # f == 0, N(0,1) errors, q=1 large n: mean estimate within 15% of
    # 2*pi*(finite-kappa factor ~ 1). Uses the real pipeline end to end.
    d = plan_grid(4096, 1)  # T=512? J=9, kappa=8
    u = grid_1d(4096)
    vals = []
    for rep in range(30):
        rng = np.random.default_rng([31, rep])
        y = rng.standard_normal(4096)
        est = estimate_noise_level(bin_medians(bin_observations(u, y, d)))
        vals.append(est.h_inv_sq)
    mean = np.mean(vals)
    assert mean == pytest.approx(2 * math.pi, rel=0.15)


def test_degenerate_noise_clamped_and_flagged():
    d = plan_grid(16, 1)
    q = np.full(8, 3.25)
    est = estimate_noise_level(MedianSummary(design=d, q_full=q, q_half=q))
    assert est.degenerate
    assert est.h_inv_sq == NOISE_FLOOR
    assert est.sigma > 0


def test_degenerate_noise_raises_below_two_bins():
    d = plan_grid(4, 2)  # J=0 -> V=1
    assert d.V == 1
    q = np.zeros((1, 1))
    with pytest.raises(DegenerateNoise):
        estimate_noise_level(MedianSummary(design=d, q_full=q, q_half=q))


def test_known_noise_level():
    est = known_noise_level(2 * math.pi, 1024)
    assert est.source == "known"
    assert not est.degenerate
    assert est.sigma == pytest.approx(math.sqrt(2 * math.pi) / (2 * 32.0))
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(DegenerateNoise):
            known_noise_level(bad, 16)
