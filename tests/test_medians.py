"""Bin medians, bias correction, noise-level estimation."""

import math

import numpy as np
import pytest

import medwave.medians as medians_module
from medwave.errors import EmptyBin, ShapeMismatch
from medwave.grid import plan_grid
from medwave.medians import (
    NOISE_FLOOR,
    MedianSummary,
    _row_medians,
    bias_correction,
    bin_medians,
    estimate_noise_level,
)

from oracles import QUANTILES, order_statistic_mean
from test_grid import bin_one, oracle_medians


def grid_1d(n):
    return np.arange(n) / (n - 1)


def full_grid(m, q):
    axes = [np.arange(m + 1) / m] * q
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=1)


def test_sample_median_midpoint_convention():
    # the even-count midpoint convention, once of the deleted sample_median,
    # now checked through bin_medians. n=25, q=1: bins hold (4, 3, ..., 3) points, half-bins (1, ..., 1)
    d = plan_grid(25, 1)
    y = np.zeros(25)
    y[0:4] = [4.0, 1.0, 2.0, 10.0]   # even count: (2+4)/2
    y[4:7] = [1.0, 10.0, 2.0]        # odd count: the middle value
    y[7:10] = [3.0, 3.0, 7.0]        # ties
    med = bin_medians(bin_one(grid_1d(25), y, d))
    assert med.q_full[0, :3].tolist() == [3.0, 2.0, 3.0]
    assert med.q_half[0, :3].tolist() == [4.0, 1.0, 3.0]


def test_bin_medians_by_hand_unequal_counts():
    # n=25, q=1: T=8, counts (4,3,3,3,3,3,3,3) make two count classes
    d = plan_grid(25, 1)
    assert d.T == 8
    u = grid_1d(25)
    y = u * 24  # y = index, so bin medians are medians of index runs
    b = bin_one(u, y, d)
    assert b.counts.tolist() == [4, 3, 3, 3, 3, 3, 3, 3]
    med = bin_medians(b)
    assert med.q_full[0, 0] == 1.5         # median of 0,1,2,3
    assert med.q_full[0, 1] == 5.0         # median of 4,5,6
    assert med.q_full[0, 7] == 23.0        # median of 22,23,24


def test_bin_medians_equal_counts_match_ragged_path():
    # the per-bin oracle stands in for the deleted ragged-median path
    rng = np.random.default_rng(3)
    d = plan_grid(64, 1)  # T=16, kappa=4, equal counts
    u = grid_1d(64)
    y = rng.standard_normal(64)
    med = bin_medians(bin_one(u, y, d))
    q_full, q_half = oracle_medians(d, u, y)
    assert np.array_equal(med.q_full[0], q_full)
    assert np.array_equal(med.q_half[0], q_half)


def medians_cases(rng):
    """Designs (r points per axis, q) covering T | r, T not dividing r and
    empty half-bins, then random ones of every dimension."""
    pinned = [(64, 1), (25, 1), (7, 1), (8, 2), (9, 2), (7, 2), (16, 3),
              (9, 3), (7, 3), (2, 2), (3, 3)]
    limits = {1: 3000, 2: 100, 3: 25}
    drawn = []
    for _ in range(40):
        q = int(rng.integers(1, 4))
        drawn.append((int(rng.integers(2, limits[q] + 1)), q))
    return pinned + drawn


def test_bin_medians_match_brute_force_oracle():
    # q_full and q_half equal one np.median per bin over the oracle's
    # members, bit for bit, with the rows in random order
    rng = np.random.default_rng(20)
    seen = set()
    for r, q in medians_cases(rng):
        d = plan_grid(r ** q, q)
        seen.add("divides" if r % d.T == 0 else "uneven")
        u = full_grid(r - 1, q)
        y = rng.standard_cauchy(d.n)
        if rng.random() < 0.5:
            y = np.round(y)  # ties
        perm = rng.permutation(d.n)
        med = bin_medians(bin_one(u[perm], y[perm], d))
        q_full, q_half = oracle_medians(d, u, y)
        assert np.array_equal(med.q_full[0].view(np.uint64),
                              q_full.view(np.uint64)), (r, q)
        if q_half is None:
            seen.add("no half-bins")
            assert med.q_half is None, (r, q)
        else:
            assert np.array_equal(med.q_half[0].view(np.uint64),
                                  q_half.view(np.uint64)), (r, q)
    assert seen == {"divides", "uneven", "no half-bins"}


def row_median_cases(rng, count):
    """Rows of ``count`` values: rounded Cauchy ties, only -0.0, and -0.0
    mixed with +0.0 (alone and among other values)."""
    ties = np.round(rng.standard_cauchy((6, count)))
    zeros = np.zeros((4, count))
    zeros[0] = -0.0
    zeros[1:] *= np.where(rng.random((3, count)) < 0.5, -1.0, 1.0)
    mixed = np.round(rng.standard_cauchy((4, count))) * np.sign(
        rng.standard_normal((4, count)))   # -0.0 where a tie rounds to 0
    return np.concatenate([ties, zeros, mixed])


@pytest.mark.parametrize("parity", ["odd", "even"])
def test_row_medians_match_np_median_bitwise(parity):
    # counts from 1 to 200, far beyond the ~16 of the design-driven oracle
    rng = np.random.default_rng(41 if parity == "odd" else 42)
    counts = range(1 if parity == "odd" else 2, 201, 2)
    for count in counts:
        rows = row_median_cases(rng, count)
        assert np.signbit(rows).any()
        expected = np.array([np.median(row) for row in rows])
        got = _row_medians(rows.copy())
        assert np.array_equal(got.view(np.uint64),
                              expected.view(np.uint64)), count
        assert not np.signbit(got[(rows == 0).all(axis=1)]).any(), count


def test_bin_medians_of_negative_zeros_are_positive_zero():
    # np.median never returns -0.0; neither do the bin or half-bin medians,
    # on equal counts (64 points) and on two or three count classes
    for r, q in ((64, 1), (25, 1), (17, 2), (13, 3)):
        d = plan_grid(r ** q, q)
        med = bin_medians(bin_one(full_grid(r - 1, q), np.full(d.n, -0.0), d))
        for tensor in (med.q_full[0], med.q_half[0]):
            assert np.array_equal(tensor.view(np.uint64),
                                  np.zeros(d.tensor_shape()).view(np.uint64))


def test_bin_medians_leave_y_grid_unchanged():
    # the medians sort gathered copies, never the binned responses
    rng = np.random.default_rng(43)
    for r, q in ((64, 1), (25, 1), (64, 2), (17, 2), (13, 3), (3, 3)):
        d = plan_grid(r ** q, q)
        y = np.round(rng.standard_cauchy(d.n))
        binned = bin_one(full_grid(r - 1, q), y, d)
        before = binned.y_grid.copy()
        bin_medians(binned)
        assert np.array_equal(binned.y_grid.view(np.uint64),
                              before.view(np.uint64)), (r, q)


#: (r, q) -> route of each full-bin length class, route of the half-bins.
#: T | r: one evenly spaced run per axis. T | m = r - 1: the long first
#: interval and the rest are runs, the half-bins are not. r = 100, 19, 21:
#: the classes interleave; at 21 the short class is still evenly spaced.
MEDIAN_ROUTES = {
    (64, 1): ({4: "slice"}, "slice"),
    (65, 1): ({4: "slice", 5: "slice"}, "take"),
    (100, 1): ({6: "take", 7: "take"}, "take"),
    (16, 2): ({2: "slice"}, "slice"),
    (33, 2): ({4: "slice", 5: "slice"}, "take"),
    (100, 2): ({6: "take", 7: "take"}, "take"),
    (16, 3): ({2: "slice"}, "slice"),
    (17, 3): ({2: "slice", 3: "slice"}, "take"),
    (19, 3): ({2: "take", 3: "take"}, "take"),
    (21, 3): ({2: "slice", 3: "take"}, "take"),
}


@pytest.mark.parametrize("r, q", list(MEDIAN_ROUTES))
def test_bin_medians_take_each_selection_route(r, q, monkeypatch):
    # each class is selected by the route its design calls for, and both
    # routes give the oracle's medians bit for bit: rows in random order,
    # rounded Cauchy ties, -0.0 mixed with +0.0
    routes = {}
    even_step = medians_module._even_step

    def recording(starts, length, size):
        step = even_step(starts, length, size)
        routes.setdefault(length, set()).add(
            "take" if step is None else "slice")
        return step

    monkeypatch.setattr(medians_module, "_even_step", recording)
    rng = np.random.default_rng(r * 3 + q)
    d = plan_grid(r ** q, q)
    u = full_grid(r - 1, q)
    y = np.round(rng.standard_cauchy(d.n))
    y[rng.random(d.n) < 0.2] = -0.0
    perm = rng.permutation(d.n)
    binned = bin_one(u[perm], y[perm], d)
    before = binned.y_grid.copy()
    med = bin_medians(binned)

    full, half = MEDIAN_ROUTES[r, q]
    half_length = (d.m + 1) // (2 * d.T)
    assert half_length not in full
    assert sorted(full) == np.unique(d.axis_lengths).tolist()
    assert routes == {**{k: {v} for k, v in full.items()},
                      half_length: {half}}
    q_full, q_half = oracle_medians(d, u, y)
    assert np.array_equal(med.q_full[0].view(np.uint64),
                          q_full.view(np.uint64))
    assert np.array_equal(med.q_half[0].view(np.uint64),
                          q_half.view(np.uint64))
    assert np.array_equal(binned.y_grid.view(np.uint64),
                          before.view(np.uint64))


def test_empty_half_bin_is_named():
    # q=3 with only 3 points per axis: half length floor(3/4) = 0
    d = plan_grid(27, 3)
    assert (d.m + 1) // (2 * d.T) == 0
    u = full_grid(2, 3)
    summary = bin_medians(bin_one(u, np.zeros(27), d))
    assert summary.q_half is None
    with pytest.raises(EmptyBin) as exc:
        bias_correction(summary)
    assert "half-bin (1, 1, 1) is empty" in str(exc.value)


def test_median_summary_shape_guard():
    d = plan_grid(16, 1)
    with pytest.raises(ShapeMismatch):
        MedianSummary(design=d, q_full=np.zeros(4), q_half=np.zeros(8))


def test_bias_correction_constant_shift_invariant():
    rng = np.random.default_rng(11)
    d = plan_grid(256, 1)
    u = grid_1d(256)
    y = rng.standard_normal(256)
    [b0] = bias_correction(bin_medians(bin_one(u, y, d)))
    [b1] = bias_correction(bin_medians(bin_one(u, y + 37.5, d)))
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
        vals.extend(bias_correction(bin_medians(bin_one(u, y, d))))
    vals = np.asarray(vals)
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean()) < 2 * se + 1e-12


def test_error_median_expectation_shifted_exponential():
    # Independent oracle for the bias the half-bin machinery estimates:
    # the mean sample median of kappa=16 draws from Exp(1) - ln 2.
    # Exact value via order statistics of Exp(1): E X_(k:n) = H_n - H_{n-k};
    # the asymptotic expansion -h'(0)/(8 h^3(0) kappa) gives 1/(2 kappa).
    kappa = 16
    exact = (order_statistic_mean(QUANTILES["exponential"], 8, 16)
             + order_statistic_mean(QUANTILES["exponential"], 9, 16)) / 2.0 \
        - math.log(2.0)
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
    meds = np.median(x, axis=1)
    h0 = 1.0 / math.sqrt(2 * math.pi)
    z = math.sqrt(4 * kappa) * h0 * meds
    assert z.var(ddof=1) == pytest.approx(1.0, abs=0.05)


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
        med = np.median(corrupted)
        keep = np.delete(clean, idx)
        assert keep.min() <= med <= keep.max()


def test_noise_estimate_hand_arithmetic():
    d = plan_grid(16, 1)  # V=8, kappa=2
    q = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
    summary = MedianSummary(design=d, q_full=q[None], q_half=q[None])
    [est] = estimate_noise_level(summary)
    # pairs (1-2), (3-4), (5-6), (7-8): four squared diffs of 1
    # raw = (2*2/4) * 4 = 4
    assert est.h_inv_sq == pytest.approx(4.0)
    assert not est.degenerate


def test_noise_estimate_matches_pairing_formula():
    # irregular median values: estimate equals the written-out pair formula
    d = plan_grid(25, 1)
    q = np.array([1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0])
    summary = MedianSummary(design=d, q_full=q[None], q_half=q[None])
    [est] = estimate_noise_level(summary)
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
        [est] = estimate_noise_level(bin_medians(bin_one(u, y, d)))
        vals.append(est.h_inv_sq)
    mean = np.mean(vals)
    assert mean == pytest.approx(2 * math.pi, rel=0.15)


def test_degenerate_noise_clamped_and_flagged():
    d = plan_grid(16, 1)
    q = np.full((1, 8), 3.25)
    [est] = estimate_noise_level(MedianSummary(design=d, q_full=q, q_half=q))
    assert est.degenerate
    assert est.h_inv_sq == NOISE_FLOOR


def test_single_bin_noise_is_the_flagged_floor():
    # a single bin (J = 0, V = 1) has no pair: every member's raw estimate
    # is 0, which is clamped to the floor and flagged
    d = plan_grid(4, 2)
    assert d.V == 1
    q = np.array([0.0, 7.5, -2.0]).reshape(3, 1, 1)
    noise = estimate_noise_level(MedianSummary(design=d, q_full=q, q_half=q))
    assert len(noise) == 3
    for est in noise:
        assert est.degenerate and est.source == "estimate"
        assert est.h_inv_sq == NOISE_FLOOR


def test_known_noise_level_is_used_as_given():
    d = plan_grid(1024, 1)
    rng = np.random.default_rng(41)
    q = rng.standard_normal((3,) + d.tensor_shape())
    q[1] = 2.5                        # all medians equal: no effect either
    summary = MedianSummary(design=d, q_full=q, q_half=q)
    for known in (2 * math.pi, 1e-15, 1e15):
        noise = estimate_noise_level(summary, known)
        assert len(noise) == 3
        for est in noise:
            assert est.source == "known" and not est.degenerate
            # a level below the clamp floor is not clamped
            assert est.h_inv_sq == known
    [est] = estimate_noise_level(MedianSummary(
        design=d, q_full=q[:1], q_half=q[:1]), 2 * math.pi)
    assert est.h_inv_sq == 2 * math.pi and est.source == "known"
