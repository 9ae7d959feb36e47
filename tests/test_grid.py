"""Binning geometry and observation assignment."""

import numpy as np
import pytest

from medwave.errors import IncompleteGrid, NonGridSampleSize, OffGridPoint
from medwave.grid import bin_observations, plan_grid


def full_grid(m, q):
    """All (m+1)^q grid points, C order."""
    axes = [np.arange(m + 1) / m] * q
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=1)


# a spread of valid (n, q) pairs used by the sweep tests
def valid_designs():
    out = []
    for q in (1, 2, 3):
        for root in range(2, 40):
            n = root ** q
            if n >= 4:
                out.append((n, q))
    return out


def test_known_design_sizes():
    d = plan_grid(128, 1)
    assert (d.m, d.J, d.T, d.V, d.kappa, d.nu) == (127, 5, 32, 32, 4, 2)
    d = plan_grid(4096, 2)
    assert (d.m, d.J, d.T, d.V, d.kappa, d.nu) == (63, 4, 16, 256, 16, 4)
    d = plan_grid(65536, 2)
    assert (d.m, d.J, d.T, d.V, d.kappa, d.nu) == (255, 6, 64, 4096, 16, 4)
    d = plan_grid(4096, 3)
    assert (d.m, d.J, d.T, d.V, d.kappa, d.nu) == (15, 3, 8, 512, 8, 1)
    d = plan_grid(16, 1)
    assert (d.m, d.J, d.T, d.V, d.kappa, d.nu) == (15, 3, 8, 8, 2, 1)


def test_depth_is_maximal_dyadic():
    # J is the largest integer with 2^(4qJ) <= n^3 (exact integers).
    cases = 0
    for n, q in valid_designs():
        d = plan_grid(n, q)
        assert 2 ** (4 * q * d.J) <= n ** 3
        assert 2 ** (4 * q * (d.J + 1)) > n ** 3
        cases += 1
    assert cases >= 100


def test_binning_never_degenerate():
    # T <= m+1 for every valid design, so every axis interval is nonempty.
    for n, q in valid_designs():
        d = plan_grid(n, q)
        assert d.T <= d.m + 1
        assert np.bincount(d.axis_bins, minlength=d.T + 1)[1:].min() >= 1


def test_axis_bins_match_interval_definition():
    # axis_bins[i] must be the l with (l-1)/T < i/m <= l/T, except i=0 -> 1.
    for n, q in valid_designs():
        d = plan_grid(n, q)
        i = np.arange(d.m + 1)
        # l = smallest integer with i*T <= l*m, in exact integer arithmetic
        exact = -((-i * d.T) // d.m)
        exact[0] = 1
        assert np.array_equal(d.axis_bins, exact)
        # half-open membership check: (l-1)/T < i/m <= l/T for i >= 1
        l = d.axis_bins[1:]
        assert np.all((l - 1) * d.m < i[1:] * d.T)
        assert np.all(i[1:] * d.T <= l * d.m)


def test_axis_half_counts():
    # exactly floor((m+1)/(2T)) lower-half points in every axis interval
    for n, q in valid_designs():
        d = plan_grid(n, q)
        half_len = (d.m + 1) // (2 * d.T)
        for l in range(1, d.T + 1):
            members = np.flatnonzero(d.axis_bins == l)
            in_half = d.axis_half[members]
            assert in_half.sum() == half_len
            # and they are the *first* points of the interval
            assert np.all(in_half[:half_len])


def test_zero_coordinate_joins_bin_one():
    d = plan_grid(64, 2)
    assert d.axis_bins[0] == 1


def test_bin_observations_small_by_hand():
    # n=16, q=2: m=3, J=1, T=2, V=4, kappa=4
    d = plan_grid(16, 2)
    assert (d.T, d.V, d.kappa, d.nu) == (2, 4, 4, 1)
    u = full_grid(3, 2)
    y = np.arange(16.0)
    b = bin_observations(u, y, d)
    assert np.array_equal(b.counts, [4, 4, 4, 4])
    assert np.array_equal(b.half_counts, [1, 1, 1, 1])
    # grid point (0,0) -> bin (1,1) -> code 0; (1.0,1.0) -> bin (2,2) -> code 3
    assert b.bin_codes[0] == 0
    assert b.bin_codes[-1] == 3
    # responses grouped as expected (C-order grid enumeration: rows are u1
    # blocks of 4). u1 in {0,1/3} x u2 in {0,1/3} -> y 0,1,4,5
    assert sorted(y[b.bin_codes == 0].tolist()) == [0.0, 1.0, 4.0, 5.0]
    assert sorted(y[b.bin_codes == 3].tolist()) == [10.0, 11.0, 14.0, 15.0]
    # half-bin of bin (1,1) is the single grid point (0, 0)
    assert y[(b.bin_codes == 0) & b.half_mask].tolist() == [0.0]


def test_bin_codes_are_lexicographic():
    d = plan_grid(81, 2)  # m=8, T=4
    u = full_grid(8, 2)
    y = np.zeros(81)
    b = bin_observations(u, y, d)
    axis = d.axis_bins[np.rint(u * 8).astype(int)]
    expected = (axis[:, 0] - 1) * d.T + (axis[:, 1] - 1)
    assert np.array_equal(b.bin_codes, expected)


def test_counts_partition_sample():
    for n, q in [(125, 3), (256, 2), (100, 1), (729, 3)]:
        d = plan_grid(n, q)
        u = full_grid(d.m, q)
        b = bin_observations(u, np.zeros(n), d)
        assert b.counts.sum() == n
        assert b.counts.min() >= 1
        assert b.half_counts.sum() == ((d.m + 1) // (2 * d.T)) ** q * d.V


def test_observation_order_irrelevant():
    # binning is a property of the set of (u, y) pairs, not their order
    rng = np.random.default_rng(7)
    d = plan_grid(49, 2)
    u = full_grid(6, 2)
    y = rng.standard_normal(49)
    base = bin_observations(u, y, d)
    for _ in range(100):
        perm = rng.permutation(49)
        b = bin_observations(u[perm], y[perm], d)
        assert np.array_equal(b.counts, base.counts)
        assert np.array_equal(b.half_counts, base.half_counts)
        for c in range(d.V):
            assert sorted(y[perm][b.bin_codes == c]) \
                == sorted(y[base.bin_codes == c])
            assert sorted(y[perm][(b.bin_codes == c) & b.half_mask]) \
                == sorted(y[(base.bin_codes == c) & base.half_mask])


def test_determinism():
    d = plan_grid(64, 2)
    u = full_grid(7, 2)
    y = np.random.default_rng(0).standard_normal(64)
    a = bin_observations(u, y, d)
    b = bin_observations(u, y, d)
    assert np.array_equal(a.bin_codes, b.bin_codes)
    assert np.array_equal(a.order, b.order)


def test_non_grid_sample_sizes_rejected():
    with pytest.raises(NonGridSampleSize):
        plan_grid(5, 2)
    with pytest.raises(NonGridSampleSize):
        plan_grid(0, 1)
    with pytest.raises(NonGridSampleSize):
        plan_grid(1, 1)  # m = 0 is not a usable grid
    with pytest.raises(NonGridSampleSize):
        plan_grid(100, 0)
    # large perfect powers are recognized exactly (no float drift)
    assert plan_grid(99980001, 2).m == 9998  # 9999^2


def test_off_grid_point_rejected():
    d = plan_grid(16, 1)
    u = np.arange(16) / 15.0
    u[3] += 1e-6
    with pytest.raises(OffGridPoint):
        bin_observations(u, np.zeros(16), d)
    u = np.arange(16) / 15.0
    u[3] = 1.2
    with pytest.raises(OffGridPoint):
        bin_observations(u, np.zeros(16), d)


def test_incomplete_grid_rejected():
    d = plan_grid(16, 1)
    u = np.arange(16) / 15.0
    u[3] = u[4]  # duplicate + missing
    with pytest.raises(IncompleteGrid) as exc:
        bin_observations(u, np.zeros(16), d)
    assert "missing" in str(exc.value) or "duplicated" in str(exc.value)
    # wrong count
    with pytest.raises(IncompleteGrid):
        bin_observations(np.arange(15) / 14.0, np.zeros(15), d)


def test_tiny_perturbations_within_tolerance_accepted():
    d = plan_grid(25, 1)
    u = np.arange(25) / 24.0 + 1e-12
    b = bin_observations(u, np.zeros(25), d)
    assert b.counts.sum() == 25
