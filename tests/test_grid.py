"""Binning geometry and observation assignment."""

import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from medwave.dataio import read_grid_csv, write_dataset_csv
from medwave.errors import (BadValue, IncompleteGrid, NonGridSampleSize,
                            OffGridPoint)
from medwave.estimator import plan_fit
from medwave.grid import (_BLOCK_ROWS, GRID_TOL, bin_observations,
                          integer_root, plan_grid)
from medwave.medians import bin_medians


def full_grid(m, q):
    """All (m+1)^q grid points, C order."""
    axes = [np.arange(m + 1) / m] * q
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=1)


def bin_one(u, y, d):
    """``u`` binned with ``y`` as a one-member stack."""
    return bin_observations(u, d).with_responses(np.reshape(y, (1, -1)))


def oracle_bins(d, u):
    """Brute-force membership of each row: its lexicographic bin code, from
    ``axis_bins``, and whether it lies in its bin's half-bin, from the rank
    of each coordinate among the grid points of its axis interval."""
    idx = np.rint(np.reshape(u, (d.n, d.q)) * d.m).astype(np.int64)
    axis = d.axis_bins[idx] - 1
    codes = np.ravel_multi_index(tuple(axis.T), (d.T,) * d.q)
    first = np.array([np.flatnonzero(d.axis_bins == l)[0]
                      for l in range(1, d.T + 1)])
    half = (idx - first[axis] < (d.m + 1) // (2 * d.T)).all(axis=1)
    return codes, half


def oracle_medians(d, u, y):
    """Bin and half-bin medians, one np.median per bin over the members
    :func:`oracle_bins` names; the half tensor is None without half-bins."""
    codes, half = oracle_bins(d, u)
    shape = (d.T,) * d.q
    q_full = np.array([np.median(y[codes == c]) for c in range(d.V)])
    if not half.any():
        return q_full.reshape(shape), None
    q_half = np.array([np.median(y[(codes == c) & half])
                       for c in range(d.V)])
    return q_full.reshape(shape), q_half.reshape(shape)


# a spread of valid (n, q) pairs used by the sweep tests
def valid_designs():
    out = []
    for q in (1, 2, 3):
        for root in range(2, 40):
            n = root ** q
            if n >= 4:
                out.append((n, q))
    return out


def half_bin_points(d):
    """Observations per half-bin, counted by :func:`oracle_bins` (0 when
    the half-bins are empty); every half-bin holds as many, and the medians
    give a half-bin tensor exactly when there are any."""
    u = full_grid(d.m, d.q)
    codes, half = oracle_bins(d, u)
    counts = np.bincount(codes[half], minlength=d.V)
    assert (counts == counts[0]).all()
    summary = bin_medians(bin_one(u, np.zeros(d.n), d))
    assert (summary.q_half is None) == (counts[0] == 0)
    return int(counts[0])


def test_known_design_sizes():
    d = plan_grid(128, 1)
    assert (d.m, d.J, d.T, d.V, d.kappa, half_bin_points(d)) == (
        127, 5, 32, 32, 4, 2)
    d = plan_grid(4096, 2)
    assert (d.m, d.J, d.T, d.V, d.kappa, half_bin_points(d)) == (
        63, 4, 16, 256, 16, 4)
    d = plan_grid(65536, 2)
    assert (d.m, d.J, d.T, d.V, d.kappa, half_bin_points(d)) == (
        255, 6, 64, 4096, 16, 4)
    d = plan_grid(4096, 3)
    assert (d.m, d.J, d.T, d.V, d.kappa, half_bin_points(d)) == (
        15, 3, 8, 512, 8, 1)
    d = plan_grid(16, 1)
    assert (d.m, d.J, d.T, d.V, d.kappa, half_bin_points(d)) == (
        15, 3, 8, 8, 2, 1)
    # fewer than 2T points per axis: the half-bins are empty
    assert half_bin_points(plan_grid(27, 3)) == 0


def test_depth_is_maximal_dyadic():
    # J is the largest integer with 2^(4qJ) <= n^3 (exact integers).
    cases = 0
    for n, q in valid_designs():
        d = plan_grid(n, q)
        assert 2 ** (4 * q * d.J) <= n ** 3
        assert 2 ** (4 * q * (d.J + 1)) > n ** 3
        cases += 1
    assert cases >= 100


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 2 ** 4000), q=st.integers(1, 12))
@example(n=2 ** 1024, q=2)          # past what a float holds
@example(n=10 ** 400 + 1, q=2)
def test_integer_root_is_the_floor_root(n, q):
    r = integer_root(n, q)
    assert r ** q <= n < (r + 1) ** q


@settings(max_examples=300, deadline=None)
@given(r=st.integers(1, 2 ** 400), q=st.integers(2, 12),
       offset=st.sampled_from((-1, 0, 1)))
def test_integer_root_at_perfect_powers(r, q, offset):
    # random n seldom lands next to a perfect power, where a root is off
    # by one first (q = 1 has no n that is not a power)
    n = max(1, r ** q + offset)
    assert integer_root(n, q) == (r - 1 if offset < 0 and r > 1 else r)


def test_plan_grid_matches_its_definition_for_every_small_n():
    # m + 1 is the integer r >= 2 with r^q = n, found by counting up, and
    # J the largest integer with 2^(4qJ) <= n^3; every other n is refused.
    # At q = 1 every n >= 2 is a design of n axis points, so n stops at 10^4
    for q, top in ((1, 10 ** 4), (2, 10 ** 5), (3, 10 ** 5), (4, 10 ** 5)):
        roots = {}
        r = 2
        while r ** q <= top:
            roots[r ** q] = r
            r += 1
        for n in range(1, top + 1):
            if n not in roots:
                with pytest.raises(NonGridSampleSize):
                    plan_grid(n, q)
                continue
            d = plan_grid(n, q)
            J = max(J for J in range(64) if 2 ** (4 * q * J) <= n ** 3)
            assert (d.m, d.J) == (roots[n] - 1, J), (n, q)


def test_a_sample_size_past_the_float_range_is_refused_by_name():
    # a float root overflows past 2^1024; the integer root does not
    with pytest.raises(NonGridSampleSize, match=r"is not a perfect 2-th"):
        plan_grid(10 ** 400 + 1, 2)


@pytest.mark.parametrize("n, q", [(10 ** 400, 2), (2 ** 70, 2),
                                  (np.iinfo(np.intp).max // 8 + 1, 1)],
                         ids=["10^400", "2^70", "one-past-numpy"])
def test_a_perfect_power_too_large_for_numpy_is_refused_by_name(n, q):
    # each is (m+1)^q; building its axis would fail in numpy (a 10^200
    # axis, a 256 GiB one, and a 2^60-float one)
    with pytest.raises(NonGridSampleSize,
                       match=rf"is \(m\+1\)\^{q}, but its n x {q} points are "
                             r"more floats than one numpy array holds"):
        plan_grid(n, q)


def test_a_sample_size_too_long_to_print_is_named_by_its_digits():
    with pytest.raises(NonGridSampleSize,
                       match=r"^n of 5001 digits is not a perfect 2-th power"):
        plan_grid(10 ** 5000 + 1, 2)
    with pytest.raises(NonGridSampleSize, match=r"^n of 1301 digits is \("):
        plan_grid(10 ** 1300, 1)


def test_binning_never_degenerate():
    # T <= m+1 for every valid design, so every axis interval is nonempty.
    for n, q in valid_designs():
        d = plan_grid(n, q)
        assert d.T <= d.m + 1
        assert np.bincount(d.axis_bins, minlength=d.T + 1)[1:].min() >= 1
        assert np.array_equal(d.axis_lengths,
                              np.bincount(d.axis_bins, minlength=d.T + 1)[1:])
        assert np.unique(d.axis_lengths).size <= 2


@pytest.mark.parametrize("side", [512, 1025, 64, 128, 256])
def test_benchmark_designs_read_and_store_every_class_by_slices(side):
    # the q = 2 designs the benchmark fits (perfbench/workloads.py) have
    # consecutive intervals in every count class, so each class is read
    # as a view and its medians are stored through slices
    d = plan_grid(side ** 2, 2)
    for axes, index in d.median_selections:
        assert all(isinstance(sel, slice) for _, _, sel in axes), side
        assert all(isinstance(at, slice) for at in index), side


@pytest.mark.parametrize("r, q", [(64, 1), (100, 1), (33, 2), (100, 2),
                                  (21, 3)])
def test_median_classes_cover_every_bin_and_point_once(r, q):
    # the stored places of all classes tile the (T,)*q tensor, and each
    # axis class's points are exactly those of its intervals
    d = plan_grid(r ** q, q)
    hits = np.zeros(d.tensor_shape(), dtype=int)
    for axes, index in d.median_selections:
        hits[index] += 1
        for k, length, sel in axes:
            points = np.arange(d.m + 1)[sel]
            ls = np.unique(d.axis_bins[points])
            assert (np.diff(points) > 0).all() and points.size == k * length
            assert ls.size == k and (d.axis_lengths[ls - 1] == length).all()
    assert (hits == 1).all()


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
    # (named after the deleted GridDesign.axis_half, the per-axis half-bin
    # lengths.) The half-bin of every axis interval is its first
    # floor((m+1)/(2T)) points. With y the lexicographic grid code, a
    # half-bin is a box of codes symmetric about its centre, so its median
    # is the code of the centre: the interval starts plus (half_len - 1)/2
    # on every axis.
    for n, q in valid_designs():
        d = plan_grid(n, q)
        half_len = (d.m + 1) // (2 * d.T)
        assert d.axis_lengths.min() >= half_len
        u = full_grid(d.m, q)
        s = bin_medians(bin_one(u, np.arange(float(n)), d))
        if half_len == 0:
            assert s.q_half is None
            continue
        first = np.array([np.flatnonzero(d.axis_bins == l)[0]
                          for l in range(1, d.T + 1)])
        centre = first + (half_len - 1) / 2
        centre = reduce(np.add.outer, [centre * (d.m + 1) ** (q - 1 - k)
                                       for k in range(q)])
        assert np.array_equal(s.q_half[0], centre)


def test_zero_coordinate_joins_bin_one():
    d = plan_grid(64, 2)
    assert d.axis_bins[0] == 1


def test_bin_observations_small_by_hand():
    # n=16, q=2: m=3, J=1, T=2, V=4, kappa=4
    d = plan_grid(16, 2)
    assert (d.T, d.V, d.kappa, half_bin_points(d)) == (2, 4, 4, 1)
    u = full_grid(3, 2)
    y = np.arange(16.0)
    b = bin_one(u, y, d)
    assert np.array_equal(b.counts, [[4, 4], [4, 4]])
    # u is already in grid order, so the scatter only reshapes
    assert np.array_equal(b.y_grid[0], y.reshape(4, 4))
    # grid point (0,0) -> bin (1,1) -> code 0; (1.0,1.0) -> bin (2,2) -> code 3
    codes, half = oracle_bins(d, u)
    assert codes[0] == 0
    assert codes[-1] == 3
    # responses grouped as expected (C-order grid enumeration: rows are u1
    # blocks of 4). u1 in {0,1/3} x u2 in {0,1/3} -> y 0,1,4,5
    assert sorted(y[codes == 0].tolist()) == [0.0, 1.0, 4.0, 5.0]
    assert sorted(y[codes == 3].tolist()) == [10.0, 11.0, 14.0, 15.0]
    # half-bin of bin (1,1) is the single grid point (0, 0)
    assert y[(codes == 0) & half].tolist() == [0.0]
    s = bin_medians(b)
    assert s.q_full[0].tolist() == [[2.5, 4.5], [10.5, 12.5]]
    assert s.q_half[0].tolist() == [[0.0, 2.0], [8.0, 10.0]]


def test_bin_codes_are_lexicographic():
    # each response is its row's bin code, so every bin median is the code
    # of its bin: the median tensor is laid out in lexicographic order
    d = plan_grid(81, 2)  # m=8, T=4
    u = full_grid(8, 2)
    codes, _ = oracle_bins(d, u)
    # axis intervals of 0..8 are 000 11 22 33: the codes row by row in u1
    assert np.array_equal(codes.reshape(9, 9), [
        [0, 0, 0, 1, 1, 2, 2, 3, 3],
        [0, 0, 0, 1, 1, 2, 2, 3, 3],
        [0, 0, 0, 1, 1, 2, 2, 3, 3],
        [4, 4, 4, 5, 5, 6, 6, 7, 7],
        [4, 4, 4, 5, 5, 6, 6, 7, 7],
        [8, 8, 8, 9, 9, 10, 10, 11, 11],
        [8, 8, 8, 9, 9, 10, 10, 11, 11],
        [12, 12, 12, 13, 13, 14, 14, 15, 15],
        [12, 12, 12, 13, 13, 14, 14, 15, 15],
    ])
    perm = np.random.default_rng(2).permutation(81)
    s = bin_medians(bin_one(u[perm], codes[perm].astype(float), d))
    assert np.array_equal(s.q_full[0], np.arange(16.0).reshape(4, 4))


def test_counts_partition_sample():
    for n, q in [(125, 3), (256, 2), (100, 1), (729, 3)]:
        d = plan_grid(n, q)
        u = full_grid(d.m, q)
        b = bin_observations(u, d)
        codes, half = oracle_bins(d, u)
        assert b.counts.shape == (d.T,) * q
        assert np.array_equal(b.counts.ravel(),
                              np.bincount(codes, minlength=d.V))
        assert b.counts.sum() == n
        assert b.counts.min() >= 1
        half_len = (d.m + 1) // (2 * d.T)
        assert np.array_equal(np.bincount(codes[half], minlength=d.V),
                              np.full(d.V, half_len ** q))


def test_observation_order_irrelevant():
    # binning is a property of the set of (u, y) pairs, not their order
    rng = np.random.default_rng(7)
    for n, q in ((49, 2), (81, 2)):  # without and with half-bins
        d = plan_grid(n, q)
        u = full_grid(d.m, q)
        y = rng.standard_normal(n)
        base = bin_one(u, y, d)
        ref_full, ref_half = oracle_medians(d, u, y)
        for _ in range(100):
            perm = rng.permutation(n)
            b = bin_one(u[perm], y[perm], d)
            assert np.array_equal(b.y_grid, base.y_grid)
            s = bin_medians(b)
            assert np.array_equal(s.q_full[0], ref_full)
            if ref_half is None:
                assert s.q_half is None
            else:
                assert np.array_equal(s.q_half[0], ref_half)


def test_determinism():
    d = plan_grid(64, 2)
    u = full_grid(7, 2)
    y = np.random.default_rng(0).standard_normal(64)
    a = bin_one(u, y, d)
    b = bin_one(u, y, d)
    assert np.array_equal(a.y_grid.view(np.uint64), b.y_grid.view(np.uint64))
    sa, sb = bin_medians(a), bin_medians(b)
    assert np.array_equal(sa.q_full.view(np.uint64), sb.q_full.view(np.uint64))


def test_u_binned_once_bins_many_responses():
    # rows out of grid order; each response vector lands at its row's grid
    # position, and u alone carries no responses
    d = plan_grid(81, 2)
    rng = np.random.default_rng(1)
    u = full_grid(8, 2)[rng.permutation(81)]
    plain = bin_observations(u, d)
    assert plain.y_grid is None
    for _ in range(3):
        y = rng.standard_cauchy(81)
        got = plain.with_responses(y[None]).y_grid
        want = np.empty(81)
        want[oracle_grid_code(u, d)] = y
        assert np.array_equal(got.view(np.uint64),
                              want.reshape(1, 9, 9).view(np.uint64))
    with pytest.raises(IncompleteGrid, match=r"got u\(81, 2\), y\(80,\)"):
        plain.with_responses(np.zeros(80))


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
        bin_observations(u, d)
    u = np.arange(16) / 15.0
    u[3] = 1.2
    with pytest.raises(OffGridPoint):
        bin_observations(u, d)


def test_incomplete_grid_rejected():
    d = plan_grid(16, 1)
    u = np.arange(16) / 15.0
    u[3] = u[4]  # duplicate + missing
    with pytest.raises(IncompleteGrid) as exc:
        bin_observations(u, d)
    assert str(exc.value) == oracle_incomplete(u[:, None], d)
    assert str(exc.value).endswith(f"({4 / 15!r},) is duplicated")
    # wrong count
    with pytest.raises(IncompleteGrid):
        bin_observations(np.arange(15) / 14.0, d)


def test_tiny_perturbations_within_tolerance_accepted():
    d = plan_grid(25, 1)
    u = np.arange(25) / 24.0 + 1e-12
    b = bin_observations(u, d)
    assert b.counts.sum() == 25


def oracle_off_grid(u, m):
    """The exact off-grid test, |u - rint(u m)/m| <= GRID_TOL, per entry:
    its decision and the ``OffGridPoint`` text of its worst entry."""
    err = np.abs(u - np.rint(u * m) / m)
    if err.max() <= GRID_TOL:
        return None
    at = np.unravel_index(np.argmax(err), err.shape)
    return (f"coordinate {float(u[at])!r} is not a multiple of 1/{m} "
            f"(off by {err[at]:.3e})")


def near_tolerance(x, sign, ulps=6):
    """Floats within ``ulps`` steps either side of x + sign * GRID_TOL."""
    edge = x + sign * GRID_TOL
    out = [edge]
    for direction in (-np.inf, np.inf):
        v = edge
        for _ in range(ulps):
            v = np.nextafter(v, direction)
            out.append(v)
    return out


@pytest.mark.parametrize("r, q", [(4, 1), (17, 1), (1001, 1), (9999, 1),
                                  (17, 2), (5, 3)])
def test_off_grid_decision_matches_the_exact_test(r, q):
    # coordinates a few ulps either side of j/m +- GRID_TOL, on both sides
    # of 0 and 1 too: bin_observations accepts exactly what the exact test
    # accepts and words each rejection as it does; m = 9998 rounds u*m to
    # a coarser ulp than u
    d = plan_grid(r ** q, q)
    m = d.m
    u = full_grid(m, q)
    rng = np.random.default_rng(r * 10 + q)
    outcomes = set()
    for j in sorted({0, 1, m // 3, m - 1, m}):
        for sign in (-1.0, 1.0):
            for x in near_tolerance(j / m, sign):
                # a row at j/m on the axis moves to x, so an accepted x
                # leaves the grid complete
                col = int(rng.integers(q))
                row = rng.choice(np.flatnonzero(u[:, col] == j / m))
                bad = u.copy()
                bad[row, col] = x
                want = oracle_off_grid(bad, m)
                outcomes.add(want is None)
                if want is None:
                    b = bin_observations(bad, d)
                    assert b.ordered and b.grid_code is None
                else:
                    with pytest.raises(OffGridPoint) as exc:
                        bin_observations(bad, d)
                    assert str(exc.value) == want
    assert outcomes == {True, False}


def test_off_grid_names_the_worst_of_several_coordinates():
    d = plan_grid(33 ** 2, 2)
    u = full_grid(d.m, 2)
    u[[5, 700], 1] += [2e-9, 5e-9]
    u[300, 0] -= 3e-9
    with pytest.raises(OffGridPoint) as exc:
        bin_observations(u, d)
    assert str(exc.value) == oracle_off_grid(u, d.m)
    assert repr(float(u[700, 1])) in str(exc.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_coordinate_wins_over_every_other_fault(bad):
    # an off-grid, an out-of-range and a duplicated row come first; the
    # non-finite coordinate is still the one named
    d = plan_grid(17 ** 2, 2)
    u = full_grid(d.m, 2)
    u[3, 0] += 1e-6
    u[7, 1] = 1.5
    u[9] = u[10]
    u[40, 1] = bad
    with pytest.raises(BadValue, match=rf"u\[40, 1\] = {bad} is not finite"):
        bin_observations(u, d)


def oracle_incomplete(u, d):
    """The ``IncompleteGrid`` text of a grid-aligned u with repeats: the
    most repeated point is named, its coordinates as plain floats."""
    idx = np.rint(u * d.m).astype(np.int64)
    occur = np.bincount(np.ravel_multi_index(tuple(idx.T), (d.m + 1,) * d.q),
                        minlength=d.n)
    pt = np.unravel_index(np.argmax(occur), (d.m + 1,) * d.q)
    return f"grid point {tuple(int(p) / d.m for p in pt)} is duplicated"


@pytest.mark.parametrize("r, q", [(17, 1), (9, 2), (5, 3)])
def test_incomplete_grid_names_the_same_point(r, q):
    d = plan_grid(r ** q, q)
    rng = np.random.default_rng(r + q)
    for copies in (2, 3):
        for _ in range(10):
            u = full_grid(d.m, q)
            rows = rng.choice(d.n, size=copies + 2, replace=False)
            u[rows[1:copies]] = u[rows[0]]      # one point `copies` times
            u[rows[copies + 1]] = u[rows[copies]]  # another one twice
            u = u[rng.permutation(d.n)]
            with pytest.raises(IncompleteGrid) as exc:
                bin_observations(u, d)
            assert str(exc.value) == oracle_incomplete(u, d)


# designs that the blocked u check splits into several blocks of
# _BLOCK_ROWS rows and a partial last one
MULTI_BLOCK = [(300, 2), (50001, 1)]


def multi_block_grid(r, q):
    d = plan_grid(r ** q, q)
    assert d.n > 2 * _BLOCK_ROWS and d.n % _BLOCK_ROWS
    return d, full_grid(d.m, q)


def oracle_grid_code(u, d):
    """Flat C-order grid position of every row of a valid u."""
    idx = np.rint(np.reshape(u, (d.n, d.q)) * d.m).astype(np.int64)
    return np.ravel_multi_index(tuple(idx.T), (d.m + 1,) * d.q)


@pytest.mark.parametrize("r, q", MULTI_BLOCK)
def test_valid_permuted_u_codes_every_block(r, q):
    # rows in every block, the partial last one too, get their grid code
    d, u = multi_block_grid(r, q)
    rng = np.random.default_rng(r)
    y = rng.standard_cauchy(d.n)
    for _ in range(2):
        perm = rng.permutation(d.n)
        b = bin_one(u[perm], y[perm], d)
        assert np.array_equal(b.grid_code, oracle_grid_code(u[perm], d))
        assert np.array_equal(b.y_grid.ravel().view(np.uint64),
                              y.view(np.uint64))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("r, q", MULTI_BLOCK)
def test_non_finite_in_last_block_wins_over_first_block_range(r, q, bad):
    d, u = multi_block_grid(r, q)
    u[5, 0] = 1.5
    u[_BLOCK_ROWS - 1, q - 1] += 1e-6
    row = d.n - 3
    u[row, q - 1] = bad
    with pytest.raises(BadValue,
                       match=rf"u\[{row}, {q - 1}\] = {bad} is not finite"):
        bin_observations(u, d)


@pytest.mark.parametrize("r, q", MULTI_BLOCK)
def test_off_grid_in_several_blocks_names_the_farthest(r, q):
    # the farthest coordinate lies in a later block than the first fault,
    # then in the first block, then alone in the partial last block
    d, u = multi_block_grid(r, q)
    last = d.n - d.n % _BLOCK_ROWS
    for rows, offsets in (([7, last + 2], [2e-9, 5e-9]),
                          ([7, 2 * _BLOCK_ROWS + 1], [-6e-9, 3e-9]),
                          ([d.n - 1], [-4e-9])):
        bad = u.copy()
        bad[rows, 0] += offsets
        with pytest.raises(OffGridPoint) as exc:
            bin_observations(bad, d)
        assert str(exc.value) == oracle_off_grid(bad, d.m)
        far = rows[int(np.argmax(np.abs(offsets)))]
        assert repr(float(bad[far, 0])) in str(exc.value)


@pytest.mark.parametrize("r, q", MULTI_BLOCK)
def test_off_grid_decision_at_block_boundaries(r, q):
    # the first and last row of a block, and the first of the partial last
    # block, moved a few ulps either side of j/m +- GRID_TOL
    d, u = multi_block_grid(r, q)
    m = d.m
    last = d.n - d.n % _BLOCK_ROWS
    outcomes = set()
    for row in (_BLOCK_ROWS - 1, _BLOCK_ROWS, last - 1, last):
        for col in range(q):
            j = round(u[row, col] * m)
            for sign in (-1.0, 1.0):
                for x in near_tolerance(j / m, sign):
                    bad = u.copy()
                    bad[row, col] = x
                    want = oracle_off_grid(bad, m)
                    outcomes.add(want is None)
                    if want is None:
                        b = bin_observations(bad, d)
                        assert b.ordered and b.grid_code is None
                    else:
                        with pytest.raises(OffGridPoint) as exc:
                            bin_observations(bad, d)
                        assert str(exc.value) == want
    assert outcomes == {True, False}


@pytest.mark.parametrize("r, q", MULTI_BLOCK)
def test_point_repeated_across_blocks_is_named(r, q):
    d, u = multi_block_grid(r, q)
    rng = np.random.default_rng(q)
    last = d.n - d.n % _BLOCK_ROWS
    cases = ([(3, [last + 1])],                        # first and last block
             [(last + 4, [1, _BLOCK_ROWS]),             # three times
              (2 * _BLOCK_ROWS, [last + 9])])           # and another twice
    for case in cases:
        bad = u.copy()
        for src, dsts in case:
            bad[dsts] = bad[src]
        bad = bad[rng.permutation(d.n)]
        with pytest.raises(IncompleteGrid) as exc:
            bin_observations(bad, d)
        assert str(exc.value) == oracle_incomplete(bad, d)


# grid order: q = 1, 2 and 3, and the multi-block designs
ORDER_DESIGNS = [(40, 1), (9, 2), (5, 3)] + MULTI_BLOCK


def out_of_order(n, rng):
    """Row orders that are not grid order: reversed, one adjacent swap (in
    the middle and across the first block boundary when there is one) and
    a random permutation."""
    perms = [np.arange(n)[::-1], rng.permutation(n)]
    for row in {n // 2, min(_BLOCK_ROWS, n - 1)}:
        swap = np.arange(n)
        swap[[row - 1, row]] = swap[[row, row - 1]]
        perms.append(swap)
    return perms


@pytest.mark.parametrize("r, q", ORDER_DESIGNS)
def test_u_in_grid_order_is_recorded_as_ordered(r, q):
    d = plan_grid(r ** q, q)
    u = full_grid(d.m, q)
    b = bin_observations(u, d)
    assert b.ordered and b.grid_code is None
    for perm in out_of_order(d.n, np.random.default_rng(r + q)):
        b = bin_observations(u[perm], d)
        assert not b.ordered
        assert np.array_equal(b.grid_code, oracle_grid_code(u[perm], d))


@pytest.mark.parametrize("r, q", ORDER_DESIGNS)
def test_increasing_u_with_a_repeat_is_incomplete(r, q):
    # rows in increasing grid order, one point repeated and the next one
    # missing: at the first and last row, inside a block and across the
    # first block boundary
    d = plan_grid(r ** q, q)
    for row in sorted({1, d.n // 3, min(_BLOCK_ROWS, d.n - 1), d.n - 1}):
        u = full_grid(d.m, q)
        u[row] = u[row - 1]
        with pytest.raises(IncompleteGrid) as exc:
            bin_observations(u, d)
        assert str(exc.value) == oracle_incomplete(u, d)


# q = 1, 2 and 3, each with a design whose axis intervals take one length
# and one whose intervals take two, and the multi-block designs
PREFIX_DESIGNS = ([(40, 1), (17, 1), (16, 2), (9, 2), (8, 3), (5, 3)]
                  + MULTI_BLOCK)


def boundary_rows(d):
    """The first two and last two rows, and the rows either side of every
    boundary of a slab of leading indices (about _BLOCK_ROWS rows) and of
    a block of _BLOCK_ROWS rows."""
    inner = d.n // (d.m + 1)
    slab = max(1, _BLOCK_ROWS // inner) * inner
    rows = {0, 1, d.n - 2, d.n - 1}
    for step in (slab, _BLOCK_ROWS):
        for edge in range(step, d.n, step):
            rows |= {edge - 1, edge}
    return sorted(rows)


# (row pick, column pick, side of the tolerance, ulps from its edge)
MOVES = st.lists(st.tuples(st.integers(0, 99), st.integers(0, 2),
                           st.sampled_from((-1.0, 1.0)), st.integers(-3, 3)),
                 min_size=1, max_size=3)
PAIRS = st.none() | st.tuples(st.integers(0, 99), st.integers(0, 99))


@settings(max_examples=150, deadline=None)
@given(design=st.sampled_from(PREFIX_DESIGNS), moves=MOVES, swap=PAIRS,
       repeat=PAIRS, seed=st.integers(0, 2 ** 32 - 1))
@example(design=(40, 1), moves=[(0, 0, 1.0, 0)], swap=None, repeat=None,
         seed=0)
@example(design=(5, 3), moves=[(0, 2, -1.0, 0)], swap=None, repeat=None,
         seed=0)
def test_grid_order_check_matches_the_exact_test(design, moves, swap, repeat,
                                                 seed):
    # u in grid order with coordinates moved to a few ulps either side of
    # j/m +- GRID_TOL at slab and block boundaries and at the first and
    # last row, two rows swapped or one repeated: u is ordered exactly when
    # every row is within GRID_TOL of its own grid point, every error is
    # the exact test's, and the fit equals the fit on permuted rows
    r, q = design
    d = plan_grid(r ** q, q)
    grid = full_grid(d.m, q)
    u = grid.copy()
    rows = boundary_rows(d)
    for pick, col, sign, ulps in moves:
        at = rows[pick % len(rows)], col % q
        x = grid[at] + sign * GRID_TOL
        for _ in range(abs(ulps)):
            x = np.nextafter(x, ulps * np.inf)
        u[at] = x
    if swap is not None:
        i, k = rows[swap[0] % len(rows)], rows[swap[1] % len(rows)]
        u[[i, k]] = u[[k, i]]
    if repeat is not None:
        i, k = rows[repeat[0] % len(rows)], rows[repeat[1] % len(rows)]
        u[k] = u[i]
    off = oracle_off_grid(u, d.m)
    if off is not None:
        with pytest.raises(OffGridPoint) as exc:
            bin_observations(u, d)
        assert str(exc.value) == off
        return
    if len(np.unique(oracle_grid_code(u, d))) < d.n:
        with pytest.raises(IncompleteGrid) as exc:
            bin_observations(u, d)
        assert str(exc.value) == oracle_incomplete(u, d)
        return
    b = bin_observations(u, d)
    assert b.ordered == bool(np.abs(u - grid).max() <= GRID_TOL)
    if not b.ordered:
        assert np.array_equal(b.grid_code, oracle_grid_code(u, d))
    rng = np.random.default_rng(seed)
    Y = rng.standard_cauchy((2, d.n))
    perm = rng.permutation(d.n)
    got = plan_fit(u).fit_many(Y)
    want = plan_fit(u[perm]).fit_many(Y[:, perm])
    for a, w in zip(got, want):
        assert a.f_hat.tobytes() == w.f_hat.tobytes()
        assert (a.b_hat, a.noise.h_inv_sq) == (w.b_hat, w.noise.h_inv_sq)


@pytest.mark.parametrize("r, q", [(40, 1), (9, 2), (5, 3)])
def test_ordered_responses_are_a_read_only_view(r, q):
    d = plan_grid(r ** q, q)
    plan = bin_observations(full_grid(d.m, q), d)
    Y = np.random.default_rng(r).standard_cauchy((3, d.n))
    got = plan.with_responses(Y).y_grid
    assert got.shape == (3,) + (d.m + 1,) * q
    assert np.shares_memory(got, Y)
    assert not got.flags.writeable
    with pytest.raises(ValueError):
        got[(0,) * (q + 1)] = 0.0
    assert Y.flags.writeable


def test_ordered_strided_responses_are_a_contiguous_copy(tmp_path):
    # read_grid_csv returns y as a strided column of the parsed table
    d = plan_grid(17 ** 2, 2)
    u = full_grid(d.m, 2)
    y = np.random.default_rng(3).standard_cauchy(d.n)
    write_dataset_csv(tmp_path / "data.csv", u, y)
    u_read, y_read = read_grid_csv(tmp_path / "data.csv")
    assert not y_read.flags.c_contiguous
    plan = bin_observations(u_read, d)
    assert plan.ordered
    got = plan.with_responses(y_read[None]).y_grid
    assert got.flags.c_contiguous and not np.shares_memory(got, y_read)
    assert np.array_equal(got.ravel().view(np.uint64), y.view(np.uint64))


def test_plan_fit_peak_memory_stays_below_u():
    # the u check holds one block of temporaries at a time, so planning a
    # 513^2 design allocates less than u itself
    u = full_grid(512, 2)
    u = u[np.random.default_rng(0).permutation(len(u))]
    plan_fit(u)  # warm lazy imports and caches
    tracemalloc.start()
    try:
        plan_fit(u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < u.nbytes, (peak, u.nbytes)


def test_plan_fit_on_u_in_grid_order_builds_no_grid_code():
    # rows in grid order are checked one slab of temporaries at a time and
    # need no n-entry grid code (u.nbytes / 2 on its own)
    u = full_grid(512, 2)
    plan_fit(u)  # warm lazy imports and caches
    tracemalloc.start()
    try:
        plan = plan_fit(u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert plan.binned.ordered
    assert peak < u.nbytes / 4, (peak, u.nbytes)
