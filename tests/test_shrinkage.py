"""Block James-Stein shrinkage: threshold constant, tiling, factors."""

import itertools
import math

import numpy as np
import pytest

from medwave import shrinkage as shrinkage_module
from medwave.errors import BadValue
from medwave.shrinkage import (
    default_block_cardinality,
    partition_blocks,
    shrink,
    solve_lambda_star,
)
from medwave.wavelets import build_filter, dwt_qd

from test_wavelets import levels, subband, subbands

HAAR = build_filter("haar")


def bisect_lambda():
    """Independent bisection for the root of x - ln x = 3 on [4, 5]."""
    f = lambda x: x - math.log(x) - 3.0
    lo, hi = 4.0, 5.0
    assert f(lo) < 0 < f(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def zero_stack(q, T):
    """A one-member stack of zero coefficients."""
    return np.zeros((1,) + (T,) * q)


def shrink_one(coeffs, j0, n, h_inv_sq, L):
    """:func:`shrink` of a one-member stack at the noise level h_inv_sq."""
    return shrink(coeffs, j0, n, np.full(1, h_inv_sq), L)


# ---------------------------------------------------------------------------
# threshold constant
# ---------------------------------------------------------------------------

def test_lambda_star_against_bisection():
    lam = solve_lambda_star()
    assert abs(lam - bisect_lambda()) < 1e-12
    assert abs(lam - math.log(lam) - 3.0) < 1e-12
    assert 4.505 < lam < 4.506


def test_lambda_star_is_the_brentq_root():
    # the constant is scipy's brentq root on (1, 10) to the bit
    from scipy.optimize import brentq
    root = brentq(lambda x: x - math.log(x) - 3.0, 1.0, 10.0,
                  xtol=1e-14, rtol=8.9e-16)
    lam = solve_lambda_star()
    assert lam == root
    assert abs(lam - math.log(lam) - 3.0) < 1e-12


def test_default_block_cardinality():
    assert default_block_cardinality(1024) == 6
    assert default_block_cardinality(65536) == 11
    assert default_block_cardinality(2) == 1
    assert default_block_cardinality(1) == 1


# ---------------------------------------------------------------------------
# brute-force reference: the per-block loop, tile by tile
# ---------------------------------------------------------------------------

def oracle_side(L, q):
    """Largest side s >= 1 with s**q <= L, by counting up."""
    s = 1
    while (s + 1) ** q <= L:
        s += 1
    return s


def oracle_tiles(size, side, q):
    """Every block of a (size,)*q subband as a tuple of slices, C order."""
    axis = [slice(a, min(a + side, size)) for a in range(0, size, side)]
    return list(itertools.product(axis, repeat=q))


def oracle_shrink(coeffs, j0, n, h_inv_sq, L):
    """Shrink the one-member stack ``coeffs`` one explicitly sliced block
    at a time.

    Returns the member's shrunk details and, per level, the list of block
    factors in subband-then-tile order.
    """
    lam = solve_lambda_star()
    q = coeffs.ndim - 1
    side = oracle_side(L, q)
    scale = 4.0 * n / h_inv_sq
    details, factors = {}, {}
    for (j, i), [src] in subbands(coeffs, j0):
        dst = np.zeros_like(src)
        for sl in oracle_tiles(2 ** j, side, q):
            card = int(np.prod([s.stop - s.start for s in sl]))
            s2 = float(np.sum(src[sl] ** 2))
            c = 0.0 if s2 <= 0.0 else max(
                0.0, 1.0 - lam * card / (scale * s2))
            dst[sl] = src[sl] * c
            factors.setdefault(j, []).append(c)
        details[(j, i)] = dst
    return details, factors


def random_case(rng):
    """A random one-member stack, its j0 and (n, h_inv_sq, L), whose
    factors span zeroed to near 1."""
    q = int(rng.integers(1, 4))
    T = int(rng.choice({1: [8, 16, 32, 64], 2: [4, 8, 16], 3: [4, 8]}[q]))
    j0 = int(rng.integers(0, int(math.log2(T))))
    n = int(rng.integers(4, 10000))
    h_inv_sq = float(rng.uniform(0.1, 10.0))
    L = int(rng.integers(1, 41))
    sigma = math.sqrt(h_inv_sq / (4.0 * n))
    coeffs = zero_stack(q, T)
    for _, v in subbands(coeffs, j0):
        amp = sigma * float(rng.choice([0.0, 0.5, 1.0, 2.0, 3.0, 10.0]))
        v[...] = amp * rng.standard_normal(v.shape)
    return coeffs, j0, (n, h_inv_sq, L)


# ---------------------------------------------------------------------------
# partition geometry
# ---------------------------------------------------------------------------

def test_partition_known_shapes_1d():
    # length-8 subband, target L=3 -> tiles [0:3], [3:6], [6:8]
    part = partition_blocks(range(3, 4), 1, 3)   # one detail level, size 8
    assert list(part) == [3]
    assert part[3].tolist() == [0, 3, 6]
    _, diag = shrink_one(zero_stack(1, 16), 3, 16, 1.0, 3)
    assert diag.blocks_per_level == {3: 3}


def test_partition_known_shapes_2d():
    # level-2 subbands (4x4), target L=4 -> side 2 -> four 2x2 blocks each
    part = partition_blocks(range(2, 3), 2, 4)
    assert part[2].tolist() == [0, 2]
    _, diag = shrink_one(zero_stack(2, 8), 2, 64, 1.0, 4)
    assert diag.blocks_per_level == {2: 3 * 4}


def test_partition_large_target_single_block():
    # L >= subband size -> exactly one block covering the whole subband
    part = partition_blocks(range(1, 3), 1, 64)
    assert {j: s.tolist() for j, s in part.items()} == {1: [0], 2: [0]}
    _, diag = shrink_one(zero_stack(1, 8), 1, 8, 1.0, 64)
    assert diag.blocks_per_level == {1: 1, 2: 1}


def test_shrink_matches_blockwise_oracle():
    # the array path against the per-block loop over >= 100 random cases:
    # coefficients to 1e-12 of the subband's largest input, diagnostics exact
    rng = np.random.default_rng(17)
    cases = 0
    for _ in range(150):
        coeffs, j0, args = random_case(rng)
        q = coeffs.ndim - 1
        part = partition_blocks(levels(coeffs, j0), q, args[2])
        side = oracle_side(args[2], q)
        for j, starts in part.items():
            assert starts.tolist() == list(range(0, 2 ** j, side))
        out, diag = shrink_one(coeffs, j0, *args)
        want, factors = oracle_shrink(coeffs, j0, *args)
        assert np.array_equal(subband(out, j0, 0), subband(coeffs, j0, 0))
        for key, arr in want.items():
            tol = 1e-12 * max(float(np.max(np.abs(subband(coeffs, *key)))),
                              1e-300)
            assert np.max(np.abs(subband(out, *key) - arr)) <= tol
        every = np.concatenate([factors[j] for j in sorted(factors)])
        assert diag.blocks_per_level == {j: len(f) for j, f in factors.items()}
        assert diag.zeroed_per_level == {
            j: f.count(0.0) for j, f in factors.items() if 0.0 in f}
        assert diag.total_blocks == every.size
        hist = np.zeros(10, dtype=int)
        for c in every:
            hist[min(int(c * 10), 9)] += 1
        assert np.array_equal(diag.factor_histogram, hist)
        assert diag.factor_min == pytest.approx(every.min(), abs=1e-12)
        assert diag.factor_mean == pytest.approx(every.mean(), abs=1e-12)
        cases += 1
    assert cases >= 100


def oracle_cube_shrink(coeffs, j0, n, h_inv_sq, L):
    """The rule on the one-member stack ``coeffs``, a whole level cube
    [:2^{j+1}]^q at a time, its geometry rebuilt on every call: block
    energies and cardinalities by one ``reduceat`` and one outer product per
    axis, factors spread by one ``np.repeat`` per axis. Returns the
    coefficients and every detail block's factor, level by level."""
    lam, q = solve_lambda_star(), coeffs.ndim - 1
    scale = 4.0 * n / h_inv_sq
    [out], factors = coeffs.copy(), []
    for j in levels(coeffs, j0):
        size = 2 ** j
        tiles = np.arange(0, size, oracle_side(L, q))
        starts = np.concatenate([tiles, size + tiles])
        lengths = np.diff(starts, append=2 * size)
        cube = out[(slice(0, 2 * size),) * q]
        s2, card = cube * cube, np.ones((), dtype=np.int64)
        for ax in range(q):
            s2 = np.add.reduceat(s2, starts, axis=ax)
            card = np.multiply.outer(card, lengths)
        with np.errstate(divide="ignore"):
            c = np.where(s2 > 0.0,
                         np.maximum(0.0, 1.0 - lam * card / (scale * s2)),
                         0.0)
        corner = np.zeros(c.shape, dtype=bool)
        corner[(slice(0, tiles.size),) * q] = True
        c[corner] = 1.0
        factors.append(c[~corner])
        for ax in range(q):
            c = np.repeat(c, lengths, axis=ax)
        cube *= c
    return out[None], np.concatenate(factors)


def test_shrink_reuses_read_only_level_geometry_bit_for_bit():
    # two stacks of one geometry after another, geometries interleaved
    # (same level sizes in other q, same q with other L): each result is
    # the oracle's bit for bit, and the memoized arrays cannot be written
    rng = np.random.default_rng(29)
    geometries = [(q, T, j0, L) for q, T in ((1, 64), (2, 16), (3, 8))
                  for j0 in (0, 1) for L in (1, 3, 9, 40)]
    for q, T, j0, L in geometries + geometries[::-1]:
        for draw in range(2):
            coeffs = rng.standard_normal((1,) + (T,) * q)
            coeffs[rng.random(coeffs.shape) < 0.5] = 0.0
            coeffs[rng.random(coeffs.shape) < 0.2] = -0.0
            n, h_inv_sq = int(rng.integers(4, 10000)), float(
                rng.uniform(0.1, 10.0))
            out, diag = shrink_one(coeffs, j0, n, h_inv_sq, L)
            want, every = oracle_cube_shrink(coeffs, j0, n, h_inv_sq, L)
            assert np.array_equal(out.view(np.uint64),
                                  want.view(np.uint64)), (q, T, j0, L)
            assert diag.factor_min == every.min()
            assert diag.factor_mean == every.mean()
            assert diag.total_blocks == every.size
        for j, tiles in partition_blocks(levels(coeffs, j0), q, L).items():
            geometry = shrinkage_module._level_tiles(2 ** j, q,
                                                     tuple(tiles.tolist()))
            assert geometry is shrinkage_module._level_tiles(
                2 ** j, q, tuple(tiles.tolist()))
            arrays = [*geometry[:4], *geometry[4]]
            assert len(arrays) == 4 + q
            for a in arrays:
                assert not a.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    a.flat[0] = a.flat[0]


# ---------------------------------------------------------------------------
# shrinkage rule
# ---------------------------------------------------------------------------

def test_exact_factor_worked_example():
    # scale = 4n/h_inv_sq = 1 with n=1, h_inv_sq=4; one 2x2 block with
    # S^2 = 8 lambda* and cardinality 4 gives factor exactly 1/2
    lam = solve_lambda_star()
    coeffs = zero_stack(2, 4)
    subband(coeffs, 1, 1)[...] = math.sqrt(2.0 * lam)
    out, diag = shrink_one(coeffs, 1, 1, 4.0, 4)
    np.testing.assert_allclose(
        subband(out, 1, 1), 0.5 * math.sqrt(2.0 * lam), rtol=1e-12)
    # the other two subbands are all-zero -> factor 0
    assert np.all(subband(out, 1, 2) == 0.0)
    assert np.all(subband(out, 1, 3) == 0.0)
    assert diag.factor_min == 0.0


def test_denormal_energy_block_is_zeroed_without_overflow_warning():
    # S^2 = 1e-320 makes lambda* L / (scale S^2) overflow to inf; the
    # factor is 0 all the same, and no RuntimeWarning escapes (the tests
    # turn warnings into errors)
    coeffs = zero_stack(1, 8)
    subband(coeffs, 2, 1)[:] = [1e-160, 0.0, 0.0, 0.0]
    out, diag = shrink_one(coeffs, 1, 4, 1.0, 2)
    assert np.all(subband(out, 2, 1) == 0.0)
    assert diag.factor_min == 0.0


def test_zero_energy_block_is_zeroed_and_subthreshold_clamps():
    lam = solve_lambda_star()
    coeffs = zero_stack(1, 8)
    # level 2 (size 4): two blocks of 2 with L=2
    subband(coeffs, 2, 1)[:] = [1e-9, 0.0, 0.0, 0.0]  # tiny energy + zero block
    out, _ = shrink_one(coeffs, 1, 4, 1.0, 2)
    # s2 = 1e-18 << lam*2/16 -> factor clamps to 0, not negative
    assert np.all(subband(out, 2, 1) == 0.0)
    assert np.all(subband(out, 1, 1) == 0.0)
    assert lam * 2 / 16.0 > 1e-18


def test_gross_passes_through_bit_identical():
    rng = np.random.default_rng(7)
    coeffs = dwt_qd(rng.standard_normal((8, 8))[None], build_filter("db2"), 1)
    out, _ = shrink_one(coeffs, 1, 64, 3.7, 4)
    assert np.array_equal(subband(out, 1, 0), subband(coeffs, 1, 0))
    assert not np.shares_memory(out, coeffs)  # an independent copy


def test_input_pyramid_not_mutated():
    rng = np.random.default_rng(8)
    coeffs = rng.standard_normal((1, 16))
    before = coeffs.copy()
    shrink_one(coeffs, 1, 16, 1.0, 2)
    np.testing.assert_array_equal(coeffs, before)


def test_shrinkage_properties_random():
    # factor in [0,1]: |out| <= |in|, sign preserved or zeroed, and the
    # factor is constant within each block
    rng = np.random.default_rng(11)
    cases = 0
    for _ in range(40):
        q = int(rng.integers(1, 4))
        T = {1: 16, 2: 8, 3: 4}[q]
        j0 = int(rng.integers(0, int(math.log2(T))))
        coeffs = zero_stack(q, T)
        for _, v in subbands(coeffs, j0):
            v[...] = rng.standard_normal(v.shape) * rng.choice(
                [0.01, 1.0, 100.0])
        L = int(rng.integers(1, 9))
        out, diag = shrink_one(coeffs, j0, int(rng.integers(4, 10000)),
                               float(rng.uniform(0.1, 10.0)), L)
        side = oracle_side(L, q)
        for (j, i), [src] in subbands(coeffs, j0):
            [dst] = subband(out, j, i)
            assert np.all(np.abs(dst) <= np.abs(src) + 1e-15)
            assert np.all((dst == 0) | (np.sign(dst) == np.sign(src)))
            for sl in oracle_tiles(2 ** j, side, q):
                s, d = src[sl], dst[sl]
                nz = np.abs(s) > 1e-12
                if np.any(nz):
                    ratios = d[nz] / s[nz]
                    assert np.ptp(ratios) < 1e-10
                    assert -1e-15 <= ratios[0] <= 1.0 + 1e-15
                cases += 1
        assert 0.0 <= diag.factor_min <= 1.0
        assert 0.0 <= diag.factor_mean <= 1.0
    assert cases >= 100


def test_factor_monotone_in_signal_scale():
    # doubling every coefficient at least doubles every output coefficient
    rng = np.random.default_rng(13)
    c1 = zero_stack(1, 32)
    for _, v in subbands(c1, 2):
        v[...] = rng.standard_normal(v.shape)
    c2 = 2.0 * c1
    subband(c2, 2, 0)[...] = subband(c1, 2, 0)
    out1, _ = shrink_one(c1, 2, 32, 1.0, 3)
    out2, _ = shrink_one(c2, 2, 32, 1.0, 3)
    for key, v in subbands(out1, 2):
        a = np.abs(v)
        b = np.abs(subband(out2, *key))
        assert np.all(b + 1e-12 >= 2.0 * a)


def test_diagnostics_counts():
    # q=1, T=8, j0=0: subband sizes 1, 2, 4; L=2 -> blocks 1, 1, 2
    coeffs = zero_stack(1, 8)
    subband(coeffs, 2, 1)[...] = 1000.0      # huge energy: factor ~ 1
    out, diag = shrink_one(coeffs, 0, 8, 1.0, 2)
    assert diag.blocks_per_level == {0: 1, 1: 1, 2: 2}
    assert diag.zeroed_per_level == {0: 1, 1: 1}
    assert diag.total_blocks == 4
    assert diag.factor_min == 0.0
    assert int(diag.factor_histogram.sum()) == 4
    assert diag.factor_histogram[0] == 2          # the two zeroed blocks
    assert diag.factor_histogram[9] == 2          # the two near-1 blocks
    assert 0.4 < diag.factor_mean < 0.6
    assert np.all(np.abs(subband(out, 2, 1)) <= 1000.0)


def test_config_validation():
    coeffs = zero_stack(1, 8)
    for args in ((0, 1.0, 2), (8, 0.0, 2), (8, float("nan"), 2),
                 (8, float("inf"), 2), (8, 1.0, 0)):
        with pytest.raises(BadValue):
            shrink_one(coeffs, 0, *args)


def test_stack_is_shrunk_member_by_member():
    # per-member noise levels; the record sums the members' counts and
    # keeps each member's own record in ``rows``
    x = np.random.default_rng(8).standard_normal((3, 16, 16))
    x[1] *= 1e-3
    coeffs = dwt_qd(x, build_filter("db2"), 1)
    noise = np.array([2.0, 0.5, 30.0])
    out, whole = shrink(coeffs, 1, 4096, noise, 8)
    assert len(whole.rows) == 3
    for i, h in enumerate(noise):
        alone, diag = shrink_one(coeffs[i:i + 1], 1, 4096, h, 8)
        assert out[i].tobytes() == alone.tobytes()
        row = whole.rows[i]
        assert (row.blocks_per_level, row.zeroed_per_level, row.total_blocks,
                row.factor_min, row.factor_mean) == (
            diag.blocks_per_level, diag.zeroed_per_level, diag.total_blocks,
            diag.factor_min, diag.factor_mean)
        assert row.factor_histogram.tolist() == diag.factor_histogram.tolist()
    assert whole.total_blocks == sum(r.total_blocks for r in whole.rows)
    assert isinstance(whole.total_blocks, int)
    assert whole.zeroed_per_level == {
        j: sum(r.zeroed_per_level.get(j, 0) for r in whole.rows)
        for j in levels(coeffs, 1)
        if any(j in r.zeroed_per_level for r in whole.rows)}
    assert all(isinstance(z, int) for z in whole.zeroed_per_level.values())
    assert whole.factor_histogram.tolist() == np.sum(
        [r.factor_histogram for r in whole.rows], axis=0).tolist()


def test_stack_noise_levels_are_checked():
    coeffs = np.zeros((3, 8, 8))
    with pytest.raises(BadValue, match="does not match"):
        shrink(coeffs, 1, 64, np.ones(2), 4)
    with pytest.raises(BadValue, match="positive and finite"):
        shrink(coeffs, 1, 64, np.array([1.0, 0.0, 1.0]), 4)
    _, diag = shrink(coeffs, 1, 64, np.ones(3), 4)
    assert len(diag.rows) == 3
