"""Periodized wavelet transform: filters, transforms, matrix oracle, layout."""

import math

import numpy as np
import pytest

from medwave.errors import BadPrimaryLevel, BadShape, UnknownFilter
from medwave.shrinkage import shrink
from medwave.wavelets import (
    available_filters,
    build_filter,
    default_primary_level,
    dwt_qd,
    idwt_qd,
)

FILTERS = ("haar", "db2", "db4")


# ---------------------------------------------------------------------------
# independent straight-line reference implementation
# ---------------------------------------------------------------------------

def naive_taps(name):
    """Filter taps from first principles, independent of the package table."""
    if name == "haar":
        return [1 / math.sqrt(2)] * 2
    if name == "db2":
        s3 = math.sqrt(3.0)
        d = 4 * math.sqrt(2.0)
        return [(1 + s3) / d, (3 + s3) / d, (3 - s3) / d, (1 - s3) / d]
    if name == "db4":
        # read the taps from the package but VERIFY the defining identities
        # here with plain python arithmetic before trusting them
        h = [float(v) for v in build_filter("db4").taps_scaling]
        assert abs(sum(v * v for v in h) - 1.0) < 1e-12
        assert abs(sum(h) - math.sqrt(2.0)) < 1e-12
        for lag in (1, 2, 3):
            assert abs(sum(h[k] * h[k + 2 * lag]
                           for k in range(len(h) - 2 * lag))) < 1e-12
        g = [(-1) ** k * h[len(h) - 1 - k] for k in range(len(h))]
        for p in range(4):
            assert abs(sum((k ** p) * g[k] for k in range(len(h)))) < 1e-10
        return h
    raise ValueError(name)


def naive_step_1d(x, h):
    """One periodized analysis step on a python list."""
    L = len(h)
    N = len(x)
    g = [(-1) ** k * h[L - 1 - k] for k in range(L)]
    lo = [sum(h[k] * x[(2 * i + k) % N] for k in range(L))
          for i in range(N // 2)]
    hi = [sum(g[k] * x[(2 * i + k) % N] for k in range(L))
          for i in range(N // 2)]
    return lo, hi


def naive_step_axis(arr, axis, h):
    """Apply naive_step_1d along one axis of a small ndarray."""
    arr = np.asarray(arr, dtype=float)
    moved = np.moveaxis(arr, axis, -1)
    lo = np.empty(moved.shape[:-1] + (moved.shape[-1] // 2,))
    hi = np.empty_like(lo)
    for idx in np.ndindex(moved.shape[:-1]):
        l, hgh = naive_step_1d(list(moved[idx]), h)
        lo[idx] = l
        hi[idx] = hgh
    return np.moveaxis(lo, -1, axis), np.moveaxis(hi, -1, axis)


def naive_dwt(tensor, h, j0):
    """Full pyramid via the naive step; mirrors the documented conventions
    (bit s of the subband index set iff numpy axis s was high-passed)."""
    tensor = np.asarray(tensor, dtype=float)
    q = tensor.ndim
    J = int(round(math.log2(tensor.shape[0])))
    approx = tensor
    details = {}
    for j in range(J - 1, j0 - 1, -1):
        blocks = {0: approx}
        for axis in range(q):
            nxt = {}
            for bits, arr in blocks.items():
                lo, hi = naive_step_axis(arr, axis, h)
                nxt[bits] = lo
                nxt[bits | (1 << axis)] = hi
            blocks = nxt
        approx = blocks[0]
        for i in range(1, 2 ** q):
            details[(j, i)] = blocks[i]
    return approx, details


def naive_vector(tensor, h, j0):
    """Naive transform flattened in the package's canonical order."""
    approx, details = naive_dwt(tensor, h, j0)
    q = np.asarray(tensor).ndim
    J = int(round(math.log2(np.asarray(tensor).shape[0])))
    parts = [np.asarray(approx).ravel()]
    for j in range(j0, J):
        for i in range(1, 2 ** q):
            parts.append(np.asarray(details[(j, i)]).ravel())
    return np.concatenate(parts)


# ---------------------------------------------------------------------------
# views into the Mallat layout of a (B,) + (2^J,)^q coefficient stack
# ---------------------------------------------------------------------------

def levels(coeffs, j0):
    """The detail levels j0, ..., J-1 of the stack ``coeffs``."""
    return range(j0, coeffs.shape[-1].bit_length() - 1)


def subband(coeffs, j, i):
    """Writeable view of subband i of level j, (B,) + (2^j,)^q: the orthant
    that takes [2^j, 2^{j+1}) on the axes s with bit s of i set and
    [0, 2^j) on the others. Subband 0 of level j0 is the gross corner."""
    n = 2 ** j
    return coeffs[(...,) + tuple(slice(n, 2 * n) if i >> s & 1
                                 else slice(0, n)
                                 for s in range(coeffs.ndim - 1))]


def subbands(coeffs, j0):
    """Every detail subband view of the stack: ((level, subband), view),
    levels ascending, subbands ascending."""
    for j in levels(coeffs, j0):
        for i in range(1, 2 ** (coeffs.ndim - 1)):
            yield (j, i), subband(coeffs, j, i)


def to_vector(coeffs, j0):
    """The package transform of a one-member stack in the canonical order
    naive_vector uses: gross first, then levels and subbands ascending,
    each in C order."""
    return np.concatenate([subband(coeffs, j0, 0).ravel()]
                          + [v.ravel() for _, v in subbands(coeffs, j0)])


def oracle_matrix(q, T, name, j0):
    """Explicit transform matrix built through the naive implementation."""
    h = naive_taps(name)
    size = T ** q
    M = np.empty((size, size))
    for col in range(size):
        e = np.zeros(size)
        e[col] = 1.0
        M[:, col] = naive_vector(e.reshape((T,) * q), h, j0)
    return M


def small_instances():
    """(q, T) pairs with at most 64 entries, per the transform oracle bar."""
    return [(q, T) for q in (1, 2, 3) for T in (4, 8, 16) if T ** q <= 64]


# ---------------------------------------------------------------------------
# filters
# ---------------------------------------------------------------------------

def test_filter_registry():
    assert available_filters() == ("db2", "db4", "haar")
    with pytest.raises(UnknownFilter):
        build_filter("sym8")


@pytest.mark.parametrize("name", FILTERS)
def test_filter_identities(name):
    filt = build_filter(name)
    h = filt.taps_scaling
    g = filt.taps_wavelet
    L = filt.length
    assert g[0] == h[L - 1]
    assert abs(float(h @ h) - 1.0) <= 1e-12                  # unit energy
    assert abs(float(np.sum(h)) - math.sqrt(2.0)) <= 1e-12   # sum sqrt(2)
    for j in range(1, (L - 1) // 2 + 1):                     # even shifts
        assert abs(float(np.sum(h[:L - 2 * j] * h[2 * j:]))) <= 1e-12
    k = np.arange(L, dtype=float)
    for p in range(filt.vanishing_moments):
        assert abs(float(np.sum(k ** p * g))) <= 1e-10
    assert abs(float(np.sum(g))) <= 1e-12


@pytest.mark.parametrize("name,length,moments",
                         [("haar", 2, 1), ("db2", 4, 2), ("db4", 8, 4)])
def test_filter_shapes(name, length, moments):
    filt = build_filter(name)
    assert filt.length == length
    assert filt.vanishing_moments == moments
    assert default_primary_level(filt) == {2: 1, 4: 2, 8: 3}[length]


def test_db2_matches_closed_form():
    filt = build_filter("db2")
    np.testing.assert_allclose(filt.taps_scaling, naive_taps("db2"),
                               rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# transform correctness
# ---------------------------------------------------------------------------

def test_matrix_oracle_all_small_instances():
    # every instance with <= 64 entries, all filters, all valid j0
    for q, T in small_instances():
        J = int(math.log2(T))
        for name in FILTERS:
            filt = build_filter(name)
            for j0 in range(J):
                M = oracle_matrix(q, T, name, j0)
                size = T ** q
                # the oracle matrix itself must be orthogonal
                np.testing.assert_allclose(M @ M.T, np.eye(size), atol=1e-10)
                # package transform equals the oracle on random input
                rng = np.random.default_rng(hash((q, T, name, j0)) % 2**32)
                x = rng.standard_normal((T,) * q)
                coeffs = dwt_qd(x[None], filt, j0)
                np.testing.assert_allclose(
                    to_vector(coeffs, j0), M @ x.ravel(), atol=1e-10)
                # and the inverse equals the transpose action
                back = idwt_qd(coeffs, filt, j0)
                np.testing.assert_allclose(
                    back.ravel(), M.T @ (M @ x.ravel()), atol=1e-10)


def test_haar_ramp_matches_matrix():
    # length-8 ramp with haar at j0=0 against the 8x8 explicit matrix
    x = np.arange(8.0)
    M = oracle_matrix(1, 8, "haar", 0)
    coeffs = dwt_qd(x[None], build_filter("haar"), 0)
    np.testing.assert_allclose(to_vector(coeffs, 0), M @ x, atol=1e-12)


def test_round_trip_and_parseval_across_sizes():
    rng = np.random.default_rng(2)
    cases = 0
    for q in (1, 2, 3):
        for T in (4, 8, 16):
            J = int(math.log2(T))
            for name in FILTERS:
                filt = build_filter(name)
                for j0 in range(J):
                    for _draw in range(2):
                        x = rng.standard_normal((T,) * q)
                        coeffs = dwt_qd(x[None], filt, j0)
                        back = idwt_qd(coeffs, filt, j0)[0]
                        assert np.max(np.abs(back - x)) < 1e-10
                        ex = float(np.sum(x * x))
                        rel = abs(float(np.sum(coeffs ** 2)) - ex) / ex
                        assert rel < 1e-10
                        cases += 1
    assert cases >= 100


def oracle_synthesis_step(lo, hi, h, g, axis):
    """The inverse step as a fancy-index scatter per tap: tap k adds
    h[k] lo + g[k] hi at positions (2i + k) mod N, taps in order."""
    half = lo.shape[axis]
    N = 2 * half
    out = np.zeros(lo.shape[:axis] + (N,) + lo.shape[axis + 1:])
    for k in range(h.size):
        pos = (2 * np.arange(half) + k) % N
        out[(slice(None),) * axis + (pos,)] += h[k] * lo + g[k] * hi
    return out


def oracle_idwt(coeffs, filt, j0):
    """:func:`idwt_qd` through :func:`oracle_synthesis_step`."""
    out, q = coeffs.copy(), coeffs.ndim - 1
    h, g = filt.taps_scaling, filt.taps_wavelet
    for j in levels(coeffs, j0):
        n = 2 ** j
        cube = out[(slice(None),) + (slice(0, 2 * n),) * q]
        for ax in reversed(range(1, q + 1)):
            low = (slice(None),) * ax + (slice(0, n),)
            high = (slice(None),) * ax + (slice(n, 2 * n),)
            cube[...] = oracle_synthesis_step(cube[low], cube[high], h, g, ax)
    return out


@pytest.mark.parametrize("name", FILTERS)
def test_inverse_matches_scatter_oracle_bit_for_bit(name):
    # every q, every j0 down to 0 (where N < L for db2 and db4), with
    # +0.0 and -0.0 among the coefficients
    filt = build_filter(name)
    rng = np.random.default_rng(len(name))
    cases = 0
    for q, sizes in ((1, (2, 4, 8, 32, 128)), (2, (2, 4, 8, 32)),
                     (3, (2, 4, 8))):
        for T in sizes:
            for j0 in range(int(math.log2(T))):
                coeffs = rng.standard_normal((T,) * q)
                coeffs[rng.random(coeffs.shape) < 0.2] = 0.0
                coeffs[rng.random(coeffs.shape) < 0.2] = -0.0
                got = idwt_qd(coeffs[None], filt, j0)
                assert np.array_equal(
                    got.view(np.uint64),
                    oracle_idwt(coeffs[None], filt, j0).view(np.uint64))
                cases += 1
    assert cases == 35


def test_linearity():
    rng = np.random.default_rng(5)
    filt = build_filter("db2")
    for case in range(110):
        q = int(rng.integers(1, 3))
        T = int(rng.choice([4, 8]))
        j0 = int(rng.integers(0, int(math.log2(T))))
        x = rng.standard_normal((T,) * q)
        y = rng.standard_normal((T,) * q)
        a, b = rng.standard_normal(2)
        lhs = dwt_qd((a * x + b * y)[None], filt, j0)
        rhs = a * dwt_qd(x[None], filt, j0) + b * dwt_qd(y[None], filt, j0)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


@pytest.mark.parametrize("name", FILTERS)
def test_constant_signal(name):
    filt = build_filter(name)
    c = 2.75
    for q, T in [(1, 16), (2, 8), (3, 4)]:
        J = int(math.log2(T))
        j0 = min(default_primary_level(filt), J - 1)
        coeffs = dwt_qd(np.full((1,) + (T,) * q, c), filt, j0)
        for _, arr in subbands(coeffs, j0):
            assert np.max(np.abs(arr)) < 1e-10
        expected = c * 2 ** (q * (J - j0) / 2.0)
        np.testing.assert_allclose(subband(coeffs, j0, 0), expected,
                                   atol=1e-10)


def test_subband_count():
    # the gross corner and the subband views tile the array exactly once
    filt = build_filter("haar")
    for q, T, j0 in [(1, 16, 1), (2, 8, 0), (3, 4, 1), (2, 16, 2)]:
        J = int(math.log2(T))
        coeffs = dwt_qd(np.zeros((1,) + (T,) * q), filt, j0)
        views = list(subbands(coeffs, j0))
        assert len(views) == (2 ** q - 1) * (J - j0)
        for (j, _), v in views:
            assert v.shape == (1,) + (2 ** j,) * q
        subband(coeffs, j0, 0)[...] += 1.0
        for _, v in views:
            v[...] += 1.0
        assert np.all(coeffs == 1.0)


def test_zero_pyramid_inverts_to_zero():
    filt = build_filter("db4")
    coeffs = dwt_qd(np.zeros((1, 8, 8)), filt, 1)
    assert np.max(np.abs(idwt_qd(coeffs, filt, 1))) == 0.0


def test_unit_coefficient_gives_unit_energy_basis_vector():
    # a single 1 in the pyramid reconstructs to the corresponding row of the
    # inverse (= transpose) of the oracle matrix
    name, q, T, j0 = "db2", 2, 8, 1
    filt = build_filter(name)
    M = oracle_matrix(q, T, name, j0)
    coeffs = dwt_qd(np.zeros((1,) + (T,) * q), filt, j0)
    # position: gross block, flat offset 2 -> vector index 2
    gross = subband(coeffs, j0, 0)
    gross[np.unravel_index(2, gross.shape)] = 1.0
    vec = np.zeros(T ** q)
    vec[2] = 1.0
    back = idwt_qd(coeffs, filt, j0)
    np.testing.assert_allclose(back.ravel(), M.T @ vec, atol=1e-10)
    assert float(np.sum(back ** 2)) == pytest.approx(1.0, abs=1e-10)


def test_shape_and_level_errors():
    filt = build_filter("haar")
    with pytest.raises(BadShape):
        dwt_qd(np.zeros((1, 4, 8)), filt, 0)
    with pytest.raises(BadShape):
        dwt_qd(np.zeros((1, 6, 6)), filt, 0)
    with pytest.raises(BadPrimaryLevel):
        dwt_qd(np.zeros((1, 8, 8)), filt, 3)   # j0 == J
    with pytest.raises(BadPrimaryLevel):
        dwt_qd(np.zeros((1, 8, 8)), filt, -1)
    # 1-D signals go through the same checks
    with pytest.raises(BadShape):
        dwt_qd(np.zeros((1, 12)), filt, 0)
    with pytest.raises(BadPrimaryLevel):
        dwt_qd(np.zeros((1, 4)), filt, 2)   # j0 == J
    with pytest.raises(BadPrimaryLevel):
        dwt_qd(np.zeros((1, 4)), filt, 3)   # j0 > J


# every function that takes a coefficient stack, called on (stack, j0)
STAGES = {
    "dwt_qd": lambda c, j0: dwt_qd(c, build_filter("haar"), j0),
    "idwt_qd": lambda c, j0: idwt_qd(c, build_filter("haar"), j0),
    "shrink": lambda c, j0: shrink(c, j0, 64, np.ones(1), 4),
}


def test_every_stage_checks_the_stack_and_j0():
    # a non-dyadic or unstacked array is a BadShape, a j0 outside [0, J)
    # a BadPrimaryLevel, in each function alike
    for name, call in STAGES.items():
        for bad in (np.zeros((1, 8, 4)), np.zeros((1, 6, 6)), np.zeros(()),
                    np.zeros(8)):
            with pytest.raises(BadShape):
                call(bad, 1)
        for j0 in (3, -1):
            with pytest.raises(BadPrimaryLevel):
                call(np.zeros((1, 8, 8)), j0)
        call(np.zeros((1, 8, 8)), 2)                # J - 1 is valid
    _, diag = shrink(np.zeros((1, 8, 8)), 1, 64, np.ones(1), 4)
    assert list(diag.blocks_per_level) == [1, 2]


@pytest.mark.parametrize("name", ["haar", "db2", "db4"])
def test_stacked_transform_is_each_member_alone(name):
    # the trailing q axes are transformed; the leading axis stacks members
    filt = build_filter(name)
    x = np.random.default_rng(7).standard_cauchy((3, 16, 16))
    coeffs = dwt_qd(x, filt, 1)
    assert coeffs.shape == x.shape
    assert subband(coeffs, 1, 0).shape == (3, 2, 2)
    assert subband(coeffs, 2, 3).shape == (3, 4, 4)
    back = idwt_qd(coeffs, filt, 1)
    for i in range(3):
        alone = dwt_qd(x[i:i + 1], filt, 1)
        assert coeffs[i].tobytes() == alone.tobytes()
        assert back[i].tobytes() == idwt_qd(alone, filt, 1).tobytes()


def test_stacked_shape_errors():
    filt = build_filter("haar")
    with pytest.raises(BadShape):
        dwt_qd(np.zeros((3, 4, 8)), filt, 0)
    with pytest.raises(BadShape):
        dwt_qd(np.zeros(8), filt, 0)        # no axis after the stack axis
    with pytest.raises(BadPrimaryLevel):
        dwt_qd(np.zeros((5, 8)), filt, 3)
