"""Block James-Stein shrinkage of detail coefficients.

:func:`shrink` is the one entry point: the rule depends only on the sample
size n, the noise level h_inv_sq = 1/hhat^2(0), the target block size L and
the constant lambda*. Detail subbands are tiled by :func:`partition_blocks`
into axis-aligned hypercube blocks of side len = max(1, floor(L^{1/q})).
The tiling of level j is one array of tile starts, arange(0, 2^j, len),
shared by every axis and every subband of the level; the last tile of an
axis is truncated at 2^j, so a subband with at most L coefficients forms a
single block. Each block is scaled by the nonnegative James-Stein factor

    c_B = max(0, 1 - lambda* L_B / (4 hhat^2(0) n S_B^2)),

where L_B is the actual block cardinality, S_B^2 the sum of squared
coefficients in the block and hhat^2(0) the error density at its median.
The constant lambda* (Cai 1999) is the root of

    lambda - ln(lambda) = 3,    lambda* ~ 4.50524...

Blocks with S_B^2 = 0 are zeroed outright. Gross (approximation)
coefficients pass through untouched. Block energies, cardinalities and
factors of a level are computed with array operations over the whole cube
[:2^{j+1}]^q of the Mallat layout, whose tile starts along every axis are
the level's starts followed by 2^j plus them. What depends on the tiling
alone (those starts, lambda* L_B, the coarse corner's mask and the index
that spreads each factor over its block) is built once per level size, q
and tiling, memoized read-only; a call computes only energies and factors.

A stack of pyramids (see :class:`medwave.wavelets.CoefficientPyramid`) is
shrunk in one call, each member with its own noise level: the same
operations run on every member at once, so each member's coefficients and
record are bit-identical to those of shrinking it alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import BadValue
from .wavelets import CoefficientPyramid

__all__ = [
    "ShrinkageDiagnostics",
    "solve_lambda_star",
    "default_block_cardinality",
    "partition_blocks",
    "shrink",
]


def solve_lambda_star() -> float:
    """Root of lambda - ln(lambda) = 3 on (1, 10), to full precision.

    The literal is the root scipy's ``brentq`` finds on that bracket with
    xtol=1e-14, rtol=8.9e-16, to the bit (a Newton solve lands one ulp
    higher); its residual is below 1e-12. The tests re-solve and compare.
    """
    return 4.505241495792882


def default_block_cardinality(n: int) -> int:
    """Default block size target L = max(1, floor(ln n))."""
    return max(1, int(math.floor(math.log(n))))


def _block_side(L: int, q: int) -> int:
    """Largest integer side with side**q <= L (at least 1), exactly."""
    side = max(1, int(round(L ** (1.0 / q))))
    while side > 1 and side ** q > L:
        side -= 1
    while (side + 1) ** q <= L:
        side += 1
    return side


def partition_blocks(pyramid: CoefficientPyramid, L: int) -> dict:
    """Tile starts of every detail level: level j -> ``arange(0, 2^j, side)``.

    The starts are shared by every axis and every subband of a level; the
    last tile of an axis is truncated at 2^j. Only the pyramid's geometry is
    consulted, never the coefficient values.
    """
    side = _block_side(L, pyramid.q)
    return {j: np.arange(0, 2 ** j, side) for j in pyramid.levels()}


@lru_cache(maxsize=256)
def _level_tiles(size: int, q: int, tiles: tuple) -> tuple:
    """Read-only geometry of level j (``size`` = 2^j) tiled from ``tiles``:
    the starts of the cube [:2^{j+1}]^q along every axis, lambda* L_B, the
    masks of the coarse corner's tiles (factor 1) and of the 2^q - 1
    subbands' tiles, and the ``np.ix_`` index spreading factors on blocks.
    """
    starts = np.concatenate([tiles, size + np.asarray(tiles)])
    lengths = np.diff(starts, append=2 * size)
    card = np.ones((), dtype=np.int64)
    for _ in range(q):
        card = np.multiply.outer(card, lengths)
    corner = np.zeros(card.shape, dtype=bool)
    corner[(slice(0, len(tiles)),) * q] = True
    expand = np.ix_(*[np.repeat(np.arange(starts.size), lengths)] * q)
    arrays = (starts, solve_lambda_star() * card, corner, ~corner, *expand)
    for a in arrays:
        a.flags.writeable = False
    return arrays[:4] + (expand,)


@dataclass
class ShrinkageDiagnostics:
    """What the shrinkage step did, per level and overall.

    For a stack of pyramids the counts and the histogram are summed over
    the stack, the minimum and the mean taken over all its factors, and
    ``rows`` holds the record of each member in C order (empty for a
    single pyramid).
    """

    blocks_per_level: dict
    zeroed_per_level: dict
    factor_histogram: np.ndarray  # 10 equal bins on [0, 1]; 1.0 in the last
    factor_min: float
    factor_mean: float
    total_blocks: int
    rows: tuple = field(default=(), repr=False, compare=False)


def _records(factors: dict) -> list:
    """The record of each row of the factors, given per level as (R, k_j)
    arrays, from one pass over all R rows."""
    # C order, so that each row's mean sums as the 1-D mean does: with
    # every input of shape (R, 1), concatenate may choose F order
    every = np.ascontiguousarray(np.concatenate(list(factors.values()),
                                                axis=1))
    R, total = every.shape
    bins = np.minimum((every * 10).astype(int), 9)
    bins += 10 * np.arange(R)[:, None]
    histograms = np.bincount(bins.ravel(), minlength=10 * R).reshape(R, 10)
    zeroed = {j: np.count_nonzero(f == 0.0, axis=1).tolist()
              for j, f in factors.items()}
    return [ShrinkageDiagnostics(
        blocks_per_level={j: f.shape[1] for j, f in factors.items()},
        zeroed_per_level={j: z[r] for j, z in zeroed.items() if z[r]},
        factor_histogram=histogram,
        factor_min=low,
        factor_mean=mean,
        total_blocks=total,
    ) for r, (histogram, low, mean) in enumerate(zip(
        histograms, every.min(axis=1).tolist(),
        every.mean(axis=1).tolist()))]


def shrink(pyramid: CoefficientPyramid, n: int, h_inv_sq, L: int):
    """Apply the block James-Stein rule; returns (new pyramid, diagnostics).

    ``n`` is the sample size, ``h_inv_sq`` the noise level 1/hhat^2(0) and
    ``L`` the target block size; the blocks are those of
    :func:`partition_blocks`. The gross coefficients are passed through
    bit-identically; every detail block is multiplied by its factor c_B
    (with S_B^2 = 0 forcing c_B = 0). For a stack of pyramids,
    ``h_inv_sq`` is one level for all or an array of the stack's shape.

    Raises
    ------
    BadValue
        If n < 1, L < 1, or some h_inv_sq is not positive and finite.
    """
    if L < 1:
        raise BadValue("block_cardinality must be >= 1")
    if n < 1:
        raise BadValue("n must be >= 1")
    q = pyramid.q
    out = pyramid.coeffs.copy()
    lead = out.ndim - q
    h_inv_sq = np.asarray(h_inv_sq, dtype=float)
    if h_inv_sq.shape not in ((), out.shape[:lead]):
        raise BadValue(f"h_inv_sq of shape {h_inv_sq.shape} does not match "
                       f"the stack {out.shape[:lead]}")
    if not (np.isfinite(h_inv_sq) & (h_inv_sq > 0)).all():
        raise BadValue("h_inv_sq must be positive and finite")
    partition = partition_blocks(pyramid, L)
    # = 4 hhat^2(0) n, per member
    scale = (4.0 * n / h_inv_sq).reshape(h_inv_sq.shape + (1,) * q)
    factors = {}
    for j in pyramid.levels():
        size = 2 ** j
        starts, lam_card, corner, detail, expand = _level_tiles(
            size, q, tuple(partition[j].tolist()))
        cube = out[(...,) + (slice(0, 2 * size),) * q]
        s2 = cube * cube
        for ax in range(lead, out.ndim):
            s2 = np.add.reduceat(s2, starts, axis=ax)
        # a tiny S_B^2 overflows the quotient to inf, and c_B to 0
        with np.errstate(divide="ignore", over="ignore"):
            c = np.where(s2 > 0.0,
                         np.maximum(0.0, 1.0 - lam_card / (scale * s2)),
                         0.0)
        c[..., corner] = 1.0
        factors[j] = c[..., detail]
        cube *= c[(...,) + expand]

    shrunk = CoefficientPyramid(out, pyramid.j0, q)
    whole = _records({j: f.reshape(1, -1) for j, f in factors.items()})[0]
    if lead:
        whole.rows = tuple(_records(
            {j: f.reshape(-1, f.shape[-1]) for j, f in factors.items()}))
    return shrunk, whole
