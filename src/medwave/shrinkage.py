"""Block James-Stein shrinkage of detail coefficients.

:func:`shrink` takes the (B,) + (2^J,)^q coefficient array that
:func:`medwave.wavelets.dwt_qd` returns, with its primary level j0, and
shrinks every member with its own noise level. The rule depends only on
the sample size n, the noise level h_inv_sq = 1/hhat^2(0), the target
block size L and the constant lambda*. Detail subbands are tiled by
:func:`partition_blocks` into axis-aligned hypercube blocks of side
len = max(1, floor(L^{1/q})), the last tile of an axis truncated at 2^j,
so a subband with at most L coefficients forms a single block. Each block
is scaled by the nonnegative James-Stein factor

    c_B = max(0, 1 - lambda* L_B / (4 hhat^2(0) n S_B^2)),

where L_B is the actual block cardinality, S_B^2 the sum of squared
coefficients in the block and hhat^2(0) the error density at its median.
The constant lambda* (Cai 1999) is the root of

    lambda - ln(lambda) = 3,    lambda* ~ 4.50524...

Blocks with S_B^2 = 0 are zeroed outright. Gross (approximation)
coefficients pass through untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import BadValue
from .grid import _integer, integer_root
from .wavelets import _detail_levels

__all__ = ["ShrinkageDiagnostics", "solve_lambda_star",
           "default_block_cardinality", "partition_blocks", "shrink"]


def solve_lambda_star() -> float:
    """Root of lambda - ln(lambda) = 3 on (1, 10), to full precision; the
    tests re-solve it and compare."""
    return 4.505241495792882


def default_block_cardinality(n: int) -> int:
    """Default block size target L = max(1, floor(ln n))."""
    return max(1, int(math.floor(math.log(n))))


def partition_blocks(levels: range, q: int, L: int) -> dict:
    """Tile starts of the detail ``levels`` of a q-dimensional stack:
    level j -> ``arange(0, 2^j, side)``, shared by every axis and subband of
    the level."""
    side = integer_root(L, q)
    return {j: np.arange(0, 2 ** j, side) for j in levels}


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
    """What the shrinkage step did to one stack member, per level and
    overall. The record that :func:`shrink` returns for a whole stack sums
    the counts and histograms, takes the minimum and mean over all its
    factors, and holds each member's record in ``rows``."""

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


def shrink(coeffs: np.ndarray, j0: int, n: int, h_inv_sq: np.ndarray,
           L: int):
    """Apply the block James-Stein rule to the (B,) + (2^J,)^q stack
    ``coeffs`` of primary level j0; returns (shrunk copy, record summed
    over the stack).

    ``n`` is the sample size, ``h_inv_sq`` the (B,) noise levels
    1/hhat^2(0), one per member, and ``L`` the target block size. The gross
    coefficients pass through bit-identically. Each member's own record is
    in the summed record's ``rows``; only the benchmark tracer reads the
    sum (``perfbench/spans.py``).

    Raises BadShape and BadPrimaryLevel as :func:`medwave.wavelets.dwt_qd`
    does, and BadValue if n < 1, L is not an integer >= 1, ``h_inv_sq`` is
    not a (B,) array, or some h_inv_sq is not positive and finite.
    """
    out = np.array(coeffs, dtype=float)
    levels = _detail_levels(out, j0)
    if _integer("block_cardinality", L) < 1:
        raise BadValue("block_cardinality must be >= 1")
    if n < 1:
        raise BadValue("n must be >= 1")
    q = out.ndim - 1
    h_inv_sq = np.asarray(h_inv_sq, dtype=float)
    if h_inv_sq.shape != out.shape[:1]:
        raise BadValue(f"h_inv_sq of shape {h_inv_sq.shape} does not match "
                       f"the stack {out.shape[:1]}")
    if not (np.isfinite(h_inv_sq) & (h_inv_sq > 0)).all():
        raise BadValue("h_inv_sq must be positive and finite")
    partition = partition_blocks(levels, q, L)
    # = 4 hhat^2(0) n, per member
    scale = (4.0 * n / h_inv_sq).reshape(h_inv_sq.shape + (1,) * q)
    factors = {}
    for j in levels:
        size = 2 ** j
        starts, lam_card, corner, detail, expand = _level_tiles(
            size, q, tuple(partition[j].tolist()))
        cube = out[(...,) + (slice(0, 2 * size),) * q]
        s2 = cube * cube
        for ax in range(1, out.ndim):
            s2 = np.add.reduceat(s2, starts, axis=ax)
        # a tiny S_B^2 overflows the quotient to inf, and c_B to 0
        with np.errstate(divide="ignore", over="ignore"):
            c = np.where(s2 > 0.0,
                         np.maximum(0.0, 1.0 - lam_card / (scale * s2)),
                         0.0)
        c[..., corner] = 1.0
        factors[j] = c[..., detail]
        cube *= c[(...,) + expand]

    whole = _records({j: f.reshape(1, -1) for j, f in factors.items()})[0]
    whole.rows = tuple(_records(factors))
    return out, whole
