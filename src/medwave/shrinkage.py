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
the level's starts followed by 2^j plus them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass
class ShrinkageDiagnostics:
    """What the shrinkage step did, per level and overall."""

    blocks_per_level: dict
    zeroed_per_level: dict
    factor_histogram: np.ndarray  # 10 equal bins on [0, 1]; 1.0 in the last
    factor_min: float
    factor_mean: float
    total_blocks: int


def shrink(pyramid: CoefficientPyramid, n: int, h_inv_sq: float, L: int):
    """Apply the block James-Stein rule; returns (new pyramid, diagnostics).

    ``n`` is the sample size, ``h_inv_sq`` the noise level 1/hhat^2(0) and
    ``L`` the target block size; the blocks are those of
    :func:`partition_blocks`. The gross coefficients are passed through
    bit-identically; every detail block is multiplied by its factor c_B
    (with S_B^2 = 0 forcing c_B = 0).

    Raises
    ------
    BadValue
        If n < 1, L < 1, or h_inv_sq is not positive and finite.
    """
    if L < 1:
        raise BadValue("block_cardinality must be >= 1")
    if n < 1:
        raise BadValue("n must be >= 1")
    if not (np.isfinite(h_inv_sq) and h_inv_sq > 0):
        raise BadValue("h_inv_sq must be positive and finite")
    partition = partition_blocks(pyramid, L)
    lam = solve_lambda_star()
    scale = 4.0 * n / h_inv_sq   # = 4 hhat^2(0) n
    q = pyramid.q
    out = pyramid.coeffs.copy()
    factors = {}
    for j in pyramid.levels():
        # level j's 2^q - 1 subbands and the coarse corner [:2^j]^q tile the
        # cube [:2^{j+1}]^q; the corner's tiles get factor 1
        size = 2 ** j
        starts = np.concatenate([partition[j], size + partition[j]])
        lengths = np.diff(starts, append=2 * size)
        cube = out[(slice(0, 2 * size),) * q]
        s2 = cube * cube
        card = np.ones((), dtype=np.int64)
        for ax in range(q):
            s2 = np.add.reduceat(s2, starts, axis=ax)
            card = np.multiply.outer(card, lengths)
        with np.errstate(divide="ignore"):
            c = np.where(s2 > 0.0,
                         np.maximum(0.0, 1.0 - lam * card / (scale * s2)),
                         0.0)
        corner = np.zeros(c.shape, dtype=bool)
        corner[(slice(0, partition[j].size),) * q] = True
        c[corner] = 1.0
        factors[j] = c[~corner]
        for ax in range(q):
            c = np.repeat(c, lengths, axis=ax)
        cube *= c

    every = np.concatenate(list(factors.values()))
    return CoefficientPyramid(out, pyramid.j0), ShrinkageDiagnostics(
        blocks_per_level={j: int(f.size) for j, f in factors.items()},
        zeroed_per_level={j: int(z) for j, f in factors.items()
                          if (z := np.count_nonzero(f == 0.0))},
        factor_histogram=np.bincount(
            np.minimum((every * 10).astype(int), 9), minlength=10),
        factor_min=float(every.min()),
        factor_mean=float(every.mean()),
        total_blocks=int(every.size),
    )
