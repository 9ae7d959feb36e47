"""Block James-Stein shrinkage of detail coefficients.

Detail subbands are tiled into axis-aligned hypercube blocks of side
len = max(1, floor(L^{1/q})). The tiling of level j is one array of tile
starts, arange(0, 2^j, len), shared by every axis and every subband of the
level; the last tile of an axis is truncated at 2^j, so a subband with at
most L coefficients forms a single block. Each block is scaled by the
nonnegative James-Stein factor

    c_B = max(0, 1 - lambda* L_B / (4 hhat^2(0) n S_B^2)),

where L_B is the actual block cardinality, S_B^2 the sum of squared
coefficients in the block, n the sample size and hhat^2(0) the error density
at its median (supplied as h_inv_sq = 1/hhat^2(0)). The constant lambda* is
the root of

    lambda - ln(lambda) = 3,    lambda* ~ 4.50524...

Blocks with S_B^2 = 0 are zeroed outright. Gross (approximation)
coefficients pass through untouched. Block energies, cardinalities and
factors of a level are computed with array operations over the whole cube
[:2^{j+1}]^q of the Mallat layout, whose tile starts along every axis are
the level's starts followed by 2^j plus them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq

from .errors import BadValue, ShapeMismatch
from .wavelets import CoefficientPyramid

__all__ = [
    "ShrinkageConfig",
    "ShrinkageDiagnostics",
    "solve_lambda_star",
    "default_block_cardinality",
    "partition_blocks",
    "shrink",
]


@lru_cache(maxsize=1)
def solve_lambda_star() -> float:
    """Root of lambda - ln(lambda) = 3 on (1, 10), to full precision.

    The residual of the returned value is below 1e-12; the function is
    strictly increasing on the bracket so the root is unique.
    """
    root = float(brentq(lambda x: x - math.log(x) - 3.0, 1.0, 10.0,
                        xtol=1e-14, rtol=8.9e-16))
    if abs(root - math.log(root) - 3.0) > 1e-12:  # pragma: no cover
        raise ArithmeticError("lambda* solve failed to converge")
    return root


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


@dataclass(frozen=True)
class ShrinkageConfig:
    """Parameters of the shrinkage rule.

    ``h_inv_sq`` is 1/hhat^2(0); ``block_cardinality`` is the target L.
    """

    n: int
    h_inv_sq: float
    block_cardinality: int
    lambda_star: float = None

    def __post_init__(self):
        if self.lambda_star is None:
            object.__setattr__(self, "lambda_star", solve_lambda_star())
        if not 4.505 < self.lambda_star < 4.506:
            raise BadValue(
                f"lambda_star={self.lambda_star} outside (4.505, 4.506)"
            )
        if self.block_cardinality < 1:
            raise BadValue("block_cardinality must be >= 1")
        if self.n < 1:
            raise BadValue("n must be >= 1")
        if not (np.isfinite(self.h_inv_sq) and self.h_inv_sq > 0):
            raise BadValue("h_inv_sq must be positive and finite")


def partition_blocks(pyramid: CoefficientPyramid,
                     config: ShrinkageConfig) -> dict:
    """Tile starts of every detail level: level j -> ``arange(0, 2^j, side)``.

    The starts are shared by every axis and every subband of a level; the
    last tile of an axis is truncated at 2^j. Only the pyramid's geometry is
    consulted, never the coefficient values.
    """
    side = _block_side(config.block_cardinality, pyramid.q)
    return {j: np.arange(0, 2 ** j, side) for j in pyramid.levels()}


@dataclass
class ShrinkageDiagnostics:
    """What the shrinkage step did, per level and overall."""

    blocks_per_level: dict = field(default_factory=dict)
    zeroed_per_level: dict = field(default_factory=dict)
    factor_histogram: np.ndarray = field(
        default_factory=lambda: np.zeros(10, dtype=int)
    )  # 10 equal bins on [0, 1]; factor 1.0 counts in the last bin
    factor_min: float = 1.0
    factor_mean: float = 1.0
    total_blocks: int = 0


def shrink(pyramid: CoefficientPyramid, partition: dict,
           config: ShrinkageConfig):
    """Apply the block James-Stein rule; returns (new pyramid, diagnostics).

    The gross coefficients are passed through bit-identically; every detail
    block is multiplied by its factor c_B (with S_B^2 = 0 forcing c_B = 0).
    """
    if sorted(partition) != list(pyramid.levels()):
        raise ShapeMismatch(
            f"partition levels {sorted(partition)} do not match pyramid "
            f"levels {list(pyramid.levels())}"
        )
    lam = config.lambda_star
    scale = 4.0 * config.n / config.h_inv_sq   # = 4 hhat^2(0) n
    q = pyramid.q
    out = pyramid.coeffs.copy()
    factors = {}
    for j in pyramid.levels():
        # level j's 2^q - 1 subbands and the coarse corner [:2^j]^q tile the
        # cube [:2^{j+1}]^q; the corner's tiles get factor 1
        n = 2 ** j
        starts = np.concatenate([partition[j], n + partition[j]])
        lengths = np.diff(starts, append=2 * n)
        cube = out[(slice(0, 2 * n),) * q]
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
