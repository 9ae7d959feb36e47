"""Dyadic binning of equispaced grid designs on [0,1]^q.

The estimator assumes n = (m+1)^q observations sitting on the full product
grid {0, 1/m, ..., 1}^q. Each axis is cut into T = 2^J half-open intervals
((l-1)/T, l/T], l = 1..T, and every observation lands in exactly one of the
V = T^q product bins. The number of intervals is tied to the sample size by

    J = floor( (1/q) * log2(n^(3/4)) )

so that each bin holds kappa = floor(n/V) observations, kappa -> infinity as
n grows. A nested system of "half-bins" (the lower half of every axis
interval, intersected across all q axes) supports the bias estimate: each
half-bin holds roughly nu = floor(n / (V * 2^q)) observations.

Conventions
-----------
* A coordinate u_j = 0 is assigned to bin 1 (the half-open intervals would
  otherwise leave it homeless).
* Bin indices are 1-based per axis; tensors indexed [l1-1, ..., lq-1] are
  laid out in C order, which is exactly the lexicographic order of the
  multi-index (l1, ..., lq).
* Half-bins take the first floor((m+1)/(2T)) grid points of each axis
  interval, counted in increasing coordinate order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadValue,
    DegenerateBinning,
    IncompleteGrid,
    NonGridSampleSize,
    OffGridPoint,
)

__all__ = ["GridDesign", "BinnedData", "plan_grid", "bin_observations"]

#: tolerance for deciding that a coordinate sits on the grid
GRID_TOL = 1e-9


@dataclass(frozen=True)
class GridDesign:
    """Binning geometry for a sample size n = (m+1)^q.

    Attributes
    ----------
    n, q : int
        Sample size and dimension.
    m : int
        Grid resolution; coordinates live on {0, 1/m, ..., 1}.
    J : int
        Dyadic depth; T = 2^J intervals per axis.
    T, V : int
        Intervals per axis and total bins V = T^q.
    kappa : int
        floor(n / V), observations per bin.
    nu : int
        floor(n / (V * 2^q)), observations per half-bin.
    axis_bins : np.ndarray
        axis_bins[i] is the 1-based interval index of grid coordinate i/m.
    axis_half : np.ndarray
        axis_half[i] is True when i/m belongs to the lower half of its
        interval (first floor((m+1)/(2T)) points).
    """

    n: int
    q: int
    m: int
    J: int
    T: int
    V: int
    kappa: int
    nu: int
    axis_bins: np.ndarray = field(repr=False, compare=False)
    axis_half: np.ndarray = field(repr=False, compare=False)

    @property
    def points_per_axis(self) -> int:
        return self.m + 1

    def tensor_shape(self) -> tuple:
        return (self.T,) * self.q


def _integer_root(n: int, q: int):
    """Return r with r**q == n, or None. Exact integer arithmetic."""
    if n < 1:
        return None
    r = round(n ** (1.0 / q))
    for cand in (r - 1, r, r + 1):
        if cand >= 1 and cand ** q == n:
            return cand
    return None


def _dyadic_depth(n: int, q: int) -> int:
    """Largest J with 2^(4*q*J) <= n^3, i.e. floor(log2(n^(3/4)) / q)."""
    target = n ** 3
    J = 0
    while 2 ** (4 * q * (J + 1)) <= target:
        J += 1
    return J


def plan_grid(n: int, q: int) -> GridDesign:
    """Derive the binning geometry for a sample of n points in q dimensions.

    Raises
    ------
    NonGridSampleSize
        If n is not a perfect q-th power (m+1)^q with m >= 1.
    DegenerateBinning
        If the planned T exceeds the points per axis (cannot happen for
        valid inputs; kept as a defensive guard).
    """
    if q < 1:
        raise NonGridSampleSize(f"dimension q must be >= 1, got {q}")
    root = _integer_root(int(n), int(q))
    if root is None or root < 2:
        raise NonGridSampleSize(
            f"n={n} is not a perfect {q}-th power (m+1)^q with m >= 1"
        )
    m = root - 1
    J = _dyadic_depth(int(n), int(q))
    T = 2 ** J
    V = T ** q
    if T > m + 1:
        raise DegenerateBinning(f"T={T} exceeds grid points per axis {m + 1}")
    kappa = n // V
    nu = n // (V * 2 ** q)

    # Interval index of grid coordinate i/m: the l with (l-1)/T < i/m <= l/T,
    # computed in exact integer arithmetic; i = 0 goes to bin 1.
    i = np.arange(m + 1)
    axis_bins = np.maximum(-((-i * T) // m), 1).astype(np.int64)

    # Lower-half membership: first floor((m+1)/(2T)) points of each interval,
    # by rank inside the interval in increasing coordinate order.
    half_len = (m + 1) // (2 * T)
    start = np.searchsorted(axis_bins, np.arange(1, T + 1), side="left")
    rank = i - start[axis_bins - 1]
    axis_half = rank < half_len

    return GridDesign(
        n=int(n), q=int(q), m=int(m), J=int(J), T=int(T), V=int(V),
        kappa=int(kappa), nu=int(nu),
        axis_bins=axis_bins, axis_half=axis_half,
    )


@dataclass
class BinnedData:
    """Observations grouped by bin.

    The heavy lifting downstream (medians per bin) wants flat arrays, so the
    storage is ``order`` (a permutation sorting observations by
    lexicographic bin code) plus per-bin counts.
    """

    design: GridDesign
    y: np.ndarray            # responses, original order
    bin_codes: np.ndarray    # flat 0-based lexicographic bin code per obs
    half_mask: np.ndarray    # True when the observation lies in a half-bin
    order: np.ndarray        # argsort of bin_codes (stable)
    counts: np.ndarray       # observations per bin, length V
    half_counts: np.ndarray  # half-bin observations per bin, length V


def bin_observations(u: np.ndarray, y: np.ndarray, design: GridDesign) -> BinnedData:
    """Assign grid observations to bins and half-bins.

    Parameters
    ----------
    u : array (n, q)
        Covariate locations; every row must lie on the design grid.
    y : array (n,)
        Responses.

    Raises
    ------
    BadValue
        If some response is NaN or infinite; names the first such row.
    OffGridPoint
        If some coordinate is farther than 1e-9 from a multiple of 1/m.
    IncompleteGrid
        If any grid point is missing or appears more than once.
    """
    u = np.asarray(u, dtype=float)
    y = np.asarray(y, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    n, q = u.shape
    if n != design.n or q != design.q or y.shape != (n,):
        raise IncompleteGrid(
            f"expected {design.n} observations in {design.q} dims, "
            f"got u{u.shape}, y{y.shape}"
        )
    finite = np.isfinite(y)
    if not finite.all():
        row = int(np.argmin(finite))
        raise BadValue(f"response y[{row}] = {y[row]} is not finite (rows "
                       f"count from 0); every response must be finite")
    m = design.m

    scaled = u * m
    idx = np.rint(scaled).astype(np.int64)
    if idx.min() < 0 or idx.max() > m:
        bad = np.argwhere((idx < 0) | (idx > m))[0]
        raise OffGridPoint(f"coordinate {u[bad[0], bad[1]]} outside [0, 1]")
    err = np.abs(u - idx / m)
    if err.max() > GRID_TOL:
        r, c = np.unravel_index(np.argmax(err), err.shape)
        raise OffGridPoint(
            f"coordinate {u[r, c]!r} is not a multiple of 1/{m} "
            f"(off by {err[r, c]:.3e})"
        )

    # completeness: every grid point exactly once
    grid_code = idx[:, 0].copy()
    for s in range(1, q):
        grid_code = grid_code * (m + 1) + idx[:, s]
    occur = np.bincount(grid_code, minlength=(m + 1) ** q)
    if occur.max() > 1 or occur.min() < 1:
        if occur.max() > 1:
            code = int(np.argmax(occur))
            what = "duplicated"
        else:
            code = int(np.argmin(occur))
            what = "missing"
        pt = np.unravel_index(code, (m + 1,) * q)
        raise IncompleteGrid(
            f"grid point {tuple(p / m for p in pt)} is {what}"
        )

    axis_bin = design.axis_bins[idx]          # (n, q), 1-based
    bin_codes = (axis_bin[:, 0] - 1).astype(np.int64)
    for s in range(1, q):
        bin_codes = bin_codes * design.T + (axis_bin[:, s] - 1)
    half_mask = design.axis_half[idx].all(axis=1)

    order = np.argsort(bin_codes, kind="stable")
    counts = np.bincount(bin_codes, minlength=design.V)
    half_counts = np.bincount(bin_codes[half_mask], minlength=design.V)

    return BinnedData(
        design=design, y=y, bin_codes=bin_codes, half_mask=half_mask,
        order=order, counts=counts, half_counts=half_counts,
    )
