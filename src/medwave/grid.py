"""Dyadic binning of equispaced grid designs on [0,1]^q.

The estimator assumes n = (m+1)^q observations sitting on the full product
grid {0, 1/m, ..., 1}^q. Each axis is cut into T = 2^J half-open intervals
((l-1)/T, l/T], l = 1..T, and every observation lands in exactly one of the
V = T^q product bins. The number of intervals is tied to the sample size by

    J = floor( (1/q) * log2(n^(3/4)) )

so that each bin holds kappa = floor(n/V) observations, kappa -> infinity as
n grows. No bin is empty: T^q <= n^(3/4) < n gives T < m+1.

Conventions
-----------
* A coordinate u_j = 0 is assigned to bin 1 (the half-open intervals would
  otherwise leave it homeless).
* Bin indices are 1-based per axis; tensors indexed [l1-1, ..., lq-1] are
  laid out in C order, which is exactly the lexicographic order of the
  multi-index (l1, ..., lq).
* Half-bins, which the bias estimate uses, take the first floor((m+1)/(2T))
  grid points of each axis interval, in increasing coordinate order.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace
from functools import cached_property, reduce
from typing import NoReturn, Optional

import numpy as np

from .errors import BadValue, IncompleteGrid, NonGridSampleSize, OffGridPoint

__all__ = ["GridDesign", "BinnedData", "plan_grid", "bin_observations",
           "product_grid"]

#: tolerance for deciding that a coordinate sits on the grid
GRID_TOL = 1e-9

#: rows of u checked per block, so that a block's temporaries stay in cache
_BLOCK_ROWS = 16_384


@dataclass(frozen=True)
class GridDesign:
    """Binning geometry for a sample size n = (m+1)^q in q dimensions:
    coordinates live on {0, 1/m, ..., 1}, each axis has T = 2^J intervals,
    there are V = T^q bins of kappa = floor(n / V) observations, and
    ``axis_bins[i]`` is the 1-based interval index of grid coordinate i/m.
    """

    n: int
    q: int
    m: int
    J: int
    T: int
    V: int
    kappa: int
    axis_bins: np.ndarray = field(repr=False, compare=False)

    @property
    def axis_lengths(self) -> np.ndarray:
        """Grid points in each of the T axis intervals; at most two values."""
        return np.bincount(self.axis_bins, minlength=self.T + 1)[1:]

    def tensor_shape(self) -> tuple:
        return (self.T,) * self.q

    @cached_property
    def median_selections(self) -> tuple:
        """The bin-median count classes, built on first use and kept."""
        from .medians import median_selections
        return median_selections(self)


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
    Raises BadValue if n or q is not an integer, and NonGridSampleSize if n
    is not a perfect q-th power (m+1)^q with m >= 1."""
    n, q = _integer("n", n), _integer("q", q)
    if q < 1:
        raise NonGridSampleSize(f"dimension q must be >= 1, got {q}")
    root = _integer_root(n, q)
    if root is None or root < 2:
        raise NonGridSampleSize(
            f"n={n} is not a perfect {q}-th power (m+1)^q with m >= 1"
        )
    m = root - 1
    J = _dyadic_depth(n, q)
    T = 2 ** J
    # Interval index of grid coordinate i/m: the l with (l-1)/T < i/m <= l/T,
    # computed in exact integer arithmetic; i = 0 goes to bin 1.
    i = np.arange(m + 1)
    axis_bins = np.maximum(-((-i * T) // m), 1).astype(np.int64)
    return GridDesign(n=n, q=q, m=m, J=J, T=T, V=T ** q, kappa=n // T ** q,
                      axis_bins=axis_bins)


def _integer(name: str, value) -> int:
    """``operator.index(value)``, or BadValue naming the parameter."""
    try:
        return operator.index(value)
    except TypeError:
        raise BadValue(f"{name} must be an integer, got {value!r}") from None


def product_grid(axis: np.ndarray, q: int) -> np.ndarray:
    """Every q-tuple of the 1-D ``axis`` points in lexicographic order,
    shape (len(axis)^q, q)."""
    mesh = np.meshgrid(*([axis] * q), indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=1)


@dataclass(frozen=True)
class BinnedData:
    """A stack of B response vectors in lexicographic grid order, shape
    (B,) + (m+1,)*q.

    ``y_grid[b, i1, ..., iq]`` is member b's response at (i1/m, ..., iq/m);
    it is None until :meth:`with_responses` gives responses. ``grid_code[i]``
    is the flat grid position of row i of the checked u, and ``ordered``
    says that it is range(n).
    """

    design: GridDesign
    y_grid: Optional[np.ndarray]
    grid_code: np.ndarray = field(repr=False, compare=False)
    ordered: bool = False

    @property
    def counts(self) -> np.ndarray:
        """Observations per bin, a (T,)*q tensor. Only the benchmark
        tracer reads it (``perfbench/spans.py``)."""
        lengths = self.design.axis_lengths
        return reduce(np.multiply.outer, [lengths] * self.design.q)

    def with_responses(self, y: np.ndarray) -> BinnedData:
        """Check a (B, n) stack of responses ``y``, each row in the row
        order of u, and put it in grid order. If u is ordered, ``y_grid``
        is a read-only reshape of ``y``, a view where ``y`` allows one.

        Raises IncompleteGrid if ``y`` is not a (B, n) stack, and BadValue
        naming the first response that is NaN or infinite.
        """
        d = self.design
        y = np.asarray(y, dtype=float)
        if y.ndim != 2 or y.shape[1] != d.n:
            raise responses_mismatch(d, y.shape)
        _check_finite("y", "response", y)
        shape = (len(y),) + (d.m + 1,) * d.q
        if self.ordered:
            y_grid = np.ascontiguousarray(y).reshape(shape)
            y_grid.flags.writeable = False
        else:
            y_grid = np.empty(shape)
            # one 1-D scatter per member: faster than a 2-D fancy assignment
            for member, values in zip(y_grid.reshape(y.shape), y):
                member[self.grid_code] = values
        return replace(self, y_grid=y_grid)


def responses_mismatch(design: GridDesign, shape: tuple) -> IncompleteGrid:
    """The error for responses of ``shape`` that do not fit the design."""
    return IncompleteGrid(
        f"expected {design.n} observations in {design.q} dims, "
        f"got u{(design.n, design.q)}, y{shape}")


def _check_finite(name: str, what: str, arr: np.ndarray) -> None:
    finite = np.isfinite(arr)
    if not finite.all():
        at = np.unravel_index(np.argmin(finite), arr.shape)
        raise BadValue(
            f"{what} {name}[{', '.join(map(str, at))}] = {arr[at]} is not "
            f"finite (rows count from 0); every {what} must be finite")


def bin_observations(u: np.ndarray, design: GridDesign) -> BinnedData:
    """Check the (n, q) covariate locations ``u`` of a grid sample and fix
    the grid position of each row; the result carries no responses (see
    :meth:`BinnedData.with_responses`).

    Raises, in this order of precedence: BadValue naming the first NaN or
    infinite coordinate; OffGridPoint for a coordinate that rounds to a
    grid index outside [0, m], or else naming the farthest one off a
    multiple of 1/m by more than 1e-9; IncompleteGrid naming the most
    repeated grid point (n rows miss a point only by repeating another),
    or if the shape of u does not match the design.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    n, q = u.shape
    if n != design.n or q != design.q:
        raise IncompleteGrid(
            f"expected {design.n} observations in {design.q} dims, "
            f"got u{u.shape}")
    m = design.m
    place = float(m + 1) ** np.arange(q - 1, -1, -1)
    grid_code = np.empty(n, dtype=np.int64)
    ordered, last = True, -1
    # every entry takes the operations of one whole-array pass, so no
    # decision and no code depends on the blocks
    for start in range(0, n, _BLOCK_ROWS):
        ub = u[start:start + _BLOCK_ROWS]
        w = ub * m
        near = np.rint(w)
        # range first (NaN and inf fail it); |u*m - near| <= GRID_TOL*m/2
        # implies |u - near/m| <= GRID_TOL despite rounding
        if not (near.min() >= 0 and near.max() <= m):
            _raise_u_fault(u, m)
        np.subtract(w, near, out=w)
        np.abs(w, out=w)
        if (w.max() > 0.5 * GRID_TOL * m
                and np.abs(ub - near / m).max() > GRID_TOL):
            _raise_u_fault(u, m)
        # flat C-order grid code; every partial sum is an integer below
        # n < 2^53, so the float dot is exact
        code = grid_code[start:start + _BLOCK_ROWS]
        code[...] = near @ place
        if ordered:
            ordered = bool(code[0] > last and (code[1:] > code[:-1]).all())
            last = code[-1]
    # n strictly increasing codes in range(n) are range(n); other codes
    # cover range(n) only if none repeats
    if not ordered:
        seen = np.zeros(n, dtype=bool)
        seen[grid_code] = True
        if not seen.all():
            _raise_u_fault(u, m)
    return BinnedData(design=design, y_grid=None, grid_code=grid_code,
                      ordered=ordered)


def _raise_u_fault(u: np.ndarray, m: int) -> NoReturn:
    """Raise the error of a u that failed a check, decided and worded over
    the whole array (see :func:`bin_observations`)."""
    near = np.rint(u * m)
    if not (near.min() >= 0 and near.max() <= m):
        _check_finite("u", "coordinate", u)
        bad = np.argwhere((near < 0) | (near > m))[0]
        raise OffGridPoint(f"coordinate {u[bad[0], bad[1]]} outside [0, 1]")
    err = np.abs(u - near / m)
    if err.max() > GRID_TOL:
        r, c = np.unravel_index(np.argmax(err), err.shape)
        raise OffGridPoint(
            f"coordinate {float(u[r, c])!r} is not a multiple of 1/{m} "
            f"(off by {err[r, c]:.3e})"
        )
    # every coordinate is on the grid, so n rows miss a point only by
    # repeating another
    shape = (m + 1,) * u.shape[1]
    codes = np.ravel_multi_index(tuple(near.astype(np.int64).T), shape)
    pt = np.unravel_index(int(np.argmax(np.bincount(codes))), shape)
    raise IncompleteGrid(
        f"grid point {tuple(int(p) / m for p in pt)} is duplicated")
