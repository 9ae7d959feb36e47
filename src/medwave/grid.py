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

The checks of u run over blocks of rows, so that a block's temporaries
stay in cache and no whole-array temporary is made. In a block, a
coordinate's grid index is rint(u*m), range-checked first, which NaN and
+-inf fail. The on-grid test |u - index/m| <= GRID_TOL is screened by
|u*m - index| <= GRID_TOL*m/2, which implies it despite rounding; only
when the screen fails does the exact form run. The flat grid code is one
float dot with the place values (m+1)^k, exact as n < 2^53, written into
one preallocated array. While every code so far exceeds the one before,
u is in grid order: n strictly increasing codes in range(n) are range(n).
Otherwise, after the last block, one boolean ``seen`` pass checks that
the codes cover range(n). Every entry takes the same operations as in one
whole-array pass, so no decision and no code depends on the blocks. A u
that fails any check goes whole to one fault path, which decides and
words the error over the full array.

Binning needs no sort. Once the checks have passed, the flat grid code of
the rows is a permutation of range(n), so one scatter puts the responses in
lexicographic grid order, an (m+1,)*q array; for u in grid order (as
:func:`product_grid`, ``simulate`` and the CSVs medwave writes make it)
that order is the responses' own, and they are only reshaped. Every axis
interval is a run of consecutive grid points, so a bin is a product of
such runs and its members follow from the interval starts and lengths
alone. No bin is empty: T^q <= n^(3/4) < n gives T < m+1, and every axis
interval holds at least one grid point. The checks and the grid code
depend on u alone, so u is binned once, without responses, and
:meth:`BinnedData.with_responses` puts a (B, n) stack of response vectors
in grid order, one 1-D scatter per member where u is not ordered.
"""

from __future__ import annotations

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

    Raises
    ------
    NonGridSampleSize
        If n is not a perfect q-th power (m+1)^q with m >= 1.
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
    kappa = n // V
    nu = n // (V * 2 ** q)

    # Interval index of grid coordinate i/m: the l with (l-1)/T < i/m <= l/T,
    # computed in exact integer arithmetic; i = 0 goes to bin 1.
    i = np.arange(m + 1)
    axis_bins = np.maximum(-((-i * T) // m), 1).astype(np.int64)

    return GridDesign(
        n=int(n), q=int(q), m=int(m), J=int(J), T=int(T), V=int(V),
        kappa=int(kappa), nu=int(nu), axis_bins=axis_bins,
    )


def product_grid(axis: np.ndarray, q: int) -> np.ndarray:
    """Every q-tuple of the 1-D ``axis`` points in lexicographic order,
    shape (len(axis)^q, q)."""
    mesh = np.meshgrid(*([axis] * q), indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=1)


@dataclass(frozen=True)
class BinnedData:
    """A stack of B response vectors in lexicographic grid order, shape
    (B,) + (m+1,)*q.

    ``y_grid[b, i1, ..., iq]`` is member b's response at
    (i1/m, ..., iq/m); the bins are products of the design's axis
    intervals. ``grid_code[i]`` is the flat grid position of row i of the
    checked u, so the same u bins any number of stacks through
    :meth:`with_responses`. ``y_grid`` is None until then. ``ordered``
    says that u's rows are already in grid order (``grid_code`` is
    range(n)); then ``y_grid`` may be a read-only view of the caller's
    responses.
    """

    design: GridDesign
    y_grid: Optional[np.ndarray]
    grid_code: np.ndarray = field(repr=False, compare=False)
    ordered: bool = False

    @property
    def counts(self) -> np.ndarray:
        """Observations per bin, a (T,)*q tensor: the outer product of the
        axis interval lengths. Only the benchmark tracer reads it, for its
        ``medians.count_classes`` counter (``perfbench/spans.py``)."""
        lengths = self.design.axis_lengths
        return reduce(np.multiply.outer, [lengths] * self.design.q)

    def with_responses(self, y: np.ndarray) -> BinnedData:
        """Check a (B, n) stack of responses ``y``, each row in the row
        order of u, and put it in grid order. If u is ordered, ``y_grid``
        is a read-only reshape of ``y``: a view of a C-contiguous float
        ``y``, else a contiguous copy.

        Raises
        ------
        IncompleteGrid
            If ``y`` is not a (B, n) stack.
        BadValue
            If some response is NaN or infinite; names the first one.
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

    u is checked in blocks of ``_BLOCK_ROWS`` rows: each coordinate is
    screened on u*m at half the tolerance, and the exact off-grid test runs
    only where the screen fails (see the module notes). A u that fails a
    block, or whose codes miss a grid point, is checked again whole, and
    that pass decides and words every error below.

    Raises
    ------
    BadValue
        If some coordinate is NaN or infinite; names the first one, before
        any other fault of u.
    OffGridPoint
        If some coordinate is farther than 1e-9 from a multiple of 1/m
        (names the farthest), or rounds to a grid index outside [0, m].
    IncompleteGrid
        If any grid point appears more than once (names the most repeated
        one; as u has n rows, a missing point always comes with a repeated
        one), or the shape of u does not match the design.
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
    for start in range(0, n, _BLOCK_ROWS):
        ub = u[start:start + _BLOCK_ROWS]
        w = ub * m
        near = np.rint(w)
        # range first (NaN and inf fail it); then the screen, which implies
        # the exact test, and near the tolerance the exact test itself
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

    # grid_code is now a permutation of range(n), the identity if ordered
    return BinnedData(design=design, y_grid=None, grid_code=grid_code,
                      ordered=ordered)


def _raise_u_fault(u: np.ndarray, m: int) -> NoReturn:
    """Raise the error of a u that failed the blocked check, decided and
    worded over the whole array: the first non-finite entry, else the first
    coordinate out of range, else the farthest off the grid, else the most
    repeated grid point."""
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
