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
* Grid order is the C order of the grid points. u's leading rows in grid
  order are checked against the points their positions imply; a u whose
  rows are all in grid order gets no grid code (``grid_code`` None).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from functools import cached_property, reduce
from numbers import Real
from typing import NoReturn, Optional

import numpy as np

from .errors import BadValue, IncompleteGrid, NonGridSampleSize, OffGridPoint

__all__ = ["GridDesign", "BinnedData", "plan_grid", "bin_observations",
           "product_grid", "integer_root"]

#: tolerance for deciding that a coordinate sits on the grid
GRID_TOL = 1e-9

#: the most floats one numpy array holds (its bytes must fit in an intp);
#: a design's u is n x q of them
_MAX_FLOATS = np.iinfo(np.intp).max // np.dtype(float).itemsize

#: a sample size of more bits is named by its digit count, as Python refuses
#: to print an integer of more than 4,300 digits
_NAMED_BITS = 4096

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


def integer_root(n: int, q: int) -> int:
    """The largest r with r**q <= n, for integers n >= 1 and q >= 1: integer
    Newton steps down from 2^ceil(bits/q), with no float anywhere."""
    n = operator.index(n)
    bits = n.bit_length()
    if bits <= q:                   # n < 2^q
        return 1
    r = 1 << -(-bits // q)
    while True:
        s = ((q - 1) * r + n // r ** (q - 1)) // q
        if s >= r:
            return r
        r = s


def plan_grid(n: int, q: int) -> GridDesign:
    """Derive the binning geometry for a sample of n points in q dimensions.
    Raises BadValue if n or q is not an integer, and NonGridSampleSize if n
    is not a perfect q-th power (m+1)^q with m >= 1 or its points do not
    fit in a numpy array, before any array is built."""
    n, q = _integer("n", n), _integer("q", q)
    if q < 1:
        raise NonGridSampleSize(f"dimension q must be >= 1, got {q}")
    root = integer_root(n, q) if n >= 1 else 0
    if root < 2 or root ** q != n:
        raise NonGridSampleSize(
            f"{_named(n)} is not a perfect {q}-th power (m+1)^q with m >= 1"
        )
    if n * q > _MAX_FLOATS:
        raise NonGridSampleSize(
            f"{_named(n)} is (m+1)^{q}, but its n x {q} points are more "
            f"floats than one numpy array holds ({_MAX_FLOATS})"
        )
    m = root - 1
    # the largest J with 2^(4qJ) <= n^3, i.e. floor(log2(n^(3/4)) / q)
    J = ((n ** 3).bit_length() - 1) // (4 * q)
    T = 2 ** J
    # Interval index of grid coordinate i/m: the l with (l-1)/T < i/m <= l/T,
    # computed in exact integer arithmetic; i = 0 goes to bin 1.
    i = np.arange(m + 1)
    axis_bins = np.maximum(-((-i * T) // m), 1).astype(np.int64)
    return GridDesign(n=n, q=q, m=m, J=J, T=T, V=T ** q, kappa=n // T ** q,
                      axis_bins=axis_bins)


def _named(n: int) -> str:
    """``n=<n>``, or n's digit count when n is too long to print."""
    if n.bit_length() <= _NAMED_BITS:
        return f"n={n}"
    # the d with 10^(d-1) <= n < 10^d, counted up from a float estimate
    # that is never above it
    digits = int((n.bit_length() - 1) * math.log10(2))
    while n >= 10 ** digits:
        digits += 1
    return f"n of {digits} digits"


def _integer(name: str, value, low: Optional[int] = None) -> int:
    """``operator.index(value)``, or BadValue naming the parameter if that
    fails or gives an integer below ``low``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise BadValue(f"{name} must be an integer, got {value!r}") from None
    if low is not None and value < low:
        raise BadValue(f"{name} must be >= {low}, got {value}")
    return value


def _real(name: str, value):
    """``value`` as a float (a float array for an array), or BadValue naming
    the parameter if it holds anything but real numbers."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "biuf" and not isinstance(value, Real):
        raise BadValue(f"{name} must be real, got {value!r}")
    return float(arr) if arr.ndim == 0 else arr.astype(float, copy=False)


def product_grid(axis: np.ndarray, q: int) -> np.ndarray:
    """Every q-tuple of the 1-D ``axis`` points in lexicographic order,
    shape (len(axis)^q, q)."""
    mesh = np.meshgrid(*([axis] * q), indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=1)


def _bin_points(design: GridDesign) -> np.ndarray:
    """Where each of the V bins lives: (l1/T, ..., lq/T), the right end of
    its interval on every axis, in lexicographic order, shape (V, q)."""
    return product_grid(np.arange(1, design.T + 1) / design.T, design.q)


@dataclass(frozen=True)
class BinnedData:
    """A stack of B response vectors in lexicographic grid order, shape
    (B,) + (m+1,)*q.

    ``y_grid[b, i1, ..., iq]`` is member b's response at (i1/m, ..., iq/m);
    it is None until :meth:`with_responses` gives responses. ``grid_code[i]``
    is the flat grid position of row i of the checked u; it is None when
    u's rows are in grid order, so that row i is grid point i.
    """

    design: GridDesign
    y_grid: Optional[np.ndarray]
    grid_code: Optional[np.ndarray] = field(default=None, repr=False,
                                            compare=False)

    @property
    def ordered(self) -> bool:
        """Whether u's rows are in grid order."""
        return self.grid_code is None

    @property
    def counts(self) -> np.ndarray:
        """Observations per bin, a (T,)*q tensor. Only the benchmark
        tracer reads it (``perfbench/spans.py``)."""
        lengths = self.design.axis_lengths
        return reduce(np.multiply.outer, [lengths] * self.design.q)

    def with_responses(self, y: np.ndarray) -> BinnedData:
        """Put a (B, n) stack of responses ``y``, each row in the row order
        of u, in grid order. If u is ordered, ``y_grid`` is a read-only
        reshape of ``y``, a view where ``y`` allows one.

        Raises IncompleteGrid if ``y`` is not a (B, n) stack. Whether every
        response is finite is read off the sorted bins by
        :func:`~medwave.medians.bin_medians`, not here.
        """
        d = self.design
        y = np.asarray(y, dtype=float)
        if y.ndim != 2 or y.shape[1] != d.n:
            raise responses_mismatch(d, y.shape)
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

    def check_responses(self) -> None:
        """Raise BadValue naming the first response y[b, i] of the stack,
        in the row order of u, that is NaN or infinite."""
        y = self.y_grid.reshape(len(self.y_grid), -1)
        _check_finite("y", "response", y if self.ordered
                      else y[:, self.grid_code])


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

    Leading rows in grid order (row i within 1e-9 of grid point i) pass
    by that one test; only the rest are rounded, tested and coded.

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
    start = _grid_order_prefix(u, m)
    if start == n:
        return BinnedData(design=design, y_grid=None)
    place = float(m + 1) ** np.arange(q - 1, -1, -1)
    grid_code = np.empty(n, dtype=np.int64)
    grid_code[:start] = np.arange(start)
    # every entry takes the operations of one whole-array pass, so no
    # decision and no code depends on the blocks
    for lo in range(start, n, _BLOCK_ROWS):
        ub = u[lo:lo + _BLOCK_ROWS]
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
        grid_code[lo:lo + _BLOCK_ROWS] = near @ place
    # n codes cover range(n) only if none repeats
    seen = np.zeros(n, dtype=bool)
    seen[:start] = True
    seen[grid_code[start:]] = True
    if not seen.all():
        _raise_u_fault(u, m)
    return BinnedData(design=design, y_grid=None, grid_code=grid_code)


def _grid_order_prefix(u: np.ndarray, m: int) -> int:
    """How many leading rows of u lie within GRID_TOL of the grid point
    their position implies in C order, by the general check's own test;
    such a row rounds to that point too (GRID_TOL * m < 1/2 for n < 5e8)."""
    n, q = u.shape
    # rows in another order seldom start at the origin: stop before allocating
    if not (np.abs(u[0]) <= GRID_TOL).all():
        return 0
    axis = np.arange(m + 1) / m
    inner = n // (m + 1)                        # rows per leading index
    lead = min(max(1, _BLOCK_ROWS // inner), m + 1)
    point = np.empty((lead,) + (m + 1,) * (q - 1) + (q,))
    for j in range(1, q):   # trailing coordinates: the same in every slab
        point[..., j] = axis.reshape((-1,) + (1,) * (q - 1 - j))
    equal = np.empty(point.shape, dtype=bool)
    slabs = u.reshape((m + 1,) * q + (q,))
    for a in range(0, m + 1, lead):
        pt = point[:m + 1 - a]
        pt[..., 0] = axis[a:a + lead].reshape((-1,) + (1,) * (q - 1))
        slab = slabs[a:a + lead]
        # equal implies |d| = 0: only a slab with an unequal entry takes d
        if np.equal(slab, pt, out=equal[:len(pt)]).all():
            continue
        d = slab - pt
        if not (d.max() <= GRID_TOL and d.min() >= -GRID_TOL):  # NaN fails
            fails = ~(np.abs(d.ravel()) <= GRID_TOL)
            return a * inner + int(np.argmax(fails)) // q
    return n


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
