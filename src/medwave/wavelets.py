"""Periodized orthonormal wavelet transforms on dyadic tensors.

The transform is the classic pyramid filter bank with circular (periodic)
boundary handling. One analysis step maps a length-N signal to N/2
approximation and N/2 detail coefficients:

    a_out[i] = sum_k h[k] * x[(2i + k) mod N]
    d_out[i] = sum_k g[k] * x[(2i + k) mod N]

where h is the scaling (low-pass) filter and g[k] = (-1)^k h[L-1-k] its
quadrature mirror. The periodized step is an exact orthogonal map at every
dyadic length, so Parseval and perfect reconstruction hold to round-off at
any primary level j0 >= 0.

A stack of B q-dimensional tensors is a (B,) + (2^J,)^q array, every member
in the standard Mallat layout. Level j (from J-1 down to j0) works on the
cube [:2^{j+1}]^q and applies the 1-D step along each of its q axes,
writing the low half of each axis to [0, 2^j) and the high half to
[2^j, 2^{j+1}). Detail subband i (1 <= i <= 2^q - 1) of level j is the
orthant that takes [2^j, 2^{j+1}) on the axes s whose bit is set in i and
[0, 2^j) on the others; the low orthant recurses, and the gross
coefficients are the corner [:2^{j0}]^q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadPrimaryLevel, BadShape, UnknownFilter

__all__ = ["WaveletFilter", "build_filter", "available_filters",
           "default_primary_level", "dwt_qd", "idwt_qd"]

_SQRT2 = math.sqrt(2.0)

# Orthonormal Daubechies scaling filters. Names follow the vanishing-moment
# count: dbN has N vanishing moments and 2N taps. The db2 taps are analytic;
# the db4 taps were refined in double precision against the defining
# identities (orthonormality, sum = sqrt(2), 4 vanishing moments), all
# residuals <= 2e-14.
_D2 = math.sqrt(3.0)
_FILTER_TABLE = {
    "haar": (1, [1.0 / _SQRT2, 1.0 / _SQRT2]),
    "db2": (2, [(1 + _D2) / (4 * _SQRT2), (3 + _D2) / (4 * _SQRT2),
                (3 - _D2) / (4 * _SQRT2), (1 - _D2) / (4 * _SQRT2)]),
    "db4": (4, [0.23037781330894366, 0.7148465705529852,
                0.6308807679297805, -0.027983769416972615,
                -0.1870348117190221, 0.03084138183561606,
                0.03288301166681044, -0.010597401785046055]),
}


@dataclass(frozen=True)
class WaveletFilter:
    """Orthonormal scaling/wavelet filter pair: the low-pass taps h (sum
    sqrt(2), unit energy, shift-orthogonal), the high-pass mirror
    g[k] = (-1)^k h[L-1-k], and the number r of vanishing moments of g
    (sum_k k^p g[k] = 0 for p < r)."""

    name: str
    taps_scaling: np.ndarray = field(repr=False)
    taps_wavelet: np.ndarray = field(repr=False)
    vanishing_moments: int

    @property
    def length(self) -> int:
        return self.taps_scaling.size


def available_filters() -> tuple:
    return tuple(sorted(_FILTER_TABLE))


def build_filter(name: str) -> WaveletFilter:
    """Look up a filter by name; UnknownFilter for names outside the
    registry."""
    try:
        r, taps = _FILTER_TABLE[name]
    except KeyError:
        raise UnknownFilter(
            f"unknown wavelet filter {name!r}; available: {available_filters()}"
        ) from None
    h = np.array(taps, dtype=float)
    L = h.size
    g = np.array([(-1.0) ** k * h[L - 1 - k] for k in range(L)])
    return WaveletFilter(name=name, taps_scaling=h, taps_wavelet=g,
                         vanishing_moments=r)


def default_primary_level(filt: WaveletFilter) -> int:
    """Smallest j0 with 2^{j0} >= tap count."""
    return (filt.length - 1).bit_length()


def _detail_levels(coeffs: np.ndarray, j0: int) -> range:
    """The detail levels range(j0, J) of ``coeffs``; BadShape unless it is
    a (B,) + (2^J,)^q stack with q >= 1, BadPrimaryLevel unless 0 <= j0 < J.
    """
    shape = coeffs.shape
    if len(shape) < 2:
        raise BadShape(f"need a (B,) + (2^J,)^q stack, got shape {shape}")
    N = shape[1]
    if any(s != N for s in shape[1:]):
        raise BadShape(f"axes must have equal length, got {shape[1:]}")
    J = N.bit_length() - 1
    if N < 1 or 2 ** J != N:
        raise BadShape(f"axis length {N} is not a power of two")
    if not 0 <= j0 < J:
        raise BadPrimaryLevel(f"need 0 <= j0 < J={J}, got j0={j0}")
    return range(j0, J)


def _along(axis: int, index) -> tuple:
    """Index that applies ``index`` to ``axis`` and keeps earlier axes."""
    return (slice(None),) * axis + (index,)


def _analysis_step(x: np.ndarray, h: np.ndarray, g: np.ndarray, axis: int):
    """One periodized analysis step along ``axis``; returns (low, high)."""
    N = x.shape[axis]
    base = 2 * np.arange(N // 2)
    shape = x.shape[:axis] + (N // 2,) + x.shape[axis + 1:]
    lo, hi = np.zeros(shape), np.zeros(shape)
    for k in range(h.size):
        xk = x.take((base + k) % N, axis=axis)
        lo += h[k] * xk
        hi += g[k] * xk
    return lo, hi


def _synthesis_step(lo: np.ndarray, hi: np.ndarray, h: np.ndarray,
                    g: np.ndarray, axis: int) -> np.ndarray:
    """Adjoint of :func:`_analysis_step` (exact inverse by orthogonality):
    tap k adds at 2i + k mod N = 2 ((i + k//2) mod N/2) + k mod 2."""
    half = lo.shape[axis]
    out = np.zeros(lo.shape[:axis] + (2 * half,) + lo.shape[axis + 1:])
    lead = (slice(None),) * axis
    for k in range(h.size):
        at, shift = k % 2, (k // 2) % half
        term = h[k] * lo + g[k] * hi
        out[lead + (slice(at + 2 * shift, None, 2),)] += term[
            lead + (slice(0, half - shift),)]
        if shift:
            out[lead + (slice(at, 2 * shift, 2),)] += term[
                lead + (slice(half - shift, None),)]
    return out


def dwt_qd(tensor: np.ndarray, filt: WaveletFilter, j0: int) -> np.ndarray:
    """Full periodized transform down to level j0 of every member of the
    (B,) + (2^J,)^q stack ``tensor``; returns the coefficients in an array
    of the same shape. Raises BadShape unless ``tensor`` is such a stack
    with q >= 1, and BadPrimaryLevel unless 0 <= j0 < J."""
    out = np.array(tensor, dtype=float)
    h, g = filt.taps_scaling, filt.taps_wavelet
    for j in reversed(_detail_levels(out, j0)):
        n = 2 ** j
        cube = out[(...,) + (slice(0, 2 * n),) * (out.ndim - 1)]
        for ax in range(1, cube.ndim):
            lo, hi = _analysis_step(cube, h, g, ax)
            cube[_along(ax, slice(0, n))] = lo
            cube[_along(ax, slice(n, 2 * n))] = hi
    return out


def idwt_qd(coeffs: np.ndarray, filt: WaveletFilter, j0: int) -> np.ndarray:
    """Invert :func:`dwt_qd` of primary level j0 into a new array; exact up
    to round-off. Raises as :func:`dwt_qd` does."""
    out = np.array(coeffs, dtype=float)
    h, g = filt.taps_scaling, filt.taps_wavelet
    for j in _detail_levels(out, j0):
        n = 2 ** j
        cube = out[(...,) + (slice(0, 2 * n),) * (out.ndim - 1)]
        for ax in reversed(range(1, cube.ndim)):
            cube[...] = _synthesis_step(cube[_along(ax, slice(0, n))],
                                        cube[_along(ax, slice(n, 2 * n))],
                                        h, g, ax)
    return out
