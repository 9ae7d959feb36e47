"""Periodized orthonormal wavelet transforms on dyadic tensors.

The transform is the classic pyramid filter bank with circular (periodic)
boundary handling. One analysis step maps a length-N signal to N/2
approximation and N/2 detail coefficients:

    a_out[i] = sum_k h[k] * x[(2i + k) mod N]
    d_out[i] = sum_k g[k] * x[(2i + k) mod N]

where h is the scaling (low-pass) filter and g[k] = (-1)^k h[L-1-k] its
quadrature mirror. Decimation keeps the even-indexed output phase. Because
the filters are orthonormal, the periodized step is an exact orthogonal map
at every dyadic length (folding preserves the even-lag orthogonality
relations), so Parseval and perfect reconstruction hold to round-off at any
primary level j0 >= 0.

In q dimensions each level applies the 1-D step along every axis in turn,
splitting a (2^{j+1},)^q approximation tensor into 2^q orthants. The orthant
with subband index i (1 <= i <= 2^q - 1) took the high-pass branch exactly
along the axes s whose bit is set in i (bit s of i == 1 iff numpy axis s was
high-passed); i = 0 is the approximation that recurses. Recursion stops at
level j0, leaving the "gross" tensor of shape (2^{j0},)^q.

The Besov sequence norm of a pyramid with smoothness alpha and integrability
(s, t) aggregates level energies as

    ||gross||_s + ( sum_j ( 2^{j w} ||theta_j||_s )^t )^{1/t},
    w = alpha + q (1/2 - 1/s) > 0,

with ||theta_j||_s taken over all subbands of level j together and the sum
replaced by a supremum when t = inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadExponent,
    BadPrimaryLevel,
    BadShape,
    ShapeMismatch,
    UnknownFilter,
)

__all__ = [
    "WaveletFilter",
    "CoefficientPyramid",
    "build_filter",
    "available_filters",
    "default_primary_level",
    "dwt_qd",
    "idwt_qd",
    "besov_sequence_norm",
]

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
    """Orthonormal scaling/wavelet filter pair.

    Attributes
    ----------
    name : str
        Registry name ("haar", "db2", "db4").
    taps_scaling : np.ndarray
        Low-pass filter h; sum sqrt(2), unit energy, shift-orthogonal.
    taps_wavelet : np.ndarray
        High-pass mirror g[k] = (-1)^k h[L-1-k].
    vanishing_moments : int
        Number of vanishing moments r of g: sum_k k^p g[k] = 0, p < r.
    """

    name: str
    taps_scaling: np.ndarray = field(repr=False)
    taps_wavelet: np.ndarray = field(repr=False)
    vanishing_moments: int

    @property
    def length(self) -> int:
        return self.taps_scaling.size

    def invariant_residuals(self) -> dict:
        """Numerical residuals of every defining identity."""
        h = self.taps_scaling
        g = self.taps_wavelet
        L = h.size
        out = {
            "unit_energy": abs(float(np.sum(h * h)) - 1.0),
            "sum_sqrt2": abs(float(np.sum(h)) - _SQRT2),
        }
        lag_res = 0.0
        for j in range(1, (L - 1) // 2 + 1):
            lag_res = max(lag_res, abs(float(np.sum(h[: L - 2 * j] * h[2 * j:]))))
        out["shift_orthogonality"] = lag_res
        k = np.arange(L, dtype=float)
        mom = 0.0
        for p in range(self.vanishing_moments):
            mom = max(mom, abs(float(np.sum(k ** p * g))))
        out["vanishing_moments"] = mom
        return out

    def validate(self) -> None:
        res = self.invariant_residuals()
        if (res["unit_energy"] > 1e-12 or res["sum_sqrt2"] > 1e-12
                or res["shift_orthogonality"] > 1e-12
                or res["vanishing_moments"] > 1e-10):
            raise ShapeMismatch(
                f"filter {self.name!r} violates its invariants: {res}"
            )


def available_filters() -> tuple:
    return tuple(sorted(_FILTER_TABLE))


def build_filter(name: str) -> WaveletFilter:
    """Look up a filter by name and verify its invariants numerically.

    Raises
    ------
    UnknownFilter
        For names outside the registry.
    """
    try:
        r, taps = _FILTER_TABLE[name]
    except KeyError:
        raise UnknownFilter(
            f"unknown wavelet filter {name!r}; available: {available_filters()}"
        ) from None
    h = np.array(taps, dtype=float)
    L = h.size
    g = np.array([(-1.0) ** k * h[L - 1 - k] for k in range(L)])
    filt = WaveletFilter(name=name, taps_scaling=h, taps_wavelet=g,
                         vanishing_moments=r)
    filt.validate()
    return filt


def default_primary_level(filt: WaveletFilter) -> int:
    """Smallest j0 with 2^{j0} >= tap count."""
    j0 = 0
    while 2 ** j0 < filt.length:
        j0 += 1
    return j0


@dataclass
class CoefficientPyramid:
    """Multiresolution coefficient set of a q-dimensional dyadic tensor.

    Attributes
    ----------
    q, j0, J : int
        Dimension, primary (coarsest stored) level and data level; the
        source tensor had shape (2^J,)^q.
    gross : np.ndarray
        Approximation coefficients at level j0, shape (2^{j0},)^q.
    details : dict
        (level j, subband i) -> tensor of shape (2^j,)^q for
        j0 <= j < J, 1 <= i <= 2^q - 1. Bit s of i set means numpy axis s
        took the high-pass branch at that level.
    """

    q: int
    j0: int
    J: int
    gross: np.ndarray
    details: dict

    def subband_indices(self) -> range:
        return range(1, 2 ** self.q)

    def levels(self) -> range:
        return range(self.j0, self.J)

    def total_coefficients(self) -> int:
        total = self.gross.size
        for arr in self.details.values():
            total += arr.size
        return total

    def energy(self) -> float:
        e = float(np.sum(self.gross * self.gross))
        for arr in self.details.values():
            e += float(np.sum(arr * arr))
        return e

    def to_vector(self) -> np.ndarray:
        """Canonical flattening: gross first, then levels ascending and
        subbands ascending, each tensor in C order."""
        parts = [self.gross.ravel()]
        for j in self.levels():
            for i in self.subband_indices():
                parts.append(self.details[(j, i)].ravel())
        return np.concatenate(parts)

    def validate(self) -> None:
        if self.gross.shape != (2 ** self.j0,) * self.q:
            raise ShapeMismatch("gross tensor has wrong shape")
        for j in self.levels():
            for i in self.subband_indices():
                arr = self.details.get((j, i))
                if arr is None or arr.shape != (2 ** j,) * self.q:
                    raise ShapeMismatch(f"subband ({j}, {i}) missing or misshapen")
        if self.total_coefficients() != (2 ** self.J) ** self.q:
            raise ShapeMismatch("coefficient count does not match source size")


def _analysis_step(x: np.ndarray, h: np.ndarray, g: np.ndarray, axis: int):
    """One periodized analysis step along ``axis``; returns (low, high)."""
    xm = np.moveaxis(x, axis, -1)
    N = xm.shape[-1]
    idx = (2 * np.arange(N // 2)[:, None] + np.arange(h.size)[None, :]) % N
    windows = xm[..., idx]                      # (..., N/2, L)
    lo = windows @ h
    hi = windows @ g
    return np.moveaxis(lo, -1, axis), np.moveaxis(hi, -1, axis)


def _synthesis_step(lo: np.ndarray, hi: np.ndarray, h: np.ndarray,
                    g: np.ndarray, axis: int) -> np.ndarray:
    """Adjoint of :func:`_analysis_step` (exact inverse by orthogonality)."""
    lom = np.moveaxis(lo, axis, -1)
    him = np.moveaxis(hi, axis, -1)
    half = lom.shape[-1]
    N = 2 * half
    out = np.zeros(lom.shape[:-1] + (N,), dtype=float)
    base = 2 * np.arange(half)
    for k in range(h.size):
        pos = (base + k) % N        # distinct positions: stride 2 mod even N
        out[..., pos] += h[k] * lom + g[k] * him
    return np.moveaxis(out, -1, axis)


def _level_forward(a: np.ndarray, filt: WaveletFilter) -> dict:
    """Split an approximation tensor into its 2^q orthants."""
    parts = {0: a}
    for ax in range(a.ndim):
        nxt = {}
        for bits, arr in parts.items():
            lo, hi = _analysis_step(arr, filt.taps_scaling, filt.taps_wavelet, ax)
            nxt[bits] = lo
            nxt[bits | (1 << ax)] = hi
        parts = nxt
    return parts


def _level_inverse(parts: dict, filt: WaveletFilter, q: int) -> np.ndarray:
    """Merge 2^q orthants back into the parent approximation tensor."""
    current = dict(parts)
    for ax in reversed(range(q)):
        nxt = {}
        done = set()
        for bits in current:
            low_bits = bits & ~(1 << ax)
            if low_bits in done:
                continue
            done.add(low_bits)
            lo = current[low_bits]
            hi = current[low_bits | (1 << ax)]
            nxt[low_bits] = _synthesis_step(
                lo, hi, filt.taps_scaling, filt.taps_wavelet, ax
            )
        current = nxt
    return current[0]


def _check_dyadic(shape: tuple) -> int:
    """Return J for a (2^J,)^q shape, raising BadShape otherwise."""
    if len(shape) == 0:
        raise BadShape("scalar input has no axes to transform")
    N = shape[0]
    if any(s != N for s in shape):
        raise BadShape(f"axes must have equal length, got {shape}")
    J = N.bit_length() - 1
    if N < 1 or 2 ** J != N:
        raise BadShape(f"axis length {N} is not a power of two")
    return J


def dwt_qd(tensor: np.ndarray, filt: WaveletFilter, j0: int) -> CoefficientPyramid:
    """Full q-dimensional periodized transform down to level j0.

    Raises
    ------
    BadShape
        Unless every axis has the same dyadic length 2^J.
    BadPrimaryLevel
        Unless 0 <= j0 < J.
    """
    tensor = np.asarray(tensor, dtype=float)
    J = _check_dyadic(tensor.shape)
    q = tensor.ndim
    if not 0 <= j0 < J:
        raise BadPrimaryLevel(f"need 0 <= j0 < J={J}, got j0={j0}")
    return _pyramid(tensor, filt, j0, J, q)


def _pyramid(tensor: np.ndarray, filt: WaveletFilter, j0: int, J: int,
             q: int) -> CoefficientPyramid:
    details = {}
    a = tensor
    for j in range(J - 1, j0 - 1, -1):
        parts = _level_forward(a, filt)
        for i in range(1, 2 ** q):
            details[(j, i)] = parts[i]
        a = parts[0]
    pyr = CoefficientPyramid(q=q, j0=j0, J=J, gross=a, details=details)
    pyr.validate()
    return pyr


def idwt_qd(pyramid: CoefficientPyramid, filt: WaveletFilter) -> np.ndarray:
    """Invert :func:`dwt_qd`; exact up to round-off."""
    pyramid.validate()
    a = pyramid.gross
    for j in pyramid.levels():
        parts = {0: a}
        for i in pyramid.subband_indices():
            parts[i] = pyramid.details[(j, i)]
        a = _level_inverse(parts, filt, pyramid.q)
    return a


def besov_sequence_norm(pyramid: CoefficientPyramid, alpha: float,
                        s: float, t: float) -> float:
    """Sequence-space Besov norm of the pyramid (see module docstring).

    Raises
    ------
    BadExponent
        If s < 1, t < 1, or w = alpha + q(1/2 - 1/s) <= 0.
    """
    if not (s >= 1.0 and math.isfinite(s)):
        raise BadExponent(f"s must be a finite real >= 1, got {s}")
    if not t >= 1.0:
        raise BadExponent(f"t must be >= 1 (inf allowed), got {t}")
    w = alpha + pyramid.q * (0.5 - 1.0 / s)
    if w <= 0:
        raise BadExponent(
            f"alpha + q(1/2 - 1/s) = {w} must be positive (alpha={alpha}, "
            f"q={pyramid.q}, s={s})"
        )
    gross_norm = float(np.sum(np.abs(pyramid.gross) ** s)) ** (1.0 / s)

    level_terms = []
    for j in pyramid.levels():
        e = 0.0
        for i in pyramid.subband_indices():
            e += float(np.sum(np.abs(pyramid.details[(j, i)]) ** s))
        level_terms.append(2.0 ** (j * w) * e ** (1.0 / s))
    if not level_terms:
        detail_part = 0.0
    elif math.isinf(t):
        detail_part = max(level_terms)
    else:
        detail_part = float(np.sum(np.asarray(level_terms) ** t)) ** (1.0 / t)
    return gross_norm + detail_part
