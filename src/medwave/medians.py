"""Per-bin sample medians and the two statistics derived from them.

Given the binned responses, three quantities feed the estimation pipeline:

* ``Q`` — the tensor of per-bin medians (the robust surrogate for local
  level of the regression function),
* ``b_hat`` — a single global bias estimate, the average over all bins of
  (half-bin median - bin median). The half-bin holds fewer observations, so
  its median carries a larger finite-sample bias; the difference estimates
  the bias of the full-bin median when the error density is asymmetric.
* ``h_inv_sq`` — an estimate of 1/h^2(0), where h is the error density of
  the response noise at its median, from squared differences of medians in
  neighbouring bins:

      h_inv_sq = (2 kappa / floor(V/2)) * sum_k (Q_(2k-1) - Q_(2k))^2

  with bins ordered lexicographically and paired consecutively. Where f is
  flat across each pair its expectation is 4 kappa Var(median of kappa
  draws), which reaches
  h^{-2}(0) only as kappa -> infinity (the variance of a bin median is
  1/(4 kappa h^2(0)) asymptotically). At kappa = 16 the exact value is
  7.9% below h^{-2}(0) for Gaussian errors and 17.7% above it for Cauchy
  errors. The per-coefficient noise scale is then
  sigma = sqrt(h_inv_sq) / (2 sqrt(n)).

Medians use the usual midpoint convention for even counts (mean of the two
middle order statistics).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateNoise, EmptyBin
from .grid import BinnedData, GridDesign

__all__ = [
    "MedianSummary",
    "NoiseEstimate",
    "sample_median",
    "bin_medians",
    "bias_correction",
    "estimate_noise_level",
    "known_noise_level",
    "NOISE_FLOOR",
]

#: clamp floor for the noise-level estimate (all medians identical)
NOISE_FLOOR = 1e-12


@dataclass(frozen=True)
class MedianSummary:
    """Medians of every bin and half-bin, as (T,)*q tensors in C order.

    ``q_half`` is None when the half-bins are empty: only the bias
    correction reads it, and it raises then.
    """

    design: GridDesign
    q_full: np.ndarray
    q_half: Optional[np.ndarray]

    def __post_init__(self):
        shape = self.design.tensor_shape()
        half_shape = shape if self.q_half is None else self.q_half.shape
        if self.q_full.shape != shape or half_shape != shape:
            raise EmptyBin(
                f"median tensors must have shape {shape}, got "
                f"{self.q_full.shape} / {half_shape}"
            )


@dataclass(frozen=True)
class NoiseEstimate:
    """Noise level 1/h^2(0) and the implied per-coefficient scale sigma.

    ``degenerate`` is True when the raw estimate fell below the clamp floor
    (all medians identical); the estimate is then the floor itself and
    callers may escalate via the CLI --strict flag.
    """

    h_inv_sq: float
    sigma: float
    degenerate: bool = False
    source: str = "estimate"


def sample_median(values) -> float:
    """Median with midpoint convention for even counts.

    Raises
    ------
    EmptyBin
        On an empty input.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise EmptyBin("median of empty set")
    return float(np.median(values))


def _grouped_medians(sorted_values: np.ndarray, counts: np.ndarray,
                     shape: tuple, what: str) -> np.ndarray:
    """Median per group of a value array already sorted by group code."""
    V = counts.size
    if counts.min() == 0:
        code = int(np.argmin(counts))
        idx = tuple(int(v) + 1 for v in np.unravel_index(code, shape))
        raise EmptyBin(f"{what} {idx} is empty")
    if counts.max() == counts.min():
        meds = np.median(sorted_values.reshape(V, counts[0]), axis=1)
    else:
        offsets = np.cumsum(counts)[:-1]
        meds = np.array([np.median(g) for g in np.split(sorted_values, offsets)])
    return meds.reshape(shape)


def bin_medians(binned: BinnedData) -> MedianSummary:
    """Compute the bin-median tensor Q and the half-bin tensor Q*.

    Q* is left as None when some half-bin is empty, which happens on every
    design with fewer than 2T points per axis.

    Raises
    ------
    EmptyBin
        If any bin holds no observations (the message names the offending
        multi-index).
    """
    design = binned.design
    shape = design.tensor_shape()
    sorted_y = binned.y[binned.order]
    q_full = _grouped_medians(sorted_y, binned.counts, shape, "bin")

    q_half = None
    if binned.half_counts.min() > 0:
        half_sorted = binned.half_mask[binned.order]
        q_half = _grouped_medians(
            sorted_y[half_sorted], binned.half_counts, shape, "half-bin"
        )
    return MedianSummary(design=design, q_full=q_full, q_half=q_half)


def bias_correction(summary: MedianSummary) -> float:
    """Global scalar bias estimate: mean over bins of (Q* - Q).

    Raises
    ------
    EmptyBin
        If the half-bins are empty (``q_half`` is None).
    """
    if summary.q_half is None:
        # every axis interval has the same half length floor((m+1)/(2T)),
        # so the half-bins are empty all at once and the first is (1,...,1)
        raise EmptyBin(f"half-bin {(1,) * summary.design.q} is empty")
    return float(np.mean(summary.q_half - summary.q_full))


def estimate_noise_level(summary: MedianSummary) -> NoiseEstimate:
    """Estimate 1/h^2(0) from lexicographically paired bin medians.

    The estimate tracks 4 kappa Var(median of kappa draws), not h^{-2}(0)
    itself: the two agree only as kappa -> infinity. For Cauchy errors at
    kappa = 16 the target is +17.7% above pi^2 = h^{-2}(0).

    Raises
    ------
    DegenerateNoise
        If fewer than two bins are available (V < 2). A raw estimate below
        the 1e-12 floor does not raise; it is clamped and flagged.
    """
    design = summary.design
    if design.V < 2:
        raise DegenerateNoise("need at least two bins to estimate noise")
    flat = summary.q_full.ravel()  # C order == lexicographic
    pairs = design.V // 2
    diffs = flat[0:2 * pairs:2] - flat[1:2 * pairs:2]
    raw = (2.0 * design.kappa / pairs) * float(np.sum(diffs * diffs))
    degenerate = raw < NOISE_FLOOR
    h_inv_sq = max(raw, NOISE_FLOOR)
    sigma = np.sqrt(h_inv_sq) / (2.0 * np.sqrt(design.n))
    return NoiseEstimate(h_inv_sq=h_inv_sq, sigma=float(sigma),
                         degenerate=degenerate, source="estimate")


def known_noise_level(h_inv_sq: float, n: int) -> NoiseEstimate:
    """Wrap an externally supplied 1/h^2(0) value.

    Raises
    ------
    DegenerateNoise
        If the supplied value is not strictly positive.
    """
    if not np.isfinite(h_inv_sq) or h_inv_sq <= 0:
        raise DegenerateNoise(f"known noise level must be positive, got {h_inv_sq}")
    sigma = np.sqrt(h_inv_sq) / (2.0 * np.sqrt(n))
    return NoiseEstimate(h_inv_sq=float(h_inv_sq), sigma=float(sigma),
                         degenerate=False, source="known")
