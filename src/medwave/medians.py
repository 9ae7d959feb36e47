"""Per-bin sample medians and the two statistics derived from them.

Given a stack of binned response vectors, three quantities per member feed
the estimation pipeline:

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
  draws), which reaches h^{-2}(0) only as kappa -> infinity (at kappa = 16
  it is 7.9% below for Gaussian errors and 17.7% above for Cauchy errors).
  A single bin (V = 1) has no pair: its estimate is 0, clamped to the
  floor and flagged.

Medians use the usual midpoint convention for even counts (mean of the two
middle order statistics). The bins fall into at most 2^q count classes,
which :attr:`~medwave.grid.GridDesign.median_selections` builds; this
module copies each class, sorts it and takes its medians. A half-bin is
cut from its bin's class, and the sorted bins of each class show whether
every response is finite: neither the half-bins nor the check take a pass
of their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import EmptyBin, ShapeMismatch
from .grid import BinnedData, GridDesign

__all__ = ["MedianSummary", "NoiseEstimate", "bin_medians", "bias_correction",
           "estimate_noise_level", "NOISE_FLOOR"]

#: clamp floor for the noise-level estimate (all medians identical)
NOISE_FLOOR = 1e-12


@dataclass(frozen=True)
class MedianSummary:
    """Medians of every bin and half-bin of B stack members, as
    (B,) + (T,)*q stacks of tensors in C order; ``q_half`` is None when the
    half-bins are empty."""

    design: GridDesign
    q_full: np.ndarray
    q_half: Optional[np.ndarray]

    def __post_init__(self):
        full_shape = self.q_full.shape
        shape = full_shape[:1] + self.design.tensor_shape()
        half_shape = shape if self.q_half is None else self.q_half.shape
        if full_shape != shape or half_shape != shape:
            raise ShapeMismatch(
                f"median tensors must have shape (B,) + "
                f"{self.design.tensor_shape()}, got {full_shape} / "
                f"{half_shape}"
            )


@dataclass(frozen=True)
class NoiseEstimate:
    """Noise level 1/h^2(0) used by the shrinkage rule. ``source`` is
    "known" for a level the caller gave, else "estimate". ``degenerate``
    says an estimate fell below the clamp floor (all medians identical, or
    a single bin) and was set to it; the CLI's --strict makes it an error.
    """

    h_inv_sq: float
    degenerate: bool = False
    source: str = "estimate"


def _row_medians(rows: np.ndarray) -> np.ndarray:
    """``np.median(rows, axis=-1)`` bit for bit for rows without NaN,
    sorting ``rows`` in place."""
    rows.sort(axis=-1)
    return _sorted_medians(rows)


def _sorted_medians(rows: np.ndarray) -> np.ndarray:
    """The median of each sorted row of ``rows``, ``np.median``'s
    arithmetic in place so that one temporary lives. The leading ``0.0 +``
    is ``np.median``'s: it turns -0.0 into +0.0."""
    k = rows.shape[-1] // 2
    if rows.shape[-1] % 2:
        return 0.0 + rows[..., k]
    mid = 0.0 + rows[..., k - 1]
    mid += rows[..., k]
    mid /= 2.0
    return mid


def _class_block(y_grid: np.ndarray, axes: tuple) -> np.ndarray:
    """The bins of one count class of the (B,) + (m+1,)*q stack ``y_grid``
    (see :attr:`~medwave.grid.GridDesign.median_selections`) as a
    (B, k1, L1, ..., kq, Lq) block: a view where every axis is a slice,
    else a ``take`` copy."""
    block = y_grid
    for a, (k, length, sel) in enumerate(axes):
        # axis 1 + 2a becomes the class's k intervals, 2 + 2a their points
        at = 1 + 2 * a
        head, tail = block.shape[:at], block.shape[at + 1:]
        block = (block[(slice(None),) * at + (sel,)] if isinstance(sel, slice)
                 else block.take(sel, axis=at))
        block = block.reshape(head + (k, length) + tail)
    return block


def _block_medians(block: np.ndarray, binned: BinnedData) -> np.ndarray:
    """The median of each bin of a (B, k1, L1, ..., kq, Lq) ``block`` of
    ``binned.y_grid``, as (B, k1, ..., kq), from one C-order copy of its
    rows sorted in place; the copy is released on return.

    numpy sorts -inf first and +inf and NaN last, so the ends of the
    sorted rows show, before any arithmetic on them, whether every value
    is finite. If one is not, :meth:`BinnedData.check_responses` raises
    BadValue naming it.
    """
    q = (block.ndim - 1) // 2
    rows = block.transpose([0, *range(1, 2 * q, 2),
                            *range(2, 2 * q + 1, 2)]).copy()
    rows = rows.reshape(rows.shape[:1 + q] + (-1,))
    rows.sort(axis=-1)
    if not (np.isfinite(rows[..., 0]).all()
            and np.isfinite(rows[..., -1]).all()):
        binned.check_responses()
    return _sorted_medians(rows)


def bin_medians(binned: BinnedData) -> MedianSummary:
    """Compute the bin-median tensor Q and the half-bin tensor Q* of every
    member of the stack ``binned.y_grid``, which is never sorted.

    Each count class of the bins is copied and sorted, one class at a
    time; its half-bins are the first floor((m+1)/(2T)) points of each
    axis interval of the same block, copied after the class's bins are
    released. The full bins partition the grid, so their sorted ends show
    whether every response is finite (see :func:`_block_medians`); a
    response that is not raises BadValue naming ``y[b, i]``.

    Q* is left as None when the half-bins are empty, which happens on every
    design with fewer than 2T points per axis.
    """
    design, y_grid = binned.design, binned.y_grid
    half = (design.m + 1) // (2 * design.T)
    shape = y_grid.shape[:1] + design.tensor_shape()
    q_full = np.empty(shape)
    q_half = np.empty(shape) if half else None
    for axes, index in design.median_selections:
        block = _class_block(y_grid, axes)
        at = (slice(None),) + index
        q_full[at] = _block_medians(block, binned)
        if half:
            q_half[at] = _block_medians(
                block[(slice(None),) + (slice(None), slice(0, half))
                      * design.q], binned)
    return MedianSummary(design=design, q_full=q_full, q_half=q_half)


def bias_correction(summary: MedianSummary) -> np.ndarray:
    """Global bias estimate of each member, the mean over its bins of
    (Q* - Q): a (B,) array. Raises EmptyBin if the half-bins are empty."""
    if summary.q_half is None:
        # every axis interval has the same half length floor((m+1)/(2T)),
        # so the half-bins are empty all at once and the first is (1,...,1)
        raise EmptyBin(f"half-bin {(1,) * summary.design.q} is empty")
    return np.mean((summary.q_half - summary.q_full).reshape(
        -1, summary.design.V), axis=1)


def estimate_noise_level(summary: MedianSummary,
                         known: Optional[float] = None) -> list:
    """The noise level 1/h^2(0) of each member: a list of B estimates.

    A ``known`` level is used as given for every member. Otherwise each
    member's level is estimated from its paired bin medians (see the module
    docstring); an estimate below the 1e-12 floor, as on a single bin, is
    clamped and flagged.
    """
    design = summary.design
    if known is None:
        flat = summary.q_full.reshape(-1, design.V)  # C order == lexicographic
        pairs = design.V // 2
        diffs = flat[:, 0:2 * pairs:2] - flat[:, 1:2 * pairs:2]
        raws = ((2.0 * design.kappa / max(pairs, 1))
                * np.sum(diffs * diffs, axis=1)).tolist()
    else:
        raws = [float(known)] * summary.q_full.shape[0]
    noise = []
    for raw in raws:
        degenerate = known is None and raw < NOISE_FLOOR
        noise.append(NoiseEstimate(
            h_inv_sq=NOISE_FLOOR if degenerate else raw, degenerate=degenerate,
            source="estimate" if known is None else "known"))
    return noise
