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
  draws), which reaches
  h^{-2}(0) only as kappa -> infinity (the variance of a bin median is
  1/(4 kappa h^2(0)) asymptotically). At kappa = 16 the exact value is
  7.9% below h^{-2}(0) for Gaussian errors and 17.7% above it for Cauchy
  errors. The per-coefficient noise scale is then
  sigma = sqrt(h_inv_sq) / (2 sqrt(n)).

Medians use the usual midpoint convention for even counts (mean of the two
middle order statistics).

The responses arrive in grid order (see :mod:`medwave.grid`), where a bin is
a product of axis intervals. An axis has at most two interval lengths, so
the bins fall into at most 2^q count classes. Each class is selected
axis by axis: a plain slice, reshaped to (intervals, step) and cut to the
interval length, where the class's intervals are an evenly spaced run (so
every full-bin class when T divides m or m+1), otherwise a ``take`` of
their points. The half-bins, which take the same length
floor((m+1)/(2T)) on every axis, are always one class. These selections
depend on the design alone: they are built once, by the fit plan or on
first use, and kept on the :class:`GridDesign` (``median_selections``).
A fit then makes one copy per class with one row per bin and stack
member, sorts the rows in place, and their middle values are the medians.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional

import numpy as np

from .errors import DegenerateNoise, EmptyBin, ShapeMismatch
from .grid import BinnedData, GridDesign

__all__ = [
    "MedianSummary",
    "NoiseEstimate",
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
    """Medians of every bin and half-bin of B stack members, as
    (B,) + (T,)*q stacks of tensors in C order.

    ``q_half`` is None when the half-bins are empty: only the bias
    correction reads it, and it raises then.
    """

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
    """Noise level 1/h^2(0) and the implied per-coefficient scale sigma.

    ``degenerate`` is True when the raw estimate fell below the clamp floor
    (all medians identical); the estimate is then the floor itself and
    callers may escalate via the CLI --strict flag.
    """

    h_inv_sq: float
    sigma: float
    degenerate: bool = False
    source: str = "estimate"


def _row_medians(rows: np.ndarray) -> np.ndarray:
    """``np.median(rows, axis=-1)`` bit for bit, for rows without NaN.

    Sorts ``rows`` in place. The middle values are averaged as ``np.mean``
    does in ``np.median``: its leading ``0.0 +`` turns -0.0 into +0.0.
    """
    rows.sort(axis=-1)
    k = rows.shape[-1] // 2
    if rows.shape[-1] % 2:
        return 0.0 + rows[..., k]
    return (0.0 + rows[..., k - 1] + rows[..., k]) / 2.0


def _even_step(starts: np.ndarray, length: int, size: int):
    """The step of the axis intervals ``[starts[i], starts[i] + length)``
    when they are an evenly spaced run whose last step ends within the
    axis of ``size`` points, else None."""
    step = int(starts[1] - starts[0]) if starts.size > 1 else length
    if starts[0] + starts.size * step > size:
        return None
    return step if (np.diff(starts) == step).all() else None


def _class_selections(starts: np.ndarray, lengths: np.ndarray, size: int,
                      q: int) -> list:
    """Per count class of the bins ``[starts[l], starts[l] + lengths[l])``:
    on each axis (k intervals, their length, a run slice and its step where
    :func:`_even_step` finds one, else a ``take`` index and None), and the
    ``np.ix_`` index of the class's medians in the (T,)*q tensor."""
    axis_classes = []
    for length in np.unique(lengths).tolist():
        ls = np.flatnonzero(lengths == length)
        step = _even_step(starts[ls], length, size)
        sel = ((starts[ls, None] + np.arange(length)).ravel() if step is None
               else slice(starts[ls[0]], starts[ls[0]] + ls.size * step))
        axis_classes.append((ls, (ls.size, length, sel, step)))
    return [(tuple(sel for _, sel in combo), np.ix_(*(ls for ls, _ in combo)))
            for combo in product(axis_classes, repeat=q)]


def median_selections(design: GridDesign) -> tuple:
    """The count classes of the full bins and of the half-bins (None when
    empty), built once per design as :attr:`GridDesign.median_selections`."""
    lengths = design.axis_lengths
    starts = np.cumsum(lengths) - lengths
    half = (design.m + 1) // (2 * design.T)
    return (_class_selections(starts, lengths, design.m + 1, design.q),
            None if half == 0 else _class_selections(
                starts, np.full_like(lengths, half), design.m + 1, design.q))


def _interval_medians(y_grid: np.ndarray, classes: list,
                      shape: tuple) -> np.ndarray:
    """Median over every bin of the count ``classes``, as a (B,) + ``shape``
    stack for the (B,) + (m+1,)*q stack ``y_grid``. Each class is selected
    axis by axis, then one copy lays it out as (stack, bins..., count)
    rows, which are sorted in place. The copy is needed even where the
    selection is a view, so ``y_grid`` is never sorted."""
    q = len(shape)
    out = np.empty(y_grid.shape[:1] + shape)
    for axes, index in classes:
        block = y_grid
        for a, (k, length, sel, step) in enumerate(axes):
            # axis 1 + 2a becomes the class's k intervals, 2 + 2a their
            # points
            at = 1 + 2 * a
            lead = (slice(None),) * at
            head, tail = block.shape[:at], block.shape[at + 1:]
            if step is None:
                block = block.take(sel, axis=at).reshape(
                    head + (k, length) + tail)
            else:
                block = block[lead + (sel,)].reshape(head + (k, step) + tail)
                block = block[lead + (slice(None), slice(0, length))]
        # (stack, k1, L1, ..., kq, Lq) -> one C-order copy of
        # (stack, k1..kq, L1..Lq)
        rows = block.transpose([0, *range(1, 2 * q, 2),
                                *range(2, 2 * q + 1, 2)]).copy()
        out[(slice(None),) + index] = _row_medians(
            rows.reshape(rows.shape[:1 + q] + (-1,)))
    return out


def bin_medians(binned: BinnedData) -> MedianSummary:
    """Compute the bin-median tensor Q and the half-bin tensor Q* of every
    member of the stack ``binned.y_grid``.

    Q* is left as None when the half-bins are empty, which happens on every
    design with fewer than 2T points per axis. The count classes are those
    the design keeps (:attr:`GridDesign.median_selections`).
    """
    design = binned.design
    q_full, q_half = (
        None if classes is None else
        _interval_medians(binned.y_grid, classes, design.tensor_shape())
        for classes in design.median_selections)
    return MedianSummary(design=design, q_full=q_full, q_half=q_half)


def bias_correction(summary: MedianSummary) -> np.ndarray:
    """Global bias estimate of each member, the mean over its bins of
    (Q* - Q): a (B,) array.

    Raises
    ------
    EmptyBin
        If the half-bins are empty (``q_half`` is None).
    """
    if summary.q_half is None:
        # every axis interval has the same half length floor((m+1)/(2T)),
        # so the half-bins are empty all at once and the first is (1,...,1)
        raise EmptyBin(f"half-bin {(1,) * summary.design.q} is empty")
    return np.mean((summary.q_half - summary.q_full).reshape(
        -1, summary.design.V), axis=1)


def estimate_noise_level(summary: MedianSummary) -> list:
    """Estimate 1/h^2(0) of each member from its lexicographically paired
    bin medians: a list of B estimates.

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
    flat = summary.q_full.reshape(-1, design.V)  # C order == lexicographic
    pairs = design.V // 2
    diffs = flat[:, 0:2 * pairs:2] - flat[:, 1:2 * pairs:2]
    raws = (2.0 * design.kappa / pairs) * np.sum(diffs * diffs, axis=1)
    root_n = np.sqrt(design.n)
    noise = []
    for raw in raws.tolist():
        h_inv_sq = max(raw, NOISE_FLOOR)
        noise.append(NoiseEstimate(
            h_inv_sq=h_inv_sq, sigma=float(np.sqrt(h_inv_sq) / (2.0 * root_n)),
            degenerate=raw < NOISE_FLOOR, source="estimate"))
    return noise


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
