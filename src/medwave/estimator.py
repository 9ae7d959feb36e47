"""End-to-end estimation pipeline on a gridded design.

The pipeline glues the pieces together:

1. plan the dyadic binning for n = (m+1)^q observations,
2. take per-bin medians Q (and half-bin medians for the bias estimate),
3. estimate the noise level 1/h^2(0) from paired medians (or accept a
   known value),
4. transform Q / sqrt(V) with a periodized orthonormal wavelet down to the
   primary level j0,
5. block-James-Stein shrink the detail coefficients,
6. reconstruct, rescale by sqrt(V), and subtract the global bias estimate.

With shrinkage disabled and the bias term forced to zero, steps 4-6 are an
exact round trip: f_hat equals the bin-median tensor Q to round-off.

The reconstruction lives on the V grid points (l1/T, ..., lq/T); use
:func:`evaluate_on_grid` to enumerate them in lexicographic order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import BadPrimaryLevel, BadValue, ShapeMismatch
from .grid import GridDesign, bin_observations, plan_grid, product_grid
from .medians import (
    NOISE_FLOOR,
    MedianSummary,
    NoiseEstimate,
    bias_correction,
    bin_medians,
    estimate_noise_level,
    known_noise_level,
)
from .shrinkage import (
    ShrinkageConfig,
    ShrinkageDiagnostics,
    default_block_cardinality,
    partition_blocks,
    shrink,
)
from .wavelets import (
    WaveletFilter,
    build_filter,
    default_primary_level,
    dwt_qd,
    idwt_qd,
)

__all__ = ["EstimatorConfig", "FitResult", "fit", "evaluate_on_grid"]


@dataclass(frozen=True)
class EstimatorConfig:
    """Tuning knobs of the pipeline.

    Attributes
    ----------
    wavelet : str
        Filter name ("haar", "db2", "db4").
    j0 : int, optional
        Primary level; default is the smallest level whose resolution
        covers the filter taps, clamped to J-1 for small designs.
    block_cardinality : int, optional
        Target block size L; default max(1, floor(ln n)).
    noise_mode : str
        "estimate" (from paired medians) or "known".
    known_h_inv_sq : float, optional
        The value 1/h^2(0) when noise_mode == "known".
    shrinkage_enabled : bool
        Disable to get the raw median pipeline (diagnostic use).
    bias_correction : bool
        Disable to force b_hat = 0.
    """

    wavelet: str = "db4"
    j0: Optional[int] = None
    block_cardinality: Optional[int] = None
    noise_mode: str = "estimate"
    known_h_inv_sq: Optional[float] = None
    shrinkage_enabled: bool = True
    bias_correction: bool = True

    def __post_init__(self):
        if self.noise_mode not in ("estimate", "known"):
            raise BadValue(f"noise_mode must be 'estimate' or 'known', "
                           f"got {self.noise_mode!r}")
        if self.noise_mode == "known" and (
            self.known_h_inv_sq is None or not self.known_h_inv_sq > 0
        ):
            raise BadValue("noise_mode 'known' requires a positive known_h_inv_sq")
        if self.j0 is not None and self.j0 < 0:
            raise BadPrimaryLevel(f"j0 must be >= 0, got {self.j0}")
        if self.block_cardinality is not None and self.block_cardinality < 1:
            raise BadValue("block_cardinality must be >= 1")


@dataclass
class FitResult:
    """Outcome of :func:`fit`.

    ``f_hat`` is the estimate on the (T,)*q bin grid; ``b_hat`` the global
    bias estimate actually subtracted; ``noise`` the noise level used by the
    shrinkage rule; ``diagnostics`` the shrinkage record (None when
    shrinkage was disabled or no detail levels exist).
    """

    f_hat: np.ndarray
    b_hat: float
    noise: NoiseEstimate
    diagnostics: Optional[ShrinkageDiagnostics]
    design: GridDesign
    config: EstimatorConfig = field(repr=False, default=None)


def _resolve_primary_level(config: EstimatorConfig, filt: WaveletFilter,
                           J: int) -> int:
    if config.j0 is not None:
        if not 0 <= config.j0 < J:
            raise BadPrimaryLevel(
                f"j0={config.j0} invalid for data level J={J} (need 0 <= j0 < J)"
            )
        return config.j0
    return min(default_primary_level(filt), J - 1)


def _resolve_noise(config: EstimatorConfig, summary: MedianSummary,
                   n: int) -> NoiseEstimate:
    if config.noise_mode == "known":
        return known_noise_level(config.known_h_inv_sq, n)
    return estimate_noise_level(summary)


def fit(u: np.ndarray, y: np.ndarray,
        config: EstimatorConfig = EstimatorConfig()) -> FitResult:
    """Run the full pipeline on grid observations (u, y).

    ``u`` must be an (n, q) array (or (n,) for q = 1) covering the full
    equispaced product grid exactly once; ``y`` the matching responses.
    Deterministic: identical inputs produce bit-identical results.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    y = np.asarray(y, dtype=float)
    n, q = u.shape

    design = plan_grid(n, q)
    binned = bin_observations(u, y, design)
    summary = bin_medians(binned)
    b_hat = bias_correction(summary) if config.bias_correction else 0.0
    filt = build_filter(config.wavelet)

    if design.J == 0:
        # Single bin per axis: no detail levels exist, the transform is the
        # identity on the 1-point-per-axis tensor. Noise cannot be estimated
        # from a single bin; mark it degenerate unless supplied.
        if config.noise_mode == "known":
            noise = known_noise_level(config.known_h_inv_sq, n)
        else:
            noise = NoiseEstimate(
                h_inv_sq=NOISE_FLOOR,
                sigma=float(np.sqrt(NOISE_FLOOR) / (2.0 * np.sqrt(n))),
                degenerate=True,
            )
        f_hat = summary.q_full - b_hat
        return FitResult(f_hat=f_hat, b_hat=float(b_hat), noise=noise,
                         diagnostics=None, design=design, config=config)

    noise = _resolve_noise(config, summary, n)
    j0 = _resolve_primary_level(config, filt, design.J)

    tensor = summary.q_full / np.sqrt(design.V)
    pyramid = dwt_qd(tensor, filt, j0)

    diagnostics = None
    if config.shrinkage_enabled:
        L = (config.block_cardinality
             if config.block_cardinality is not None
             else default_block_cardinality(n))
        shrink_cfg = ShrinkageConfig(n=n, h_inv_sq=noise.h_inv_sq,
                                     block_cardinality=L)
        partition = partition_blocks(pyramid, shrink_cfg)
        pyramid, diagnostics = shrink(pyramid, partition, shrink_cfg)

    recon = idwt_qd(pyramid, filt) * np.sqrt(design.V)
    f_hat = recon - b_hat
    if f_hat.shape != design.tensor_shape():  # pragma: no cover
        raise ShapeMismatch("reconstruction shape drifted from design")
    return FitResult(f_hat=f_hat, b_hat=float(b_hat), noise=noise,
                     diagnostics=diagnostics, design=design, config=config)


def evaluate_on_grid(result: FitResult, design: GridDesign) -> np.ndarray:
    """Enumerate the estimate at the V grid points in lexicographic order.

    Returns an array of shape (V, q+1): q coordinate columns (l/T per axis)
    followed by the estimate value.
    """
    if result.f_hat.shape != design.tensor_shape():
        raise ShapeMismatch(
            f"result shape {result.f_hat.shape} does not match design "
            f"{design.tensor_shape()}"
        )
    coords = product_grid(np.arange(1, design.T + 1) / design.T, design.q)
    return np.column_stack([coords, result.f_hat.ravel()])
