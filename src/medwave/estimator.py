"""End-to-end estimation pipeline on a gridded design.

A fit runs in two steps. :func:`plan_fit` takes the design points u alone:

1. plan the dyadic binning for n = (m+1)^q observations,
2. check u (finite, on the grid, every grid point once) and fix the grid
   position of each row,
3. build the wavelet filter and fix the primary level j0 and the block
   size L.

:meth:`FitPlan.fit_many` then takes a (B, n) stack of response vectors,
and runs every step below once for the whole stack, each array operation
taking every member:

4. check the stack and scatter it into grid order,
5. take per-bin medians Q (and half-bin medians for the bias estimate),
6. estimate the noise level 1/h^2(0) from paired medians (or accept a
   known value),
7. transform Q / sqrt(V) with a periodized orthonormal wavelet down to the
   primary level j0,
8. block-James-Stein shrink the detail coefficients,
9. reconstruct, rescale by sqrt(V), and subtract the global bias estimate.

:meth:`FitPlan.fit` fits one response vector as a stack of one, and
:func:`fit` is :func:`plan_fit` and :meth:`FitPlan.fit` in one call. A plan
serves any number of stacks on the same u, and each member's result is
bit-identical to a fresh :func:`fit` of it.

With shrinkage disabled and the bias term forced to zero, steps 7-9 are an
exact round trip: f_hat equals the bin-median tensor Q to round-off.

The reconstruction lives on the V grid points (l1/T, ..., lq/T); use
:func:`evaluate_on_grid` to enumerate them in lexicographic order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import BadPrimaryLevel, BadValue, ShapeMismatch
from .grid import (BinnedData, GridDesign, _check_finite, bin_observations,
                   plan_grid, product_grid, responses_mismatch)
from .medians import (
    NOISE_FLOOR,
    MedianSummary,
    NoiseEstimate,
    bias_correction,
    bin_medians,
    estimate_noise_level,
    known_noise_level,
)
from .shrinkage import ShrinkageDiagnostics, default_block_cardinality, shrink
from .wavelets import (
    WaveletFilter,
    build_filter,
    default_primary_level,
    dwt_qd,
    idwt_qd,
)

__all__ = ["EstimatorConfig", "FitPlan", "FitResult", "plan_fit", "fit",
           "evaluate_on_grid"]


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
        The value 1/h^2(0) when noise_mode == "known"; finite and positive.
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
        known = self.known_h_inv_sq
        if self.noise_mode == "known" and not (
            known is not None and np.isfinite(known) and known > 0
        ):
            raise BadValue("noise_mode 'known' requires a finite positive "
                           f"known_h_inv_sq, got {known}")
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


def _parse_noise_mode(text: str, key: str) -> dict:
    """``estimate`` or ``known:VALUE`` as :class:`EstimatorConfig` keywords.

    Whitespace around the kind and the value is ignored. ``key`` names the
    option (``--noise-mode`` or ``noise_mode``) in the error message.
    """
    kind, colon, value = text.partition(":")
    kind = kind.strip()
    if kind == "estimate" and not colon:
        return {"noise_mode": "estimate"}
    if kind == "known" and colon:
        try:
            return {"noise_mode": "known", "known_h_inv_sq": float(value)}
        except ValueError:
            raise BadValue(f"{key}: bad numeric value in {text!r}") from None
    raise BadValue(f"{key} must be 'estimate' or 'known:VALUE', got {text!r}")


def _resolve_noise(config: EstimatorConfig, summary: MedianSummary,
                   n: int) -> list:
    """The noise level of each member of the stacked ``summary``."""
    members = summary.q_full.shape[0]
    if config.noise_mode == "known":
        return [known_noise_level(config.known_h_inv_sq, n)] * members
    if summary.design.J == 0:
        # a single bin has no pair to estimate from: flag the clamp floor
        return [NoiseEstimate(
            h_inv_sq=NOISE_FLOOR,
            sigma=float(np.sqrt(NOISE_FLOOR) / (2.0 * np.sqrt(n))),
            degenerate=True,
        )] * members
    return estimate_noise_level(summary)


@dataclass(frozen=True)
class FitPlan:
    """Everything a fit takes from u alone, made once by :func:`plan_fit`.

    ``binned`` holds the design and the checked grid code of u, without
    responses; ``j0`` is None on single-bin designs (J = 0), which have no
    detail levels, and ``L`` is None when shrinkage is off.
    """

    config: EstimatorConfig
    binned: BinnedData
    filt: WaveletFilter
    j0: Optional[int]
    L: Optional[int]

    @property
    def design(self) -> GridDesign:
        return self.binned.design

    def fit(self, y: np.ndarray) -> FitResult:
        """Run the pipeline on the (n,) responses ``y``, in the row order
        of u: ``fit_many(y[None])[0]``.

        Deterministic: identical responses produce bit-identical results,
        equal to those of :func:`fit` on (u, y).
        """
        y = np.asarray(y, dtype=float)
        if y.shape != (self.design.n,):
            raise responses_mismatch(self.design, y.shape)
        try:
            return self.fit_many(y[None])[0]
        except BadValue:
            # name a non-finite response y[i], not y[0, i] of the stack
            _check_finite("y", "response", y)
            raise

    def fit_many(self, Y: np.ndarray) -> list:
        """Fit every row of the (B, n) stack ``Y``, each in the row order
        of u, in one pass of every stage; returns the B results in order.

        Row i's result is bit-identical to ``self.fit(Y[i])``; its
        ``f_hat`` is a view into one (B,) + (T,)*q array.

        Raises
        ------
        IncompleteGrid
            If ``Y`` is not a (B, n) array.
        """
        binned = self.binned.with_responses(Y)
        config, design = self.config, self.design
        n, B = design.n, binned.y_grid.shape[0]
        if not B:
            return []
        summary = bin_medians(binned)
        b_hat = (bias_correction(summary) if config.bias_correction
                 else np.zeros(B))
        noise = _resolve_noise(config, summary, n)
        diagnostics = [None] * B
        if self.j0 is None:
            # Single bin per axis: no detail levels exist, the transform is
            # the identity on the 1-point-per-axis tensor.
            f_hat = summary.q_full - _per_member(b_hat, design.q)
        else:
            pyramid = dwt_qd(summary.q_full / np.sqrt(design.V), self.filt,
                             self.j0)
            if config.shrinkage_enabled:
                pyramid, stack = shrink(
                    pyramid, n, np.array([e.h_inv_sq for e in noise]), self.L)
                diagnostics = stack.rows
            f_hat = (idwt_qd(pyramid, self.filt) * np.sqrt(design.V)
                     - _per_member(b_hat, design.q))
        if f_hat.shape != (B,) + design.tensor_shape():  # pragma: no cover
            raise ShapeMismatch("reconstruction shape drifted from design")
        return [FitResult(f_hat=f, b_hat=float(b), noise=e, diagnostics=d,
                          design=design, config=config)
                for f, b, e, d in zip(f_hat, b_hat, noise, diagnostics)]


def _per_member(values: np.ndarray, q: int) -> np.ndarray:
    """One value per stack member, shaped to broadcast over its tensor."""
    return values.reshape(values.shape + (1,) * q)


def plan_fit(u: np.ndarray,
             config: EstimatorConfig = EstimatorConfig()) -> FitPlan:
    """Check the design points u once and fix what every fit on them shares.

    ``u`` must be an (n, q) array (or (n,) for q = 1) covering the full
    equispaced product grid exactly once. Every error in u (and in the
    wavelet or primary level of ``config``) raises here, before any
    response is seen.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    n, q = u.shape
    return _plan_on(u, plan_grid(n, q), config)


def _plan_on(u: np.ndarray, design: GridDesign,
             config: EstimatorConfig) -> FitPlan:
    """:func:`plan_fit` of the (n, q) ``u`` on its ``design``, which the
    plan keeps (a rate study's sample size shares one design)."""
    binned = bin_observations(u, design)
    # the median classes, built before any response array: built mid-fit,
    # they were kept between its large temporaries and raised the peak RSS
    design.median_selections
    filt = build_filter(config.wavelet)
    j0 = L = None
    if design.J > 0:
        j0 = _resolve_primary_level(config, filt, design.J)
        if config.shrinkage_enabled:
            L = (config.block_cardinality
                 if config.block_cardinality is not None
                 else default_block_cardinality(design.n))
    return FitPlan(config=config, binned=binned, filt=filt, j0=j0, L=L)


def fit(u: np.ndarray, y: np.ndarray,
        config: EstimatorConfig = EstimatorConfig()) -> FitResult:
    """Run the full pipeline on grid observations (u, y).

    ``u`` must be an (n, q) array (or (n,) for q = 1) covering the full
    equispaced product grid exactly once; ``y`` the matching responses.
    Deterministic: identical inputs produce bit-identical results. To fit
    many response vectors on one u, build :func:`plan_fit` once instead.
    """
    return plan_fit(u, config).fit(y)


def evaluate_on_grid(result: FitResult) -> np.ndarray:
    """Enumerate the estimate at the V grid points of ``result.design`` in
    lexicographic order.

    Returns an array of shape (V, q+1): q coordinate columns (l/T per axis)
    followed by the estimate value.
    """
    design = result.design
    coords = product_grid(np.arange(1, design.T + 1) / design.T, design.q)
    return np.column_stack([coords, result.f_hat.ravel()])
