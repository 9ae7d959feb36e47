"""End-to-end estimation pipeline on a gridded design.

:func:`plan_fit` takes the design points u alone: it plans the dyadic
binning for n = (m+1)^q observations, checks u (finite, on the grid, every
grid point once), fixes the grid position of each row, builds the wavelet
filter and fixes the primary level j0 and the block size L.
:meth:`FitPlan.fit_many` then runs every step below once for a whole
(B, n) stack of response vectors:

1. check the stack and put it in grid order,
2. take per-bin medians Q (and half-bin medians for the bias estimate),
3. estimate the noise level 1/h^2(0) from paired medians (or take a
   known value as given),
4. transform Q / sqrt(V) with a periodized orthonormal wavelet down to j0,
5. block-James-Stein shrink its detail coefficients,
6. invert the transform, rescale by sqrt(V), and subtract the global bias
   estimate.

:func:`fit` is :func:`plan_fit` and :meth:`FitPlan.fit` in one call. With
shrinkage disabled and the bias term forced to zero, steps 4-6 are an
exact round trip: f_hat equals Q to round-off. The reconstruction lives on
the V grid points (l1/T, ..., lq/T), which :func:`evaluate_on_grid`
enumerates in lexicographic order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Real
from typing import Optional

import numpy as np

from .errors import BadPrimaryLevel, BadValue
from .grid import (BinnedData, GridDesign, _check_finite, _integer,
                   bin_observations, plan_grid, product_grid,
                   responses_mismatch)
from .medians import (NoiseEstimate, bias_correction, bin_medians,
                      estimate_noise_level)
from .shrinkage import ShrinkageDiagnostics, default_block_cardinality, shrink
from .wavelets import (WaveletFilter, build_filter, default_primary_level,
                       dwt_qd, idwt_qd)

__all__ = ["EstimatorConfig", "FitPlan", "FitResult", "plan_fit", "fit",
           "evaluate_on_grid"]


def _check_known(value: Optional[float], key: str) -> Optional[float]:
    """``value`` if it is None or a finite positive noise level, else
    BadValue naming ``key``."""
    if value is not None and not (isinstance(value, Real)
                                  and np.isfinite(value) and value > 0):
        raise BadValue(f"{key}: a known noise level must be finite and "
                       f"positive, got {value}")
    return value


@dataclass(frozen=True)
class EstimatorConfig:
    """Tuning knobs of the pipeline.

    ``wavelet`` names the filter ("haar", "db2", "db4"). ``j0`` is the
    primary level; None takes the smallest level whose resolution covers
    the filter taps, clamped to J-1 for small designs. ``block_cardinality``
    is the target block size L; None takes max(1, floor(ln n)).
    ``known_h_inv_sq`` is a known noise level 1/h^2(0), finite and
    positive, used as given; None estimates it from paired medians.
    ``shrinkage_enabled`` off gives the raw median pipeline, and
    ``bias_correction`` off forces b_hat = 0.
    """

    wavelet: str = "db4"
    j0: Optional[int] = None
    block_cardinality: Optional[int] = None
    known_h_inv_sq: Optional[float] = None
    shrinkage_enabled: bool = True
    bias_correction: bool = True

    def __post_init__(self):
        _check_known(self.known_h_inv_sq, "known_h_inv_sq")
        if self.j0 is not None and _integer("j0", self.j0) < 0:
            raise BadPrimaryLevel(f"j0 must be >= 0, got {self.j0}")
        if (self.block_cardinality is not None
                and _integer("block_cardinality", self.block_cardinality) < 1):
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
            raise BadPrimaryLevel(f"j0={config.j0} invalid for data level "
                                  f"J={J} (need 0 <= j0 < J)")
        return config.j0
    return min(default_primary_level(filt), J - 1)


def _parse_noise_mode(text: str, key: str) -> Optional[float]:
    """``estimate`` or ``known:VALUE`` as the ``known_h_inv_sq`` of an
    :class:`EstimatorConfig`: None or VALUE. Whitespace around the kind and
    the value is ignored; ``key`` names the option in the error message."""
    kind, colon, value = text.partition(":")
    kind = kind.strip()
    if kind == "estimate" and not colon:
        return None
    if kind == "known" and colon:
        try:
            known = float(value)
        except ValueError:
            raise BadValue(f"{key}: bad numeric value in {text!r}") from None
        return _check_known(known, key)
    raise BadValue(f"{key} must be 'estimate' or 'known:VALUE', got {text!r}")


@dataclass(frozen=True)
class FitPlan:
    """Everything a fit takes from u alone, made once by :func:`plan_fit`.
    ``binned`` holds the design and the checked grid code of u; ``j0`` is
    None on single-bin designs (J = 0), and ``L`` when shrinkage is off."""

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
        of u: ``fit_many(y[None])[0]``."""
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
        of u; returns the B results in order.

        Row i's result equals ``self.fit(Y[i])`` bit for bit; its ``f_hat``
        is a view into one (B,) + (T,)*q array. Raises IncompleteGrid if
        ``Y`` is not a (B, n) array.
        """
        binned = self.binned.with_responses(Y)
        config, design = self.config, self.design
        n, B = design.n, binned.y_grid.shape[0]
        if not B:
            return []
        summary = bin_medians(binned)
        b_hat = (bias_correction(summary) if config.bias_correction
                 else np.zeros(B))
        noise = estimate_noise_level(summary, config.known_h_inv_sq)
        diagnostics = [None] * B
        if self.j0 is None:
            # one bin: no detail levels, the transform is the identity
            f_hat = summary.q_full - _per_member(b_hat, design.q)
        else:
            coeffs = dwt_qd(summary.q_full / np.sqrt(design.V), self.filt,
                            self.j0)
            if config.shrinkage_enabled:
                coeffs, stack = shrink(
                    coeffs, self.j0, n, np.array([e.h_inv_sq for e in noise]),
                    self.L)
                diagnostics = stack.rows
            f_hat = (idwt_qd(coeffs, self.filt, self.j0) * np.sqrt(design.V)
                     - _per_member(b_hat, design.q))
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
    design = plan_grid(n, q)
    binned = bin_observations(u, design)
    # the median classes, built before any response array: built mid-fit,
    # they sit between its large temporaries and raise the peak RSS
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
    """Run the full pipeline on grid observations (u, y), the responses
    ``y`` in the row order of u; identical inputs give bit-identical
    results. To fit many response vectors on one u, use :func:`plan_fit`."""
    return plan_fit(u, config).fit(y)


def evaluate_on_grid(result: FitResult) -> np.ndarray:
    """The estimate at the V grid points of ``result.design`` in
    lexicographic order: a (V, q+1) array of q coordinate columns (l/T per
    axis) followed by the estimate value."""
    design = result.design
    coords = product_grid(np.arange(1, design.T + 1) / design.T, design.q)
    return np.column_stack([coords, result.f_hat.ravel()])
