"""medwave: robust wavelet regression on dyadic grids via binned medians.

The estimation pipeline (grid planning, bin medians, periodized wavelet
transform, block shrinkage, the fitted estimator) is imported eagerly.
Simulation and config-file machinery is loaded lazily on first attribute
access so that plain estimation — including the ``estimate`` command-line
path — never imports it.
"""

from __future__ import annotations

from importlib import import_module
from types import ModuleType as _Module

from .errors import (BadCovariance, BadPrimaryLevel, BadShape, BadValue,
                     EmptyBin, HeaderMismatch, IncompleteGrid, MedwaveError,
                     NonGridSampleSize, OffGridPoint, ParseError,
                     ShapeMismatch, UnknownDensityValue, UnknownFilter,
                     UnknownKey)
from .grid import BinnedData, GridDesign, bin_observations, plan_grid
from .medians import (NOISE_FLOOR, MedianSummary, NoiseEstimate,
                      bias_correction, bin_medians, estimate_noise_level)
from .wavelets import (WaveletFilter, available_filters, build_filter,
                       default_primary_level, dwt_qd, idwt_qd)
from .shrinkage import (ShrinkageDiagnostics, default_block_cardinality,
                        partition_blocks, shrink, solve_lambda_star)
from .estimator import (EstimatorConfig, FitPlan, FitResult, evaluate_on_grid,
                        fit, plan_fit)
from .dataio import (read_estimate_csv, read_grid_csv, write_dataset_csv,
                     write_estimate_csv)

__version__ = "0.1.0"

# Simulation and config-parsing names resolve lazily (PEP 562): touching any
# of them imports medwave.simulate / medwave.config on demand.
_LAZY = {
    name: "medwave.simulate"
    for name in (
        "ErrorDist", "DesignDist", "TestFunction", "SimulationConfig",
        "RatePoint", "RateStudyReport", "CouplingResult", "test_function",
        "available_test_functions", "sample_elliptical", "sample_errors",
        "density_at_median", "generate_dataset", "mise",
        "rate_study", "coupling_check", "replication_rng",
    )
}
_LAZY.update({
    name: "medwave.config"
    for name in ("parse_config", "parse_config_text", "emit_config")
})

__all__ = sorted(
    [n for n, v in globals().items() if not n.startswith("_")
     and not isinstance(v, _Module)  # the submodules the imports bind
     and n not in ("import_module", "annotations")] + list(_LAZY)
)


def __getattr__(name: str):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    return getattr(import_module(module), name)


def __dir__():
    return __all__
