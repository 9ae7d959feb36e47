"""Semantic exception hierarchy for medwave.

Every failure mode that callers are expected to handle gets its own class so
the CLI (and library users) can map problems to exit codes without string
matching. All exceptions derive from :class:`MedwaveError`.
"""

__all__ = [
    "MedwaveError",
    # grid / binning
    "NonGridSampleSize",
    "IncompleteGrid",
    "OffGridPoint",
    # medians
    "EmptyBin",
    # wavelet transform
    "UnknownFilter",
    "BadShape",
    "BadPrimaryLevel",
    # shrinkage / estimator
    "ShapeMismatch",
    # simulation
    "BadCovariance",
    "UnknownDensityValue",
    # io / config
    "ParseError",
    "HeaderMismatch",
    "UnknownKey",
    "BadValue",
]


class MedwaveError(Exception):
    """Base class for every error raised by this package."""


class NonGridSampleSize(MedwaveError):
    """Sample size n is not a perfect q-th power (m+1)^q with m >= 1."""


class IncompleteGrid(MedwaveError):
    """Some grid point is missing or duplicated in the observations."""


class OffGridPoint(MedwaveError):
    """A coordinate is not a multiple of 1/m within tolerance."""


class EmptyBin(MedwaveError):
    """A bin or half-bin contains no observations."""


class UnknownFilter(MedwaveError):
    """Wavelet filter name is not in the registry."""


class BadShape(MedwaveError):
    """Tensor axes are not equal dyadic lengths."""


class BadPrimaryLevel(MedwaveError):
    """Primary resolution level j0 is out of range for the data."""


class ShapeMismatch(MedwaveError):
    """Arrays that must agree in shape do not."""


class BadCovariance(MedwaveError):
    """Design covariance is not symmetric positive definite."""


class UnknownDensityValue(MedwaveError):
    """No analytic density-at-median value is available for a distribution."""


class ParseError(MedwaveError):
    """Malformed CSV or config content (message carries the line number)."""


class HeaderMismatch(MedwaveError):
    """CSV header does not match the required column layout."""


class UnknownKey(MedwaveError):
    """Config file contains a key that is not documented."""


class BadValue(MedwaveError):
    """A value fails validation: a config or option value, a non-finite
    input, or a parameter outside its valid range."""
