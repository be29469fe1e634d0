"""Exception types raised across the library.

Every class name doubles as the stable error code surfaced by the CLI,
so renaming one is a breaking change to the command-line contract.
"""

from __future__ import annotations


class RetrofluxError(Exception):
    """Base class for all domain errors raised by this package."""


# --- closed-form model ---------------------------------------------------


class NotExponentialError(RetrofluxError):
    """Discriminant is not strictly positive; no real exponential pair exists."""


class SolutionOverflowError(RetrofluxError, OverflowError):
    """A result (e.g. an exponential argument) exceeds the double range."""


class AsymmetricDomainError(RetrofluxError):
    """Trajectory grid is not symmetric about t = 0."""


# --- integrator -----------------------------------------------------------


class InvalidStepError(RetrofluxError):
    """Integration step is nonpositive or larger than the horizon."""


class OutOfRangeError(RetrofluxError):
    """Tabulated forcing does not cover the requested time."""


# --- estimation -----------------------------------------------------------


class TooFewPointsError(RetrofluxError):
    """Series is too short for the requested operation."""


class DegenerateSeriesError(RetrofluxError):
    """Series carries no usable signal (e.g. identically zero)."""


class SingularNormalEquationsError(RetrofluxError):
    """Damped normal equations could not be solved even at maximum damping."""


# --- analysis -------------------------------------------------------------


class TooFewAlignedPointsError(RetrofluxError):
    """Fewer than two time points shared between the series."""


class ZeroVarianceError(RetrofluxError):
    """Regressor series is constant; the slope is undefined."""


# --- data I/O -------------------------------------------------------------


class MalformedHeaderError(RetrofluxError):
    """CSV header line is not exactly 't,value'."""


class NonNumericFieldError(RetrofluxError):
    """A CSV field failed to parse as a finite number."""


class NonMonotonicTimeError(RetrofluxError):
    """CSV times are not strictly increasing."""


class EmptyBodyError(RetrofluxError):
    """CSV contains a header but no records."""


class MissingFieldError(RetrofluxError):
    """Required document field is absent."""


class UnknownFieldError(RetrofluxError):
    """Document contains a field outside the schema."""


class TypeMismatchError(RetrofluxError):
    """Document field has the wrong type or an out-of-range value."""


# --- plotting -------------------------------------------------------------


class EmptySeriesError(RetrofluxError):
    """Plot spec contains a series with no points."""


class EmptyGridError(RetrofluxError):
    """Parameter sweep received an empty grid."""
