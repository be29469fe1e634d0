"""Regime classification, term dominance, correlation and windowed summaries."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidStepError,
    SolutionOverflowError,
    TooFewAlignedPointsError,
    ZeroVarianceError,
)
from .integrator import MAX_STEPS
from .model import (
    REGIME_TOL,
    ModelParams,
    Regime,
    _linear_halfwidth,
    _s,
    solution_coefficients,
)
from .series import TimeSeries

__all__ = [
    "CorrelationResult",
    "Dominance",
    "SummaryRow",
    "classify_regime",
    "correlate",
    "dominant_term",
    "yearly_summary",
]

# times are rounded to this grid before exact-key alignment
_ALIGN_QUANTUM = 1e-9


@dataclass(frozen=True)
class CorrelationResult:
    """Ordinary least squares of y on x over the aligned pairs."""

    slope: float
    intercept: float
    pearson: float
    n: int


@dataclass(frozen=True)
class SummaryRow:
    """Per-window mean, population stddev, and points beyond two sigma."""

    window_start: float
    mean: float
    stddev: float
    outliers: tuple[tuple[float, float], ...]


class Dominance(enum.Enum):
    """Which exponential term carries the solution at a given time."""

    GROWING_TERM = "growing_term"
    DECAYING_TERM = "decaying_term"
    BALANCED = "balanced"


def classify_regime(params: ModelParams, tol: float = REGIME_TOL) -> Regime:
    """Solution family from the sign of s = a^2 - b^2.

    |s| within tol*(1 + a^2 + b^2) of zero counts as linear; the relative
    scaling keeps the classification stable when (a, b) are rescaled.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive, got {tol!r}")
    s = _s(params)
    band = _linear_halfwidth(params, tol)
    if abs(s) <= band:
        return Regime.LINEAR
    return Regime.EXPONENTIAL if s > 0 else Regime.OSCILLATORY


def dominant_term(params: ModelParams, t: float) -> Dominance:
    """Compare |w1*e^{rt}| against |w2*e^{-rt}| at time t.

    Works in log space so the comparison survives times where either term
    overflows.  The terms are balanced when they agree to 1e-9 relative,
    which happens at the single crossover ln(|w2|/|w1|)/(2r) when both
    coefficients are nonzero.  Raises NotExponentialError outside the
    exponential regime.
    """
    coeffs = solution_coefficients(params)
    w1, w2, r = abs(coeffs.w1), abs(coeffs.w2), coeffs.r
    if w1 == 0.0 and w2 == 0.0:
        return Dominance.BALANCED
    if w1 == 0.0:
        return Dominance.DECAYING_TERM
    if w2 == 0.0:
        return Dominance.GROWING_TERM
    gap = (math.log(w1) + r * t) - (math.log(w2) - r * t)
    if abs(gap) <= 1e-9:
        return Dominance.BALANCED
    return Dominance.GROWING_TERM if gap > 0 else Dominance.DECAYING_TERM


def correlate(x: TimeSeries, y: TimeSeries) -> CorrelationResult:
    """Least-squares line and Pearson coefficient over time-aligned pairs.

    Pairs are matched on exact time keys after rounding both series' times
    to 1e-9; no interpolation is performed.  Raises SolutionOverflowError
    when a time is too large for that grid and ZeroVarianceError when the
    aligned x values are constant.  If the y values are constant the
    slope is 0 and pearson is reported as 0.0 (the coefficient is undefined
    there).
    """
    def keys(series: TimeSeries) -> tuple[np.ndarray, np.ndarray]:
        with np.errstate(over="ignore"):
            grid = np.rint(series.times / _ALIGN_QUANTUM)
        beyond = ~np.isfinite(grid)
        if beyond.any():
            t = float(series.times[beyond.argmax()])
            raise SolutionOverflowError(
                f"time {t!r} overflows the {_ALIGN_QUANTUM!r} alignment grid"
            )
        # times increase, so repeated keys are adjacent; the last one wins
        last = np.append(grid[1:] != grid[:-1], True)
        return grid[last], series.values[last]

    xk, xvalues = keys(x)
    yk, yvalues = keys(y)
    shared, xi, yi = np.intersect1d(xk, yk, assume_unique=True, return_indices=True)
    if len(shared) < 2:
        raise TooFewAlignedPointsError(
            f"need at least 2 aligned time points, got {len(shared)}"
        )
    xv = xvalues[xi]
    yv = yvalues[yi]
    n = len(shared)
    with np.errstate(all="ignore"):
        xm, ym = xv.mean(), yv.mean()
        dx, dy = xv - xm, yv - ym
        # deviations divided by their largest magnitude, so that no dot
        # product overflows or underflows
        sx, sy = float(np.abs(dx).max()), float(np.abs(dy).max())
        if sx == 0.0:
            raise ZeroVarianceError("x is constant over the aligned pairs")
        dx /= sx
        dy /= sy if sy > 0.0 else 1.0
        var_x, var_y, cov = float(dx @ dx), float(dy @ dy), float(dx @ dy)
        slope = cov / var_x * (sy / sx)
        intercept = float(ym - slope * xm)
    pearson = cov / math.sqrt(var_x * var_y) if var_y > 0.0 else 0.0
    if not all(map(math.isfinite, (slope, intercept, pearson))):
        raise SolutionOverflowError(
            f"correlation is not representable (slope={slope!r}, "
            f"intercept={intercept!r}, pearson={pearson!r})"
        )
    return CorrelationResult(slope=slope, intercept=intercept, pearson=pearson, n=n)


def yearly_summary(series: TimeSeries, window: float) -> list[SummaryRow]:
    """Windowed means, stddevs and 2-sigma outliers.

    Consecutive windows of the given width start at the first observation
    time; each point belongs to exactly one window and empty windows are
    omitted.  A point (t, v) is flagged as an outlier of its window when
    |v - mean| > 2 * stddev (population stddev).
    """
    if not (math.isfinite(window) and window > 0):
        raise ValueError(f"window must be positive, got {window!r}")
    t0 = float(series.times[0])
    ratio = (float(series.times[-1]) - t0) / window
    if ratio > MAX_STEPS:
        raise InvalidStepError(f"span/window = {ratio:.3g} exceeds the limit of {MAX_STEPS}")
    index = np.floor((series.times - t0) / window).astype(int)
    # times increase, so each window is one contiguous run of the index
    lows = [0, *(np.flatnonzero(np.diff(index)) + 1).tolist()]
    highs = [*lows[1:], index.size]
    # each window's values divided by 2^k, k from frexp of its largest
    # magnitude, so no moment overflows; a power of two scales back exactly
    _, exponents = np.frexp(np.maximum.reduceat(np.abs(series.values), lows))
    scaled = np.ldexp(series.values, np.repeat(-exponents, np.subtract(highs, lows)))
    rows = []
    for lo, hi, k in zip(lows, highs, exponents.tolist()):
        sw = scaled[lo:hi]
        mean, stddev = float(sw.mean()), float(sw.std())
        flagged = np.abs(sw - mean) > 2.0 * stddev
        tw, vw = series.times[lo:hi][flagged], series.values[lo:hi][flagged]
        rows.append(
            SummaryRow(
                window_start=t0 + int(index[lo]) * window,
                mean=math.ldexp(mean, k),
                stddev=math.ldexp(stddev, k),
                outliers=tuple(zip(tw.tolist(), vw.tolist())),
            )
        )
    return rows
