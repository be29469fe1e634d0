"""Closed-form solutions of the time-reversed influence equation.

The model couples the growth rate of an influence score to its value at the
mirrored time:

    p'(t) = a*p(t) + b*p(-t),    p(0) = c.

Differentiating once (and minding the sign of d/dt p(-t) = -p'(-t)) reduces
this to p''(t) = (a^2 - b^2) * p(t), so the discriminant s = a^2 - b^2 selects
the solution family: exponential for s > 0, linear for s = 0, trigonometric
for s < 0.  All three regimes are evaluated through one pair of kernels

    V(s, t) = cosh(sqrt(s)*t)        U(s, t) = sinh(sqrt(s)*t)/sqrt(s)   (s > 0)
            = cos(w*t)                       = sin(w*t)/w, w = sqrt(-s)  (s < 0)
            = 1                              = t                         (s = 0)

with p(t) = c*V(s, t) + (a+b)*c*U(s, t).  V is even and U is odd in t, which
makes the identity p'(t) = a*p(t) + b*p(-t) hold exactly in every regime.
A truncated Taylor series replaces V and U near s = 0 so that evaluation is
smooth in s across the regime boundary; fitting code differentiates through
this point.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import AsymmetricDomainError, NotExponentialError, SolutionOverflowError

if TYPE_CHECKING:
    from .integrator import Trajectory

__all__ = [
    "REGIME_TOL",
    "Coefficients",
    "Discriminant",
    "ModelParams",
    "Regime",
    "discriminant",
    "eval_solution",
    "eval_solution_derivative",
    "fde_residual",
    "solution_coefficients",
]

# exp/cosh overflow double precision just above this argument
_MAX_EXP_ARG = 709.0

# below this |s * t^2| the series expansion of V and U is used
_SERIES_CUTOFF = 1e-8

# default relative half-width of the band around s = 0 treated as linear
REGIME_TOL = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """Weights of the influence equation p'(t) = a*p(t) + b*p(-t).

    a: weight of the current influence p(t), per unit time.
    b: weight of the historical (mirrored) influence p(-t), per unit time.
    c: initial influence p(0), a nonnegative score.
    """

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "c"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.c < 0:
            raise ValueError(f"initial influence c must be >= 0, got {self.c!r}")


@dataclass(frozen=True)
class Discriminant:
    """Sign selector s = a^2 - b^2 and its associated rate sqrt(|s|)."""

    s: float
    rate: float


@dataclass(frozen=True)
class Coefficients:
    """Exponential-regime coefficients of p(t) = w1*e^{rt} + w2*e^{-rt}."""

    w1: float
    w2: float
    r: float


class Regime(enum.Enum):
    """Qualitative solution family, keyed by the sign of the discriminant."""

    LINEAR = "Linear"
    EXPONENTIAL = "Exponential"
    OSCILLATORY = "Oscillatory"


def _s(params: ModelParams) -> float:
    """s = a^2 - b^2, or SolutionOverflowError where it leaves the doubles
    (a^2 overflows, or inf - inf is nan) and no solution can be evaluated."""
    s = params.a * params.a - params.b * params.b
    if not math.isfinite(s):
        raise SolutionOverflowError(
            f"discriminant a^2 - b^2 of a={params.a!r}, b={params.b!r} overflows"
        )
    return s


def discriminant(params: ModelParams) -> Discriminant:
    """Return s = a^2 - b^2 and rate = sqrt(|s|).

    The rate is the exponential growth constant r when s > 0 and the angular
    frequency w when s < 0.  Note the order: a enters positively.  Substituting
    p = w1*e^{rt} + w2*e^{-rt} into the influence equation forces
    r^2 = a^2 - b^2 (the mirrored term contributes -b^2 through the chain
    rule), so real exponential growth requires |a| > |b|.
    """
    s = _s(params)
    return Discriminant(s=s, rate=math.sqrt(abs(s)))


def _linear_halfwidth(params: ModelParams, tol: float) -> float:
    """Half-width of the |s| band classified as linear, scaled so the
    classification is stable under rescaling of (a, b)."""
    return tol * (1.0 + params.a * params.a + params.b * params.b)


def solution_coefficients(params: ModelParams, tol: float = REGIME_TOL) -> Coefficients:
    """Coefficients (w1, w2, r) of the exponential closed form.

    Applying p(0) = c and p'(0) = (a+b)*c to p = w1*e^{rt} + w2*e^{-rt} gives

        w1 = (c/2r)*(r + a + b)      w2 = (c/2r)*(r - a - b)

    so w1 + w2 = c exactly; w2 is computed as c - w1 so the sum rule holds to
    one rounding unit even when the two terms nearly cancel.  Raises
    NotExponentialError when the discriminant is not strictly above the
    linear band; callers should fall back to eval_solution, which is
    regime-stable.
    """
    s = _s(params)
    if s <= _linear_halfwidth(params, tol):
        raise NotExponentialError(
            f"discriminant s={s:.6g} is not strictly positive; "
            "no real exponential coefficient pair exists"
        )
    r = math.sqrt(s)
    m = params.a + params.b
    w1 = params.c / (2.0 * r) * (r + m)
    return Coefficients(w1=w1, w2=params.c - w1, r=r)


def _kernels(s: float, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the even/odd kernel pair (V, U) elementwise over t.

    Elements with |s*t^2| below the series cutoff use the Taylor expansions
    in x = s*t^2, V = 1 + x/2 + x^2/24 and U = t*(1 + x/6 + x^2/120), which
    keep the pair smooth in s through s = 0 and free of 0/0 (and of inf*0
    where s^2 alone would overflow).
    """
    # |s*t^2| < cutoff, tested on |t| so that no product overflows
    small = np.abs(t) < (math.sqrt(_SERIES_CUTOFF) / math.sqrt(abs(s)) if s else math.inf)
    V = np.empty_like(t)
    U = np.empty_like(t)
    if small.any():
        ts = t[small]
        x = s * ts * ts  # 0 at s = 0 for any t, where ts * ts could be inf
        V[small] = 1.0 + x / 2.0 + x * x / 24.0
        U[small] = ts * (1.0 + x / 6.0 + x * x / 120.0)
    exact = ~small
    if exact.any():
        root = math.sqrt(abs(s))
        reach = float(np.abs(t[exact]).max()) * root  # max |x|, inf past the doubles
        if (s > 0 and reach > _MAX_EXP_ARG) or reach == math.inf:
            raise SolutionOverflowError(
                f"exponent {reach:.3g} exceeds the representable "
                "range; shrink the horizon or the rate"
            )
        x = root * t[exact]
        if s > 0:
            V[exact] = np.cosh(x)
            U[exact] = np.sinh(x) / root
        else:
            V[exact] = np.cos(x)
            U[exact] = np.sin(x) / root
    return V, U


def _kernel_ds(s: float, t: np.ndarray, V: np.ndarray, U: np.ndarray) -> np.ndarray:
    """dU/ds = (t*V - U)/(2s) from (V, U) = _kernels(s, t); dV/ds is t*U/2.
    Where |s*t^2| < 1e-2, a five-term series in x = s*t^2 avoids the
    cancellation and the 0/0 at s = 0."""
    x = s * t * t
    small = np.abs(x) < 1e-2
    dU = np.empty_like(t)
    xs, ts = x[small], t[small]
    series = 1 / 6 + xs * (1 / 60 + xs * (1 / 1680 + xs * (1 / 90720 + xs / 7983360)))
    dU[small] = ts**3 * series
    dU[~small] = (t[~small] * V[~small] - U[~small]) / (2.0 * s)
    return dU


def _as_time_array(t) -> tuple[np.ndarray, bool]:
    arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("time values must be finite")
    return np.atleast_1d(arr), arr.ndim == 0


def _evaluate(params: ModelParams, t):
    """(p, p') at t from one kernel pass; either may be inf or nan, unwarned,
    so callers pass the half they return through _finite."""
    arr, scalar = _as_time_array(t)
    s = _s(params)
    c, m = params.c, params.a + params.b
    V, U = _kernels(s, arr)
    with np.errstate(over="ignore", invalid="ignore"):
        p, dp = c * V + m * c * U, c * s * U + m * c * V
    return (float(p[0]), float(dp[0])) if scalar else (p, dp)


def _finite(values, name: str):
    """values, or SolutionOverflowError if any of them left the doubles."""
    if not np.isfinite(values).all():
        raise SolutionOverflowError(f"{name} is not representable at some of the times")
    return values


def eval_solution(params: ModelParams, t):
    """Influence p(t) at one or many times (negative t is allowed).

    Accepts a scalar or an array of times and returns the matching shape.
    Raises SolutionOverflowError when the kernel argument sqrt(|s|)*t or
    p itself leaves the representable range.
    """
    return _finite(_evaluate(params, t)[0], "p(t)")


def eval_solution_derivative(params: ModelParams, t):
    """Rate of change p'(t) = c*s*U(s,t) + (a+b)*c*V(s,t).

    Because V is even and U is odd, this equals a*p(t) + b*p(-t) identically,
    which is the correctness oracle used throughout the test suite.  Raises
    SolutionOverflowError where p'(t) leaves the representable range.
    """
    return _finite(_evaluate(params, t)[1], "p'(t)")


def fde_residual(params: ModelParams, trajectory: "Trajectory") -> float:
    """Max absolute defect of a sampled trajectory against the influence equation.

    The trajectory must cover a symmetric interval [-T, T] on a uniform grid;
    the derivative is approximated by central differences and the mirrored
    value p(-t) is read off the reflected grid.  The result is zero up to
    O(h^2) truncation exactly when the trajectory solves the unforced
    equation, so it certifies candidate solutions independently of how they
    were produced.
    """
    v = np.asarray(trajectory.values, dtype=float)
    n = v.size
    if n < 3:
        raise AsymmetricDomainError("need at least 3 samples to form a residual")
    t0 = trajectory.t0
    h = trajectory.h
    t_end = t0 + (n - 1) * h
    span = max(1.0, abs(t0), abs(t_end))
    if abs(t0 + t_end) > 1e-9 * span:
        raise AsymmetricDomainError(
            f"grid [{t0:.6g}, {t_end:.6g}] is not symmetric about 0"
        )
    centered = (v[2:] - v[:-2]) / (2.0 * h)
    mirrored = v[::-1]
    rhs = params.a * v[1:-1] + params.b * mirrored[1:-1]
    return float(np.max(np.abs(centered - rhs)))
