"""Numerical solution of the forced time-reversed influence equation.

The extension p'(t) = a*p(t) + b*p(-t) + eta(t) + theta(t) has no closed form,
and the mirrored argument means the equation is not an initial-value problem
as written.  The mirror state q(t) = p(-t) turns it into one: y' = A y + G(t)
for y = (p, q), A = [[a, b], [-b, -a]], G(t) = (g(t), -g(-t)) with g all the
forcing, p(0) = q(0) = c, integrated forward on [0, T] by fixed-step RK4; p on
[-T, 0) is read off q, so the trajectory is reflection-consistent by design.

As A^2 = s*I (s = a^2 - b^2), an RK4 step is y_{k+1} = R y_k + f_k with
R = I + D, D = (h^2 s/2 + h^4 s^2/24) I + (h + h^3 s/6) A, and f_k fixed by
the forcing at the step's start, midpoint and end.  Only D is rounded: a
rounded R drifts by 3e-11 over 5*10^5 steps.  A two-level blocked scan
solves the recurrence: blocks of B ~ sqrt(n) steps run together from zero
(Z), block starts S advance by R^B, and sample j of a block is S + W_j S + Z
with W_j = R^j - I held as w0 I + w1 A.  B is capped so that ||R||^B <= 1e8,
which keeps every block finite while its start is below the overflow limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidStepError, OutOfRangeError, SolutionOverflowError
from .model import ModelParams, _as_time_array
from .series import TimeSeries

__all__ = [
    "ForcingSpec",
    "GoodwillSpec",
    "Trajectory",
    "eval_forcing",
    "goodwill_theta",
    "integrate",
]

_OVERFLOW_LIMIT = 1e300

# Largest step count T/h that integrate accepts, checked before allocating;
# a forced run peaks near 100 bytes per step, so about 1 GB at the limit.
MAX_STEPS = 10_000_000


def sample_grid(start: float, span: float, step: float) -> np.ndarray:
    """start + k*step for k = 0..floor(span/step + 1e-9); more than MAX_STEPS
    steps, a non-finite last point, or a step too small to keep the points
    apart raise InvalidStepError before allocating."""
    ratio = span / step
    if ratio > MAX_STEPS:
        raise InvalidStepError(f"span/step = {ratio:.3g} exceeds the limit of {MAX_STEPS}")
    steps = int(math.floor(ratio + 1e-9))
    end = start + step * steps
    if not math.isfinite(end):
        raise InvalidStepError(f"grid end {start!r} + {steps} * {step!r} is not finite")
    # two ulps of the largest point: its neighbours then round apart
    if steps and step < 2.0 * math.ulp(max(abs(start), abs(end))):
        raise InvalidStepError(f"step {step!r} does not separate grid points near {end!r}")
    return start + step * np.arange(steps + 1)


# Bound on ||R||^B for the scan's block length B (1e300 * 1e8 stays finite).
_BLOCK_GROWTH = 1e8


@dataclass(frozen=True)
class GoodwillSpec:
    """Publisher-goodwill forcing theta(t) = exp(-kappa*t) + alpha.

    kappa > 0 is the decay rate of the initial goodwill boost and alpha >= 0
    the floor it settles onto (zero means the goodwill fades out entirely).
    """

    kappa: float
    alpha: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.kappa) and self.kappa > 0):
            raise ValueError(f"kappa must be a finite positive rate, got {self.kappa!r}")
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError(f"alpha must be a finite nonnegative floor, got {self.alpha!r}")


@dataclass(frozen=True)
class ForcingSpec:
    """Additive forcing: optional goodwill theta plus a control term eta.

    eta may be absent, a constant, or a tabulated TimeSeries evaluated by
    linear interpolation.  A tabulated eta must explicitly cover every time it
    is queried at, including negative times reached through the mirror state;
    it is never reflected or extrapolated silently.
    """

    theta: GoodwillSpec | None = None
    eta: float | TimeSeries | None = None

    def __post_init__(self) -> None:
        if self.theta is not None and not isinstance(self.theta, GoodwillSpec):
            raise TypeError("theta must be a GoodwillSpec or None")
        if self.eta is None or isinstance(self.eta, TimeSeries):
            return
        eta = float(self.eta)
        if not math.isfinite(eta):
            raise ValueError(f"constant eta must be finite, got {self.eta!r}")
        object.__setattr__(self, "eta", eta)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Densely sampled solution: value k sits at time t0 + k*h exactly."""

    t0: float
    h: float
    values: np.ndarray

    def __post_init__(self) -> None:
        if not (math.isfinite(self.h) and self.h > 0):
            raise ValueError(f"step h must be positive, got {self.h!r}")
        if not math.isfinite(self.t0):
            raise ValueError(f"left endpoint t0 must be finite, got {self.t0!r}")
        v = np.array(self.values, dtype=float, copy=True).reshape(-1)
        if v.size == 0:
            raise ValueError("trajectory must hold at least one sample")
        if not np.all(np.isfinite(v)):
            raise ValueError("trajectory values must all be finite")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def times(self) -> np.ndarray:
        return self.t0 + self.h * np.arange(self.values.size)

    def __len__(self) -> int:
        return int(self.values.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return (
            self.t0 == other.t0
            and self.h == other.h
            and np.array_equal(self.values, other.values)
        )


def goodwill_theta(spec: GoodwillSpec, t):
    """Evaluate theta(t) = exp(-kappa*t) + alpha at scalar or array t."""
    return eval_forcing(ForcingSpec(theta=spec), t)


def eval_forcing(forcing: ForcingSpec | None, t):
    """Total forcing theta(t) + eta(t); absent components contribute zero.

    Raises OutOfRangeError when a tabulated eta does not cover t.
    """
    arr, scalar = _as_time_array(t)
    _check_eta_coverage(forcing, arr, "was queried outside it")
    out = _forcing_values(forcing or ForcingSpec(), arr)
    return float(out[0]) if scalar else out


def _check_eta_coverage(forcing: ForcingSpec | None, t, needed: str) -> None:
    if forcing is None or not isinstance(forcing.eta, TimeSeries):
        return
    lo, hi = forcing.eta.times[0], forcing.eta.times[-1]
    if lo > np.min(t, initial=math.inf) or hi < np.max(t, initial=-math.inf):
        raise OutOfRangeError(f"tabulated eta covers [{lo:.6g}, {hi:.6g}] but {needed}")


def _forcing_values(forcing: ForcingSpec, t: np.ndarray) -> np.ndarray:
    """theta(t) + eta(t) at finite times that a tabulated eta covers."""
    out = np.zeros_like(t)
    if forcing.theta is not None:
        with np.errstate(over="ignore"):
            out += np.exp(-forcing.theta.kappa * t) + forcing.theta.alpha
        if not np.all(np.isfinite(out)):
            raise SolutionOverflowError("goodwill term overflows at strongly negative times")
    if isinstance(forcing.eta, TimeSeries):
        out += np.interp(t, forcing.eta.times, forcing.eta.values)
    elif forcing.eta is not None:
        out += forcing.eta
    return out


def _forcing_steps(forcing: ForcingSpec, grid: np.ndarray, h: float, a: float, b: float):
    """Forcing f_k of every RK4 step, shape (2, n), from G = (g(t), -g(-t))."""
    mid = 0.5 * (grid[:-1] + grid[1:])
    gf = np.stack([_forcing_values(forcing, grid), -_forcing_values(forcing, -grid)])
    gh = np.stack([_forcing_values(forcing, mid), -_forcing_values(forcing, -mid)])
    hs = h * h * (a * a - b * b)
    x = (h + h * hs / 4.0) * gf[:, :-1] + 2.0 * h * gh
    f = (1.0 + hs / 2.0) * gf[:, :-1] + (4.0 + hs / 2.0) * gh + gf[:, 1:]
    f[0] += a * x[0] + b * x[1]
    f[1] -= b * x[0] + a * x[1]
    f *= h / 6.0
    return f


def _scan(a: float, b: float, c: float, h: float, n: int, f: np.ndarray | None):
    """States y_0..y_n of y_{k+1} = R y_k + f_k, y_0 = (c, c), shape (2, n+1)."""
    if c == 0.0 and f is None:  # stays zero, even where D overflows and inf * 0 is nan
        return np.zeros((2, n + 1))
    s = a * a - b * b
    hs = h * h * s
    d0, d1 = hs / 2.0 + hs * hs / 24.0, h + h * hs / 6.0  # D = d0 I + d1 A
    A = np.array([[a, b], [-b, -a]])
    rho = abs(1.0 + d0) + abs(d1) * (abs(a) + abs(b))  # >= ||R||_2
    cap = math.log(_BLOCK_GROWTH) / math.log(rho) if rho > 1.0 else n
    B = max(1, min(math.isqrt(n), int(cap)))
    m = -(-(n + 1) // B)

    w0, w1 = [0.0], [0.0]  # W_{j+1} = W_j + D + D W_j
    for _ in range(B):
        x0, x1 = w0[-1], w1[-1]
        w0.append(x0 + d0 + (d0 * x0 + d1 * x1 * s))
        w1.append(x1 + d1 + (d0 * x1 + d1 * x0))

    Z = np.zeros((B + 1, 2, m))
    if f is not None:
        F = np.pad(f, ((0, 0), (0, m * B - n))).reshape(2, m, B).transpose(2, 0, 1)
        D = d0 * np.eye(2) + d1 * A
        for j in range(B):
            np.matmul(D, Z[j], out=Z[j + 1])
            Z[j + 1] += Z[j]
            Z[j + 1] += F[j]

    S = [(c, c)]
    for zp, zq in Z[B, :, : m - 1].T.tolist():
        sp, sq = S[-1]
        ap, aq = a * sp + b * sq, -(b * sp + a * sq)
        S.append((sp + (w0[B] * sp + w1[B] * ap) + zp, sq + (w0[B] * sq + w1[B] * aq) + zq))

    S = np.array(S).T[:, :, None]
    Y = S * np.array(w0[:B])
    Y += (A @ S[:, :, 0])[:, :, None] * np.array(w1[:B])
    Y += S
    if f is not None:
        Y += Z[:B].transpose(1, 2, 0)
    return Y.reshape(2, m * B)[:, : n + 1]


def integrate(
    params: ModelParams,
    forcing: ForcingSpec | None,
    T: float,
    h: float,
) -> Trajectory:
    """Solve the (optionally forced) influence equation on [-T, T].

    The step is adjusted to the nearest exact divisor of T so the grid lands
    on both endpoints; the returned Trajectory reports the adjusted step.
    For zero forcing the result matches the closed form to RK4 accuracy.
    More than MAX_STEPS steps raise InvalidStepError before any allocation.
    """
    if not (math.isfinite(2.0 * T) and T > 0):  # the grid spans 2T
        raise InvalidStepError(f"horizon T must be positive with 2T finite, got {T!r}")
    if not (math.isfinite(h) and 0 < h <= T):
        raise InvalidStepError(f"step h must satisfy 0 < h <= T, got {h!r}")
    if T / h >= MAX_STEPS + 0.5:
        raise InvalidStepError(f"T/h = {T / h:.3g} steps exceeds the limit of {MAX_STEPS}")
    needed = f"integration needs [-{T:.6g}, {T:.6g}] (mirror state evaluates eta at -t)"
    _check_eta_coverage(forcing, (-T, T), needed)

    n = max(1, round(T / h))
    h = T / n
    a, b = params.a, params.b
    f = None
    with np.errstate(over="ignore", invalid="ignore"):  # the check below names an overflow
        if forcing is not None and (forcing.theta is not None or forcing.eta is not None):
            # linspace pins both endpoints exactly, so tabulated forcing declared
            # on [-T, T] is never queried an ulp outside its own range
            f = _forcing_steps(forcing, np.linspace(0.0, T, n + 1), h, a, b)
        P, Q = _scan(a, b, params.c, h, n, f)
        ok = np.abs(P[1:]) < _OVERFLOW_LIMIT
        ok &= np.abs(Q[1:]) < _OVERFLOW_LIMIT
    if not ok.all():
        raise SolutionOverflowError(
            f"solution magnitude exceeded {_OVERFLOW_LIMIT:.0e} at "
            f"t={h * (np.argmin(ok) + 1):.6g}; shrink the horizon"
        )

    # p(-t) = q(t): prepend the reflected mirror state to cover [-T, 0).
    values = np.concatenate([Q[1:][::-1], P])
    return Trajectory(t0=-T, h=h, values=values)
