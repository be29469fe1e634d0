"""Parameter estimation for the time-reversed influence model.

The pipeline mirrors how the model is meant to be used on observed influence
series: estimate derivatives by finite differences, turn growth heuristics
into starting parameters, then refine them by least squares.

The solution p = c*V(s,t) + (a+b)*c*U(s,t) is linear in alpha = c and
beta = (a+b)*c, so s = a^2 - b^2 is its only nonlinear parameter (variable
projection; Golub & Pereyra 1973, Kaufman 1975).  At each trial s, linear
least squares on the columns [V, U] gives (alpha, beta); a scalar
Levenberg-Marquardt iteration on s follows Kaufman's projected Jacobian with
the analytic kernel derivatives.  Values are fitted divided by max|v|, so any
magnitude works.  The (a, b) split follows from m = a + b = beta/alpha and
s = m*(a - b), except at m = 0, where the solution is constant and a - b is
reported as 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import (
    DegenerateSeriesError,
    SingularNormalEquationsError,
    SolutionOverflowError,
    TooFewPointsError,
)
from .integrator import sample_grid
from .model import ModelParams, _evaluate, _finite, _kernel_ds, _kernels, eval_solution
from .series import TimeSeries

__all__ = [
    "FitOptions",
    "FitResult",
    "finite_difference",
    "fit",
    "forecast",
    "seed_parameters",
]

_MAX_DAMPING = 1e12


@dataclass(frozen=True)
class FitOptions:
    """Knobs of the damped least-squares iteration on s.  step_tolerance bounds
    the undamped Gauss-Newton step (relative to 1 + |s|) and its predicted rss
    reduction (relative to the rss)."""

    max_iterations: int = 100
    gradient_tolerance: float = 1e-13
    step_tolerance: float = 1e-12
    initial_damping: float = 1e-3

    def __post_init__(self) -> None:
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        for name in ("gradient_tolerance", "step_tolerance", "initial_damping"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a positive real, got {value!r}")


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters plus convergence diagnostics.

    rss is recomputable from params as sum((v_i - p(t_i))^2); rss_history
    records every accepted iterate and is non-increasing by construction.
    """

    params: ModelParams
    rss: float
    iterations: int
    converged: bool
    seed: ModelParams
    message: str = ""
    rss_history: tuple[float, ...] = ()


Scheme = Literal["forward", "backward", "central"]
_SCHEMES = {"forward": (0, 1), "backward": (1, 1), "central": (1, 2)}


def finite_difference(series: TimeSeries, scheme: Scheme = "central") -> TimeSeries:
    """Derivative estimates from neighbouring samples.

    forward is defined at all but the last point, backward at all but the
    first, central at interior points only.  Non-uniform spacing is handled
    by dividing by the actual local gap.  A gap or quotient beyond the
    doubles raises SolutionOverflowError.
    """
    if scheme not in _SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    first, gap = _SCHEMES[scheme]  # the first point estimated, and the index gap
    t, v = series.times, series.values
    if t.size <= gap:
        raise TooFewPointsError(f"{scheme} differences need at least {gap + 1} points")
    with np.errstate(over="ignore", invalid="ignore"):
        dt = t[gap:] - t[:-gap]
        rate = (v[gap:] - v[:-gap]) / dt
    if not (np.isfinite(dt).all() and np.isfinite(rate).all()):
        raise SolutionOverflowError(f"a {scheme} difference quotient leaves the double range")
    return TimeSeries(t[first : first + rate.size], rate)


def seed_parameters(series: TimeSeries) -> ModelParams:
    """Heuristic starting triple (a, b, c) for the least-squares fit.

    c seeds from the earliest nonnegative-time observation, an exponential
    rate r0 from the log-ratio of the last two positive values, and
    m0 = a + b from a central-difference estimate of p'/p near the start.
    The identity s = (a+b)(a-b) then splits the pair via d0 = r0^2 / m0.
    Observations at negative times are ignored (the heuristics anchor at
    t = 0), so seeding works unchanged on symmetric simulation output.
    """
    keep = series.times >= 0.0
    t = series.times[keep]
    v = series.values[keep]
    if t.size < 4:
        raise TooFewPointsError(
            f"seeding needs at least 4 points at t >= 0, got {t.size}"
        )
    if np.all(v == 0.0):
        raise DegenerateSeriesError("all observed values are zero")

    c0 = max(float(v[0]), 1e-8)

    positive = np.flatnonzero(v > 0.0)
    # values beyond the doubles are 0 or inf here, and _from_mdc names them
    with np.errstate(all="ignore"):
        # no rate from one positive value, or from a ratio that is 0 or inf
        ratio = v[positive[-1]] / v[positive[-2]] if positive.size >= 2 else 0.0
        r0 = math.log(ratio) / (t[positive[-1]] - t[positive[-2]]) if 0 < ratio < math.inf else 0.0

        if abs(v[1]) > 1e-12:
            m0 = (v[2] - v[0]) / (t[2] - t[0]) / v[1]
        else:
            # no usable p'/p ratio at the start; assume the pure-exponential
            # split (b = 0, a = r0), which is self-consistent with s = r0^2
            m0 = r0

        d0 = r0 * r0 / m0 if abs(m0) > 1e-8 else 0.0
        return _from_mdc(m0, d0, c0)


def _from_mdc(m, d, c) -> ModelParams:
    """(a, b, c) from (a + b, a - b, c); SolutionOverflowError if a or b is not finite."""
    a, b = float(0.5 * (m + d)), float(0.5 * (m - d))
    if not (math.isfinite(a) and math.isfinite(b)):
        raise SolutionOverflowError(f"a + b = {m:.6g} and a - b = {d:.6g} give no finite a, b")
    return ModelParams(a=a, b=b, c=float(c))


def _profile(s: float, t: np.ndarray, w: np.ndarray):
    """(alpha, beta, rss, g, A) at fixed s, or None if the kernels overflow or
    are dependent.  (alpha, beta) fit w by alpha*V + beta*U in least squares;
    g = J.r and A = J.J use Kaufman's projected Jacobian
    J = (I - P)(alpha*t*U/2 + beta*dU/ds), P the projection onto span[V, U]."""
    try:
        V, U = _kernels(s, t)
    except SolutionOverflowError:
        return None
    with np.errstate(all="ignore"):
        # columns divided by their max first, so no square overflows
        col_max = np.array([np.abs(V).max(), np.abs(U).max()])
        Q, R = np.linalg.qr(np.column_stack((V, U)) / col_max)
        k = Q.T @ w
        try:
            alpha, beta = np.linalg.solve(R, k) / col_max
        except np.linalg.LinAlgError:
            return None
        r = w - Q @ k
        J = alpha * t * U / 2.0 + beta * _kernel_ds(s, t, V, U)
        J -= Q @ (Q.T @ J)
        out = float(alpha), float(beta), float(r @ r), float(J @ r), float(J @ J)
    return out if all(map(math.isfinite, out[:3])) else None


def _minimize(s: float, t: np.ndarray, w: np.ndarray, options: FitOptions):
    """Scalar Levenberg-Marquardt on s over the profile; never accepts an
    rss increase.  The stopping tests use the undamped Gauss-Newton step
    g/A, so a heavily damped step cannot end the iteration."""
    current = _profile(s, t, w)
    if current is None:
        raise SingularNormalEquationsError("seed parameters overflow the model")
    lam = options.initial_damping
    history = [current[2]]
    converged, iterations = False, 0
    for iterations in range(1, options.max_iterations + 1):
        _, _, rss, g, A = current
        if not (math.isfinite(g) and math.isfinite(A)):
            raise SingularNormalEquationsError(
                "model is not linearizable at the current iterate "
                "(Jacobian overflow)"
            )
        if (
            abs(g) <= options.gradient_tolerance * (1.0 + rss)
            or abs(g) <= options.step_tolerance * (1.0 + abs(s)) * A
            or g * g <= options.step_tolerance * rss * A
        ):
            converged = True
            break
        while lam <= _MAX_DAMPING:
            trial = s + g / (A * (1.0 + lam))
            candidate = _profile(trial, t, w)
            if candidate is not None and candidate[2] <= rss:
                s, current = trial, candidate
                history.append(candidate[2])
                lam = max(lam * 0.1, 1e-14)
                break
            lam *= 10.0
        else:
            raise SingularNormalEquationsError(
                f"damping exhausted at lambda={lam:.3g} after {iterations} "
                f"iterations (rss={rss:.6g})"
            )
    return s, current, iterations, converged, history


def fit(
    series: TimeSeries,
    seed: ModelParams | None = None,
    options: FitOptions | None = None,
) -> FitResult:
    """Fit (a, b, c) to an observed influence series by least squares.

    With seed=None the heuristic seed_parameters starter is used; when its
    basin misses the optimum (oscillatory data seeded on the wrong side of
    s = 0 can do this) the fit deterministically retries from mirrored and
    canonical starting points and keeps the lowest-rss outcome.  Only
    s = a^2 - b^2 of a start enters the iteration.  The best parameters
    found are returned even when converged is False; a best fit that needs
    c < 0 is reported with c = 0 and converged False.
    """
    if len(series) < 4:
        raise TooFewPointsError(
            f"fitting 3 parameters needs at least 4 points, got {len(series)}"
        )
    options = options or FitOptions()
    seed_given = seed is not None
    seed = seed if seed_given else seed_parameters(series)

    t, v = series.times, series.values
    scale = float(np.abs(v).max()) or 1.0
    w = v / scale

    starts = [seed]
    if not seed_given:
        # mirrored-s and mild canonical starters; tried only while the fit
        # quality stays poor, so round trips from a good seed cost nothing
        m0, d0, c0 = seed.a + seed.b, seed.a - seed.b, seed.c
        starts += [
            _from_mdc(m0, -d0 if d0 != 0.0 else -1.0, c0),
            _from_mdc(m0, 0.0, c0),
            _from_mdc(0.5, -0.5, c0),
        ]
        # last, s from p'' = s*p on second differences, for oscillations
        # outside the basins of the starts above
        with np.errstate(all="ignore"):
            p2 = 2.0 * np.diff(np.diff(w) / np.diff(t)) / (t[2:] - t[:-2])
            s2 = float(p2 @ w[1:-1] / (w[1:-1] @ w[1:-1]))
        starts += [_from_mdc(1.0, s2, c0)] if math.isfinite(s2) else []

    # rss <= 1e-6 * (spread + 1) in the data's units, written for w = v/scale
    good_enough = 1e-6 * (float(np.sum((w - w.mean()) ** 2)) + 1.0 / scale / scale)

    best = None
    for position, start in enumerate(starts):
        try:
            outcome = _minimize((start.a + start.b) * (start.a - start.b), t, w, options)
        except SingularNormalEquationsError:
            if best is None and position == len(starts) - 1:
                raise
            continue
        # a start that needs c < 0 is reported at c = 0, whose rss is w.w
        c, _, rss, _, _ = outcome[1]
        rss = rss if c >= 0.0 else float(w @ w)
        if best is None or rss < best[0]:
            best = (rss, outcome, start)
        if best[0] <= good_enough:
            break

    _, (s, (c, beta, *_), iterations, converged, history), seed_used = best
    m = beta / c if c else 0.0
    message = ""
    if c < 0.0:
        converged, message = False, "the best fit needs c < 0: reported c = 0"
    if abs(m) < 1e-12:
        # constant-solution degenerate case: s carries no signal, so the
        # (a, b) split is undetermined; report the symmetric one
        m = d = 0.0
        message = message or "a+b ~ 0: constant solution, a-b undetermined (reported 0)"
    else:
        d = s / m
    fitted = _from_mdc(m, d, c * scale if c > 0.0 else 0.0)  # never -0.0
    with np.errstate(over="ignore"):  # data near 1e154 and up can square to inf
        final_rss = float(np.sum((v - eval_solution(fitted, t)) ** 2))
    return FitResult(
        params=fitted,
        rss=final_rss,
        iterations=iterations,
        converged=converged,
        seed=seed_used,
        message=message,
        rss_history=tuple(h * scale * scale for h in history),
    )


def forecast(
    params: ModelParams,
    from_t: float,
    horizon: float,
    step: float,
) -> tuple[TimeSeries, TimeSeries]:
    """Influence and rate-of-change forecasts on (from_t, from_t + horizon].

    Both series share the grid from_t + k*step, k = 1..floor(horizon/step);
    horizon/step above MAX_STEPS raises InvalidStepError, and a p or p' that
    leaves the doubles raises SolutionOverflowError.
    """
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be positive, got {horizon!r}")
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be positive, got {step!r}")
    times = sample_grid(from_t, horizon, step)[1:]
    if times.size == 0:
        raise ValueError("horizon admits no forecast point at this step")
    p, dp = _evaluate(params, times)
    return TimeSeries(times, _finite(p, "p(t)")), TimeSeries(times, _finite(dp, "p'(t)"))
