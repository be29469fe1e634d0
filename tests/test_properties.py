"""Magnitude properties: every numerical entry point, fed values from 1e-300
to 1.7e308 with either sign, returns a finite result or raises a named
RetrofluxError, and numpy warns about none of it.  A ValueError is allowed
only where the entry point documents an argument check."""

import re
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import retroflux as rf

_MAGNITUDES = [0.0, 1e-300, 1e-150, 1e-5, 0.3, 1.0, 7.0, 1e5, 1e100, 1e154, 1e200, 1e300, 1.7e308]

# the one strategy: a magnitude with a random sign
_REAL = st.tuples(st.sampled_from(_MAGNITUDES), st.booleans()).map(lambda m: -m[0] if m[1] else m[0])
_POSITIVE = _REAL.map(abs).filter(lambda x: x > 0.0)
_PARAMS = st.builds(rf.ModelParams, _REAL, _REAL, _REAL.map(abs))
_TIMES = st.lists(_REAL, min_size=1, max_size=6)


def _series(min_size=1):
    return st.lists(
        st.tuples(_REAL, _REAL), min_size=min_size, max_size=8, unique_by=lambda p: p[0]
    ).map(lambda points: rf.TimeSeries(*zip(*sorted(points))))


def _finite(values) -> bool:
    return bool(np.isfinite(np.asarray(values, dtype=float)).all())


def _named(call, argument_errors=()):
    """call(), or None when it raises a RetrofluxError or one of the given
    documented argument errors; numpy warnings fail the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call()
        except (rf.RetrofluxError, *argument_errors):
            return None


def _no_bad_number(svg) -> bool:
    return svg is None or re.search(r"\b(nan|inf)\b", svg) is None


@settings(max_examples=100, deadline=None)
@given(params=_PARAMS, t=_TIMES)
def test_eval_solution_and_derivative(params, t):
    for evaluate in (rf.eval_solution, rf.eval_solution_derivative):
        for times in (t, t[0]):
            out = _named(lambda: evaluate(params, times))
            assert out is None or _finite(out)


@settings(max_examples=100, deadline=None)
@given(params=_PARAMS, start=_REAL, horizon=_REAL, step=_REAL)
def test_forecast(params, start, horizon, step):
    # documented ValueError: a nonpositive horizon or step, or a step above the horizon
    documented = () if 0.0 < step <= horizon else (ValueError,)
    out = _named(lambda: rf.forecast(params, start, horizon, step), documented)
    if out is not None:
        influence, rate = out
        assert _finite(influence.values) and _finite(rate.values)


@settings(max_examples=100, deadline=None)
@given(
    params=_PARAMS,
    T=_POSITIVE,
    n=st.sampled_from([1, 2, 7, 50]),
    kappa=_POSITIVE,
    alpha=_REAL.map(abs),
    eta=st.one_of(st.none(), _REAL),
    tabulated=st.booleans(),
)
def test_integrate(params, T, n, kappa, alpha, eta, tabulated):
    if tabulated and eta is not None:
        eta = rf.TimeSeries([-T, T], [eta, -eta])
    forcing = rf.ForcingSpec(theta=rf.GoodwillSpec(kappa, alpha), eta=eta)
    for f in (None, forcing):
        out = _named(lambda: rf.integrate(params, f, T, T / n))
        assert out is None or _finite(out.values)


@settings(max_examples=100, deadline=None)
@given(series=_series(), scheme=st.sampled_from(["forward", "backward", "central"]))
def test_finite_difference(series, scheme):
    out = _named(lambda: rf.finite_difference(series, scheme))
    assert out is None or _finite(out.values)


@settings(max_examples=100, deadline=None)
@given(series=_series(), window=_POSITIVE)
def test_yearly_summary(series, window):
    rows = _named(lambda: rf.yearly_summary(series, window))
    for row in rows or ():
        assert _finite([row.window_start, row.mean, row.stddev])


@settings(max_examples=100, deadline=None)
@given(x=_series(), y=_series())
def test_correlate(x, y):
    out = _named(lambda: rf.correlate(x, y))
    assert out is None or _finite([out.slope, out.intercept, out.pearson])


@settings(max_examples=100, deadline=None)
@given(params=_PARAMS, t=_REAL)
def test_classify_and_dominance(params, t):
    assert _named(lambda: rf.classify_regime(params)) in (None, *rf.Regime)
    assert _named(lambda: rf.dominant_term(params, t)) in (None, *rf.Dominance)


@settings(max_examples=100, deadline=None)
@given(series=_series(min_size=4))
def test_fit(series):
    out = _named(lambda: rf.fit(series))
    # params are finite by construction; an rss beyond the doubles is
    # reported as inf by design, never as nan
    assert out is None or out.rss >= 0.0


@settings(max_examples=100, deadline=None)
@given(series=_series(), params=_PARAMS)
def test_render_lineplot(series, params):
    spec = rf.PlotSpec("t", "x", "y", (rf.PlotSeries("data", series),))
    assert _no_bad_number(_named(lambda: rf.render_lineplot(spec)))
    base = rf.ModelParams(0.8, 0.3, 1.0)
    assert _no_bad_number(_named(lambda: rf.render_sweep(base, "rate", [params], 7.0, 1.0)))


@settings(max_examples=100, deadline=None)
@given(series=_series())
def test_csv_round_trip(series):
    assert rf.load_timeseries_csv(rf.write_timeseries_csv(series)) == series

