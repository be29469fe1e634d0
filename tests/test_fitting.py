"""Finite differences, seeding, damped least squares, and forecasting."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

import retroflux as rf
from retroflux.model import _kernels

RNG_SEED = 20260809


def _reference_fit(series):
    """The original fitter, kept as an oracle for the variable-projection fit.

    Damped least squares on (m, d, c) = (a+b, a-b, c) with a central-difference
    Jacobian, c >= 0 step projection and a damped-step stop, from the same
    four starts and with the same early exit.  Returns the rss of the best
    fit, recomputed through eval_solution (inf when every start fails).
    """
    t, v = series.times, series.values

    def residual(theta):
        m, d, c = theta
        try:
            V, U = _kernels(m * d, t)
        except rf.SolutionOverflowError:
            return None, math.inf
        r = v - c * (V + m * U)
        with np.errstate(over="ignore", invalid="ignore"):
            rss = float(r @ r)
        return r, rss if math.isfinite(rss) else math.inf

    def jacobian(theta):
        J = np.empty((t.size, 3))
        for j in range(3):
            step = 1e-6 * (1.0 + abs(theta[j]))
            hi, lo = theta.copy(), theta.copy()
            hi[j] += step
            lo[j] -= step
            m, d, c = hi
            V, U = _kernels(m * d, t)
            J[:, j] = c * (V + m * U)
            m, d, c = lo
            V, U = _kernels(m * d, t)
            J[:, j] = (J[:, j] - c * (V + m * U)) / (2.0 * step)
        return J

    def minimize(theta):
        r, rss = residual(theta)
        if not math.isfinite(rss):
            return None
        lam = 1e-3
        for _ in range(100):
            try:
                J = jacobian(theta)
            except rf.SolutionOverflowError:
                return None
            with np.errstate(over="ignore", invalid="ignore"):
                g, A = J.T @ r, J.T @ J
            if not (np.all(np.isfinite(g)) and np.all(np.isfinite(A))):
                return None
            if np.max(np.abs(g)) <= 1e-10 * (1.0 + rss):
                break
            while lam <= 1e12:
                try:
                    step = np.linalg.solve(A + lam * np.eye(3), g)
                except np.linalg.LinAlgError:
                    lam *= 10.0
                    continue
                trial = theta + step
                trial[2] = max(trial[2], 0.0)
                delta = trial - theta
                r_trial, rss_trial = residual(trial)
                if rss_trial <= rss:
                    theta, r, rss = trial, r_trial, rss_trial
                    lam = max(lam * 0.1, 1e-14)
                    break
                lam *= 10.0
            else:
                return None
            if np.linalg.norm(delta) <= 1e-12 * (1.0 + np.linalg.norm(theta)):
                break
        return theta, rss

    seed = rf.seed_parameters(series)
    m0, d0, c0 = seed.a + seed.b, seed.a - seed.b, seed.c
    starts = [(m0, d0), (m0, -d0 if d0 != 0.0 else -1.0), (m0, 0.0), (0.5, -0.5)]
    good_enough = 1e-6 * (float(np.sum((v - v.mean()) ** 2)) + 1.0)
    best = None
    for m, d in starts:
        outcome = minimize(np.array([m, d, c0]))
        if outcome is not None and (best is None or outcome[1] < best[1]):
            best = outcome
        if best is not None and best[1] <= good_enough:
            break
    if best is None:
        return math.inf
    m, d, c = best[0]
    d = 0.0 if abs(m) < 1e-12 else d
    fitted = rf.ModelParams(0.5 * (m + d), 0.5 * (m - d), c)
    return float(np.sum((v - rf.eval_solution(fitted, t)) ** 2))


def sampled(params, lo, hi, n):
    t = np.linspace(lo, hi, n)
    return rf.TimeSeries(t, rf.eval_solution(params, t))


def split(params):
    return params.a + params.b, params.a - params.b, params.c


def draw_params(rng):
    while True:
        a, b = rng.uniform(-1.5, 1.5, size=2)
        if abs(a * a - b * b) <= 2.0:
            return rf.ModelParams(a, b, rng.uniform(0.5, 5.0))


class TestFiniteDifference:
    def test_quadratic_examples(self):
        series = rf.TimeSeries([0.5, 1.0, 1.5], [0.25, 1.0, 2.25])
        fwd = rf.finite_difference(series, "forward")
        assert list(fwd.times) == [0.5, 1.0]
        assert fwd.values[1] == pytest.approx(2.5)
        bwd = rf.finite_difference(series, "backward")
        assert list(bwd.times) == [1.0, 1.5]
        assert bwd.values[0] == pytest.approx(1.5)
        cen = rf.finite_difference(series, "central")
        assert list(cen.times) == [1.0]
        assert cen.values[0] == pytest.approx(2.0)  # exact for quadratics

    def test_non_uniform_spacing_uses_local_gaps(self):
        series = rf.TimeSeries([0.0, 1.0, 3.0], [0.0, 2.0, 12.0])
        fwd = rf.finite_difference(series, "forward")
        assert list(fwd.values) == [2.0, 5.0]

    def test_too_few_points(self):
        single = rf.TimeSeries([1.0], [1.0])
        with pytest.raises(rf.TooFewPointsError):
            rf.finite_difference(single, "forward")
        two = rf.TimeSeries([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(rf.TooFewPointsError):
            rf.finite_difference(two, "central")

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            rf.finite_difference(rf.TimeSeries([0.0, 1.0], [0.0, 1.0]), "sideways")

    def test_convergence_orders_on_exponential(self):
        # oracle: d/dt e^t = e^t; forward error is O(h), central O(h^2)
        def max_err(scheme, h):
            t = np.arange(0.0, 1.0 + h / 2, h)
            est = rf.finite_difference(rf.TimeSeries(t, np.exp(t)), scheme)
            return np.max(np.abs(est.values - np.exp(est.times)))

        for h in (0.02, 0.01):
            assert max_err("forward", h) / max_err("forward", h / 2) >= 1.9
            assert max_err("backward", h) / max_err("backward", h / 2) >= 1.9
            assert max_err("central", h) / max_err("central", h / 2) >= 3.6

    def test_quotient_beyond_the_doubles_is_named(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            steep = rf.TimeSeries([0.0, 1e-300], [1.7e308, -1.7e308])
            for scheme in ("forward", "backward"):
                with pytest.raises(rf.SolutionOverflowError):
                    rf.finite_difference(steep, scheme)
            # the gap itself overflows, so v/gap would read 0
            wide = rf.TimeSeries([-1.7e308, 0.0, 1.7e308], [0.0, 1.0, 1.7e308])
            with pytest.raises(rf.SolutionOverflowError):
                rf.finite_difference(wide, "central")


class TestSeeding:
    def test_pure_exponential_round_trip(self):
        series = sampled(rf.ModelParams(1, 0, 1), 0, 5, 6)
        seed = rf.seed_parameters(series)
        m, d, _ = split(seed)
        assert abs(m - 1.0) <= 0.2
        assert abs(m * d - 1.0) <= 0.2  # s seeds as r0^2
        assert seed.c == pytest.approx(1.0)

    def test_constant_series(self):
        seed = rf.seed_parameters(rf.TimeSeries(np.arange(5.0), np.full(5, 3.0)))
        assert seed.a + seed.b == pytest.approx(0.0, abs=1e-9)
        assert seed.c == 3.0

    def test_too_few_points(self):
        with pytest.raises(rf.TooFewPointsError):
            rf.seed_parameters(rf.TimeSeries([0.0, 1.0, 2.0], [1.0, 2.0, 3.0]))

    def test_all_zero_is_degenerate(self):
        with pytest.raises(rf.DegenerateSeriesError):
            rf.seed_parameters(rf.TimeSeries(np.arange(6.0), np.zeros(6)))

    def test_ratio_beyond_the_doubles_gives_no_rate(self):
        # the last two positive values at t >= 0 are 1e200 and 1e-300, whose
        # ratio underflows to 0; log(0) used to raise a bare ValueError
        t = [-1e154, -1e100, 1e-300, 1.0, 7.0, 1e5]
        v = [1e100, -1.7e308, 1.0, 1e200, -0.3, 1e-300]
        seed = rf.seed_parameters(rf.TimeSeries(t, v))
        assert seed.a == seed.b  # r0 = 0 gives a - b = 0
        assert seed.c == 1.0

    def test_seed_beyond_the_doubles_is_named(self):
        # r0 = log(4/3)/1e-300 squares to inf, so a - b = r0^2/m0 is inf
        series = rf.TimeSeries([0.0, 1e-300, 2e-300, 3e-300], [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(rf.SolutionOverflowError):
            rf.seed_parameters(series)

    def test_ignores_negative_times(self):
        # symmetric simulation output seeds from its t >= 0 half
        params = rf.ModelParams(0.8, 0.3, 1.0)
        t = np.linspace(-5, 5, 101)
        seed = rf.seed_parameters(rf.TimeSeries(t, rf.eval_solution(params, t)))
        assert seed.c == pytest.approx(1.0, abs=1e-9)
        assert abs((seed.a + seed.b) - 1.1) <= 0.3


class TestFit:
    def test_exponential_round_trip(self):
        truth = rf.ModelParams(0.8, 0.3, 1.0)
        result = rf.fit(sampled(truth, 0, 5, 51))
        assert result.converged
        assert result.params.a == pytest.approx(0.8, rel=1e-3)
        assert result.params.b == pytest.approx(0.3, rel=1e-3)
        assert result.params.c == pytest.approx(1.0, rel=1e-3)

    def test_clean_fit_reaches_rounding_level(self):
        # the default gradient test used to stop one Gauss-Newton step short,
        # at rss 1.5e-18 and parameter errors of 3.2e-10
        truth = rf.ModelParams(0.8, 0.3, 1.0)
        series = sampled(truth, 0, 5, 51)
        result = rf.fit(series)
        v = series.values
        assert result.converged
        assert result.rss <= 1e-24 * (1.0 + v @ v)
        for got, want in zip(split(result.params), split(truth)):
            assert got == pytest.approx(want, abs=1e-12)

    def test_oscillatory_round_trip(self):
        truth = rf.ModelParams(0, 1, 1)
        result = rf.fit(sampled(truth, 0, 2 * math.pi, 63))
        assert result.converged
        assert result.params.a == pytest.approx(0.0, abs=1e-3)
        assert result.params.b == pytest.approx(1.0, rel=1e-3)
        assert result.params.c == pytest.approx(1.0, rel=1e-3)

    def test_too_few_points(self):
        with pytest.raises(rf.TooFewPointsError):
            rf.fit(rf.TimeSeries([0.0, 1.0, 2.0], [1.0, 2.0, 3.0]))

    def test_explicit_seed_is_used(self):
        truth = rf.ModelParams(0.5, 0.2, 2.0)
        seed = rf.ModelParams(0.4, 0.1, 1.5)
        result = rf.fit(sampled(truth, 0, 5, 41), seed=seed)
        assert result.seed == seed
        assert result.params.a == pytest.approx(0.5, rel=1e-6)

    def test_rss_recomputable(self):
        rng = np.random.default_rng(RNG_SEED)
        t = np.linspace(0, 5, 41)
        truth = rf.ModelParams(0.6, -0.2, 1.5)
        noisy = rf.eval_solution(truth, t) + rng.normal(0, 0.05, size=t.size)
        series = rf.TimeSeries(t, noisy)
        result = rf.fit(series)
        recomputed = float(
            np.sum((series.values - rf.eval_solution(result.params, t)) ** 2)
        )
        assert result.rss == pytest.approx(recomputed, rel=1e-12)

    def test_rss_history_monotone(self):
        rng = np.random.default_rng(RNG_SEED + 1)
        t = np.linspace(0, 5, 51)
        truth = rf.ModelParams(0.8, 0.3, 1.0)
        noisy = rf.eval_solution(truth, t) + rng.normal(
            0, 0.01 * np.abs(rf.eval_solution(truth, t))
        )
        result = rf.fit(rf.TimeSeries(t, noisy))
        history = np.array(result.rss_history)
        assert history.size >= 2
        assert np.all(np.diff(history) <= 0.0)

    def test_round_trip_30_random(self):
        rng = np.random.default_rng(RNG_SEED + 2)
        for _ in range(30):
            truth = rf.ModelParams(*_reject(rng))
            result = rf.fit(sampled(truth, 0, 5, 51))
            tm, td, tc = split(truth)
            fm, fd, fc = split(result.params)
            assert abs(fm - tm) <= 1e-3 * max(1e-6, abs(tm))
            assert abs(fd - td) <= 1e-3 * max(1e-6, abs(td))
            assert abs(fc - tc) <= 1e-3 * abs(tc)

    def test_noisy_recovery_median(self):
        # noise sigma is 1% of each curve's max |p|; the median over the
        # parameter ensemble is the robust summary (the strongly growing
        # draws are inherently ill-conditioned under flat noise and land in
        # the tail, see the covariance analysis in the fit docstring)
        rng = np.random.default_rng(RNG_SEED + 3)
        t = np.linspace(0, 5, 51)
        errors = []
        for _ in range(30):
            truth = rf.ModelParams(*_reject(rng))
            clean = rf.eval_solution(truth, t)
            noisy = clean + rng.normal(0, 0.01 * np.max(np.abs(clean)), size=t.size)
            result = rf.fit(rf.TimeSeries(t, noisy))
            tm, td, tc = split(truth)
            fm, fd, fc = split(result.params)
            errors.append(
                max(
                    abs(fm - tm) / max(1e-6, abs(tm)),
                    abs(fd - td) / max(1e-6, abs(td)),
                    abs(fc - tc) / abs(tc),
                )
            )
        assert float(np.median(errors)) <= 0.05

    def test_idempotence(self):
        first = rf.fit(sampled(rf.ModelParams(0.8, 0.3, 1.0), 0, 5, 51))
        second = rf.fit(sampled(first.params, 0, 5, 51))
        for name in ("a", "b", "c"):
            v1, v2 = getattr(first.params, name), getattr(second.params, name)
            assert abs(v2 - v1) <= 1e-6 * (1.0 + abs(v1))

    def test_scale_equivariance(self):
        base = sampled(rf.ModelParams(0.8, 0.3, 1.0), 0, 5, 51)
        for lam in (37.5, 1e-200, 1e150):
            scaled = rf.TimeSeries(base.times, base.values * lam)
            r1, r2 = rf.fit(base), rf.fit(scaled)
            assert r2.params.a == pytest.approx(r1.params.a, abs=1e-6)
            assert r2.params.b == pytest.approx(r1.params.b, abs=1e-6)
            assert r2.params.c == pytest.approx(lam * r1.params.c, rel=1e-6)
            assert r2.params.c / lam == pytest.approx(r1.params.c, rel=1e-6)
            assert r2.converged

    def test_constant_data_degenerate_split(self):
        result = rf.fit(rf.TimeSeries(np.arange(8.0), np.full(8, 3.0)))
        assert result.converged
        assert result.params.a == result.params.b == 0.0
        assert result.params.c == pytest.approx(3.0)
        assert "undetermined" in result.message

    def test_clean_fit_does_not_stop_on_a_damped_step(self):
        # a damped-step stop used to report converged=True here at rss 346
        truth = rf.ModelParams(
            -0.4855426750291829, 1.4195930651525708, 3.8022396610601685
        )
        series = sampled(truth, 0, 5, 51)
        result = rf.fit(series)
        assert result.converged
        assert result.rss <= 1e-16 * float(series.values @ series.values)
        for name in ("a", "b", "c"):
            assert getattr(result.params, name) == pytest.approx(
                getattr(truth, name), rel=1e-6
            )

    def test_all_zero_data_with_explicit_seed(self):
        series = rf.TimeSeries(np.arange(6.0), np.zeros(6))
        result = rf.fit(series, seed=rf.ModelParams(0.8, 0.3, 1.0))
        assert result.converged
        assert result.params.c == 0.0
        assert math.copysign(1.0, result.params.c) == 1.0
        assert result.rss == 0.0

    def test_fit_needing_negative_c_reports_zero_c_unconverged(self):
        series = sampled(rf.ModelParams(0.8, 0.3, 1.0), 0, 5, 51)
        result = rf.fit(rf.TimeSeries(series.times, -series.values))
        assert not result.converged
        assert result.params.c == 0.0
        assert "c < 0" in result.message

    def test_no_worse_than_reference_fitter(self):
        # fit_batch-style inputs: 3 regimes x {51, 401} points x {clean,
        # sigma = 0.05}, twice
        rng = np.random.default_rng(RNG_SEED + 4)
        for _ in range(2):
            for regime in ("exponential", "oscillatory", "near_linear"):
                if regime == "exponential":
                    a, b = rng.uniform(0.6, 1.0), rng.uniform(0.1, 0.4)
                elif regime == "oscillatory":
                    a, b = rng.uniform(0.2, 0.4), rng.uniform(0.7, 0.9)
                else:
                    a = rng.uniform(0.3, 0.7)
                    b = a * (1.0 + rng.uniform(-1e-6, 1e-6))
                truth = rf.ModelParams(a, b, rng.uniform(0.5, 2.0))
                for n in (51, 401):
                    clean = sampled(truth, 0, 5, n)
                    for sigma in (0.0, 0.05):
                        v = clean.values + rng.normal(0.0, sigma, n)
                        series = rf.TimeSeries(clean.times, v)
                        result = rf.fit(series)
                        limit = _reference_fit(series) * (1 + 1e-9)
                        assert result.rss <= limit + 1e-12 * (1 + v @ v)

    def test_options_validation(self):
        with pytest.raises(ValueError):
            rf.FitOptions(max_iterations=0)
        with pytest.raises(ValueError):
            rf.FitOptions(initial_damping=-1.0)


def _reject(rng):
    while True:
        a, b = rng.uniform(-1.5, 1.5, size=2)
        if abs(a * a - b * b) <= 2.0:
            return a, b, rng.uniform(0.5, 5.0)


class TestForecast:
    def test_constant_model(self):
        influence, rate = rf.forecast(rf.ModelParams(0, 0, 5), 5.0, 2.0, 1.0)
        assert list(influence.times) == [6.0, 7.0]
        assert list(influence.values) == [5.0, 5.0]
        assert list(rate.times) == [6.0, 7.0]
        assert list(rate.values) == [0.0, 0.0]

    def test_exponential_single_step(self):
        influence, rate = rf.forecast(rf.ModelParams(1, 0, 1), 0.0, 1.0, 1.0)
        assert influence.values[0] == pytest.approx(math.e)
        assert rate.values[0] == pytest.approx(math.e)

    def test_half_steps_match_closed_form(self):
        influence, _ = rf.forecast(rf.ModelParams(5, 3, 2), 0.0, 1.0, 0.5)
        assert list(influence.times) == [0.5, 1.0]
        # closed form w1 = 3, w2 = -1, r = 4 (verified by substitution in
        # the model tests): p(0.5) = 3 e^2 - e^{-2}
        assert influence.values[0] == pytest.approx(3 * math.e**2 - math.e**-2)

    def test_shared_grid(self):
        influence, rate = rf.forecast(rf.ModelParams(0.3, 0.1, 1.0), 2.0, 3.0, 0.25)
        assert np.array_equal(influence.times, rate.times)
        assert len(influence) == 12

    def test_validation_and_overflow(self):
        params = rf.ModelParams(5, 3, 2)
        with pytest.raises(ValueError):
            rf.forecast(params, 0.0, -1.0, 0.5)
        with pytest.raises(ValueError):
            rf.forecast(params, 0.0, 1.0, 0.0)
        with pytest.raises(rf.SolutionOverflowError):
            rf.forecast(params, 0.0, 400.0, 200.0)

    def test_grid_end_beyond_the_doubles(self):
        params = rf.ModelParams(0.3, 0.1, 1.0)
        with pytest.raises(rf.InvalidStepError, match="not finite"):
            rf.forecast(params, 1.7e308, 1e308, 1e307)

    def test_value_beyond_the_doubles_is_named(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(rf.SolutionOverflowError, match="p\\(t\\)"):
                rf.forecast(rf.ModelParams(1, 0, 1e10), 0.0, 700.0, 100.0)

    def test_step_that_cannot_separate_points(self):
        with pytest.raises(rf.InvalidStepError, match="does not separate"):
            rf.forecast(rf.ModelParams(0, 0, 1), 1e100, 1.0, 0.25)
        influence, _ = rf.forecast(rf.ModelParams(0, 0, 1), 1e100, 1e85, 4e84)
        assert len(influence) == 2

    def test_point_count_capped_before_allocation(self):
        params = rf.ModelParams(0.3, 0.1, 1.0)
        with pytest.raises(rf.InvalidStepError, match="exceeds the limit"):
            rf.forecast(params, 0.0, 1e308, 1e-308)  # horizon/step overflows to inf
        tracemalloc.start()
        try:
            with pytest.raises(rf.InvalidStepError, match="exceeds the limit"):
                rf.forecast(params, 0.0, 1e8, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
