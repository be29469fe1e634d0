"""Regime classification, dominance, correlation and windowed summaries."""

import math
import warnings

import numpy as np
import pytest

import retroflux as rf

RNG_SEED = 20260809


def _reference_correlate(x, y):
    """correlate as it was before array alignment: dict keys, last value wins."""
    def keys(series):
        return {
            int(round(t / 1e-9)): v
            for t, v in zip(series.times.tolist(), series.values.tolist())
        }

    xk, yk = keys(x), keys(y)
    shared = sorted(set(xk) & set(yk))
    if len(shared) < 2:
        raise rf.TooFewAlignedPointsError(
            f"need at least 2 aligned time points, got {len(shared)}"
        )
    xv = np.array([xk[k] for k in shared])
    yv = np.array([yk[k] for k in shared])
    with np.errstate(all="ignore"):
        xm, ym = xv.mean(), yv.mean()
        dx, dy = xv - xm, yv - ym
        sx, sy = float(np.abs(dx).max()), float(np.abs(dy).max())
        if sx == 0.0:
            raise rf.ZeroVarianceError("x is constant over the aligned pairs")
        dx /= sx
        dy /= sy if sy > 0.0 else 1.0
        var_x, var_y, cov = float(dx @ dx), float(dy @ dy), float(dx @ dy)
        slope = cov / var_x * (sy / sx)
        intercept = float(ym - slope * xm)
    pearson = cov / math.sqrt(var_x * var_y) if var_y > 0.0 else 0.0
    if not all(map(math.isfinite, (slope, intercept, pearson))):
        raise rf.SolutionOverflowError(
            f"correlation is not representable (slope={slope!r}, "
            f"intercept={intercept!r}, pearson={pearson!r})"
        )
    return rf.CorrelationResult(slope=slope, intercept=intercept, pearson=pearson, n=len(shared))


def _reference_summary(series, window):
    """yearly_summary as it was before contiguous windows: one mask per window."""
    t0 = float(series.times[0])
    index = np.floor((series.times - t0) / window).astype(int)
    rows = []
    for k in sorted(set(index.tolist())):
        inside = index == k
        tw, vw = series.times[inside], series.values[inside]
        mean, stddev = float(vw.mean()), float(vw.std())
        flagged = np.abs(vw - mean) > 2.0 * stddev
        rows.append(rf.SummaryRow(
            window_start=t0 + k * window,
            mean=mean,
            stddev=stddev,
            outliers=tuple(zip(tw[flagged].tolist(), vw[flagged].tolist())),
        ))
    return rows


def _outcome(fn, *args):
    try:
        return repr(fn(*args))  # repr tells -0.0 from 0.0 and keeps every bit
    except rf.RetrofluxError as exc:
        return type(exc), str(exc)


class TestClassify:
    def test_cases(self):
        assert rf.classify_regime(rf.ModelParams(1, 1, 1)) is rf.Regime.LINEAR
        assert rf.classify_regime(rf.ModelParams(2, 1, 1)) is rf.Regime.EXPONENTIAL
        assert rf.classify_regime(rf.ModelParams(0, 2, 1)) is rf.Regime.OSCILLATORY

    def test_matches_coefficient_availability(self):
        # solution_coefficients succeeds exactly on the exponential band
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(100):
            a, b = rng.uniform(-2, 2, size=2)
            params = rf.ModelParams(a, b, 1.0)
            regime = rf.classify_regime(params)
            if regime is rf.Regime.EXPONENTIAL:
                rf.solution_coefficients(params)
            else:
                with pytest.raises(rf.NotExponentialError):
                    rf.solution_coefficients(params)

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(RNG_SEED + 1)
        for tol in (1e-12, 1e-9, 1e-3):
            for _ in range(50):
                a, b = rng.uniform(-2, 2, size=2)
                base = rf.classify_regime(rf.ModelParams(a, b, 1.0), tol)
                assert rf.classify_regime(rf.ModelParams(-a, -b, 1.0), tol) is base
                assert rf.classify_regime(rf.ModelParams(a, -b, 1.0), tol) is base

    def test_rescaling_keeps_linear(self):
        # a = b stays linear under any common rescale thanks to the
        # relative tolerance band
        for scale in (1e-6, 1.0, 1e6):
            params = rf.ModelParams(scale, scale, 1.0)
            assert rf.classify_regime(params) is rf.Regime.LINEAR


class TestDominance:
    def test_growing_dominates_late(self):
        params = rf.ModelParams(5, 3, 2)  # w1 = 3, w2 = -1, r = 4
        assert rf.dominant_term(params, 1.0) is rf.Dominance.GROWING_TERM

    def test_balanced_at_crossover(self):
        params = rf.ModelParams(5, 3, 2)
        t_star = math.log(1.0 / 3.0) / 8.0
        assert rf.dominant_term(params, t_star) is rf.Dominance.BALANCED
        assert rf.dominant_term(params, t_star - 1e-6) is rf.Dominance.DECAYING_TERM
        assert rf.dominant_term(params, t_star + 1e-6) is rf.Dominance.GROWING_TERM

    def test_non_exponential_rejected(self):
        with pytest.raises(rf.NotExponentialError):
            rf.dominant_term(rf.ModelParams(1, 1, 1), 0.0)
        with pytest.raises(rf.NotExponentialError):
            rf.dominant_term(rf.ModelParams(0, 1, 1), 0.0)

    def test_crossover_uniqueness(self):
        rng = np.random.default_rng(RNG_SEED + 2)
        found = 0
        while found < 30:
            a, b = rng.uniform(-2, 2, size=2)
            params = rf.ModelParams(a, b, rng.uniform(0.5, 4.0))
            try:
                coeffs = rf.solution_coefficients(params)
            except rf.NotExponentialError:
                continue
            if coeffs.w1 == 0.0 or coeffs.w2 == 0.0:
                continue
            found += 1
            t_star = math.log(abs(coeffs.w2) / abs(coeffs.w1)) / (2 * coeffs.r)
            assert rf.dominant_term(params, t_star) is rf.Dominance.BALANCED
            before = rf.dominant_term(params, t_star - 1e-3)
            after = rf.dominant_term(params, t_star + 1e-3)
            assert before is rf.Dominance.DECAYING_TERM
            assert after is rf.Dominance.GROWING_TERM

    def test_survives_large_times(self):
        # log-space comparison keeps working where e^{rt} itself overflows
        params = rf.ModelParams(5, 3, 2)
        assert rf.dominant_term(params, 500.0) is rf.Dominance.GROWING_TERM
        assert rf.dominant_term(params, -500.0) is rf.Dominance.DECAYING_TERM

    def test_pure_decay_when_w1_vanishes(self):
        # a = -2, b = 0: w1 = (c/2r)(r + m) = (c/4)(2 - 2) = 0
        params = rf.ModelParams(-2, 0, 1)
        assert rf.dominant_term(params, 0.0) is rf.Dominance.DECAYING_TERM

    def test_coefficient_near_the_double_limit(self):
        # the ratio (r + m)/2r = 1 is formed first, so c = 1.7e308 stays finite
        params = rf.ModelParams(0.3, 0, 1.7e308)
        coeffs = rf.solution_coefficients(params)
        assert (coeffs.w1, coeffs.w2) == (1.7e308, 0.0)
        assert rf.dominant_term(params, 0.0) is rf.Dominance.GROWING_TERM
        with pytest.raises(rf.SolutionOverflowError, match="overflow"):
            rf.dominant_term(rf.ModelParams(0.3, 0.2, 1.7e308), 0.0)

    def test_zero_influence_balanced(self):
        assert rf.dominant_term(rf.ModelParams(2, 0, 0), 1.0) is rf.Dominance.BALANCED


class TestCorrelate:
    def test_identity(self):
        x = rf.TimeSeries([0.0, 1.0, 2.0], [1.0, 2.0, 5.0])
        result = rf.correlate(x, x)
        assert result.slope == pytest.approx(1.0)
        assert result.intercept == pytest.approx(0.0, abs=1e-12)
        assert result.pearson == pytest.approx(1.0)
        assert result.n == 3

    def test_collinear_fixture(self):
        x = rf.TimeSeries([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        y = rf.TimeSeries([0.0, 1.0, 2.0], [3.0, 5.0, 7.0])
        result = rf.correlate(x, y)
        assert abs(result.slope - 2.0) <= 1e-12
        assert abs(result.intercept - 1.0) <= 1e-12
        assert abs(result.pearson - 1.0) <= 1e-12

    def test_tiny_values_do_not_underflow(self):
        # var_x * var_y underflows to 0 here; the roots of each do not
        x = rf.TimeSeries([0.0, 0.5, 1.0], [0.0, 0.0, 1.8136255334926433e-115])
        assert rf.correlate(x, x).pearson == pytest.approx(1.0)

    def test_huge_values_do_not_overflow(self):
        # dx @ dx overflows here unless the deviations are scaled first
        x = rf.TimeSeries([0.0, 1.0, 2.0], [1e200, -1e200, 3e200])
        result = rf.correlate(x, x)
        assert result.slope == pytest.approx(1.0)
        assert result.intercept == pytest.approx(0.0, abs=1e-12)
        assert result.pearson == pytest.approx(1.0)

    def test_unrepresentable_slope_is_named_error(self):
        x = rf.TimeSeries([0.0, 1.0, 2.0], [0.0, 1e-300, 2e-300])
        y = rf.TimeSeries([0.0, 1.0, 2.0], [0.0, 1e300, 2e300])
        with pytest.raises(rf.SolutionOverflowError):
            rf.correlate(x, y)

    def test_constant_x_rejected(self):
        x = rf.TimeSeries([0.0, 1.0, 2.0], [4.0, 4.0, 4.0])
        y = rf.TimeSeries([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(rf.ZeroVarianceError):
            rf.correlate(x, y)

    def test_alignment_is_exact_time_match(self):
        x = rf.TimeSeries([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0])
        y = rf.TimeSeries([1.0, 3.0, 10.0], [5.0, 9.0, 100.0])
        result = rf.correlate(x, y)  # aligned at t = 1 and t = 3 only
        assert result.n == 2
        assert result.slope == pytest.approx(2.0)

    def test_too_few_aligned(self):
        x = rf.TimeSeries([0.0, 1.0], [1.0, 2.0])
        y = rf.TimeSeries([5.0, 6.0], [1.0, 2.0])
        with pytest.raises(rf.TooFewAlignedPointsError):
            rf.correlate(x, y)

    def test_matches_dict_alignment(self):
        rng = np.random.default_rng(RNG_SEED + 5)
        for case in range(300):
            n = int(rng.integers(1, 40))
            scale = 10.0 ** rng.integers(-9, 12)
            grid = np.unique(rng.integers(0, 60, size=n)) * scale
            if case % 3 == 0:  # neighbours closer than 1e-9: the last value wins
                grid = np.unique(np.concatenate([grid, grid + rng.uniform(0, 6e-10)]))
            other = np.unique(np.concatenate([
                rng.choice(grid, size=grid.size // 2 + 1), rng.integers(0, 60, size=4) * scale
            ]))
            x = rf.TimeSeries(grid, rng.normal(size=grid.size) * 10.0 ** rng.integers(-5, 5))
            y = rf.TimeSeries(other, rng.normal(size=other.size))
            for a, b in ((x, y), (y, x), (x, x)):
                assert _outcome(rf.correlate, a, b) == _outcome(_reference_correlate, a, b)

    def test_times_beyond_the_alignment_grid_are_named_error(self):
        x = rf.TimeSeries([1e300, 2e300, 3e300], [1.0, 2.0, 4.0])
        with pytest.raises(rf.SolutionOverflowError, match="time 1e\\+300"):
            rf.correlate(x, x)
        near = rf.TimeSeries([0.0, 1e299, 1.7e299], [1.0, 2.0, 4.0])
        assert rf.correlate(near, near).n == 3

    def test_symmetry_properties(self):
        rng = np.random.default_rng(RNG_SEED + 3)
        for _ in range(25):
            t = np.sort(rng.uniform(0, 10, size=12))
            t = np.unique(t)
            xv = rng.normal(size=t.size)
            yv = rng.normal(size=t.size)
            x = rf.TimeSeries(t, xv)
            y = rf.TimeSeries(t, yv)
            fwd = rf.correlate(x, y)
            rev = rf.correlate(y, x)
            assert fwd.pearson == pytest.approx(rev.pearson, abs=1e-15)
            assert fwd.slope * rev.slope == pytest.approx(
                fwd.pearson**2, abs=1e-12
            )


class TestYearlySummary:
    def test_constant_series(self):
        series = rf.TimeSeries(np.arange(0, 6, 0.5), np.full(12, 10.0))
        rows = rf.yearly_summary(series, 1.0)
        assert len(rows) == 6
        for row in rows:
            assert row.mean == 10.0
            assert row.stddev == 0.0
            assert row.outliers == ()

    def test_small_window_two_sigma_is_conservative(self):
        # |40 - 17.5| = 22.5 <= 2 * 12.99, so even the spike is not flagged
        series = rf.TimeSeries([0.0, 0.2, 0.4, 0.6], [10.0, 10.0, 10.0, 40.0])
        rows = rf.yearly_summary(series, 1.0)
        assert len(rows) == 1
        assert rows[0].mean == pytest.approx(17.5)
        assert rows[0].stddev == pytest.approx(12.99038105676658)
        assert rows[0].outliers == ()

    def test_outlier_flagged(self):
        values = [10.0] * 9 + [40.0]
        series = rf.TimeSeries(np.linspace(0, 0.9, 10), values)
        rows = rf.yearly_summary(series, 1.0)
        assert rows[0].outliers == ((0.9, 40.0),)

    def test_windows_anchor_at_first_observation(self):
        series = rf.TimeSeries([3.5, 4.0, 4.6, 5.5], [1.0, 2.0, 3.0, 4.0])
        rows = rf.yearly_summary(series, 1.0)
        assert [row.window_start for row in rows] == [3.5, 4.5, 5.5]

    def test_empty_windows_omitted(self):
        series = rf.TimeSeries([0.0, 0.5, 10.0], [1.0, 2.0, 3.0])
        rows = rf.yearly_summary(series, 1.0)
        assert [row.window_start for row in rows] == [0.0, 10.0]

    def test_completeness_and_global_mean(self):
        rng = np.random.default_rng(RNG_SEED + 4)
        t = np.sort(rng.uniform(0, 20, size=60))
        t = np.unique(t)
        v = rng.normal(5.0, 2.0, size=t.size)
        series = rf.TimeSeries(t, v)
        rows = rf.yearly_summary(series, 1.7)
        counted = 0
        weighted = 0.0
        for row in rows:
            inside = (t >= row.window_start - 1e-12) & (t < row.window_start + 1.7)
            n = int(np.sum(inside))
            counted += n
            weighted += row.mean * n
        assert counted == t.size
        assert weighted / t.size == pytest.approx(float(v.mean()), abs=1e-12)

    def test_matches_mask_scan(self):
        rng = np.random.default_rng(RNG_SEED + 6)
        for window in (1e-3, 0.01, 0.37, 1.0, 5.0, 1e3):
            for n in (1, 2, 50, 2000):
                t = np.unique(np.cumsum(rng.exponential(0.02, size=n)) - 3.0)
                v = rng.normal(size=t.size) + np.where(rng.random(t.size) < 0.05, 9.0, 0.0)
                series = rf.TimeSeries(t, v)
                assert _outcome(rf.yearly_summary, series, window) == _outcome(
                    _reference_summary, series, window
                )

    def test_window_validation(self):
        series = rf.TimeSeries([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            rf.yearly_summary(series, 0.0)

    def test_window_count_capped_before_the_cast(self):
        series = rf.TimeSeries([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(rf.InvalidStepError, match="exceeds the limit"):
            rf.yearly_summary(series, 1e-300)

    def test_empty_series_unconstructible(self):
        with pytest.raises(ValueError):
            rf.TimeSeries([], [])

    def test_order_check_does_not_overflow(self):
        # times 2e308 apart: a difference overflows, a comparison does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series = rf.TimeSeries([-1e308, 1e308], [0.0, 1.0])
            with pytest.raises(ValueError, match="strictly increasing"):
                rf.TimeSeries([1e308, -1e308], [0.0, 1.0])
        assert len(series) == 2

    def test_span_beyond_the_doubles(self):
        # 1e308 - (-1e308) overflows; the windows are measured in halves,
        # which only such spans use: halving 5e-324 would round it to 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = rf.yearly_summary(rf.TimeSeries([-1e308, 1e308], [1.0, 2.0]), 1e308)
            tiny = rf.yearly_summary(rf.TimeSeries([5e-324, 1e-323], [1.0, 2.0]), 5e-324)
        assert [(r.window_start, r.mean) for r in rows] == [(-1e308, 1.0), (1e308, 2.0)]
        assert [(r.window_start, r.mean) for r in tiny] == [(5e-324, 1.0), (1e-323, 2.0)]

    def test_moments_of_values_near_the_double_range(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (row,) = rf.yearly_summary(rf.TimeSeries([0.0, 0.5], [1e160, -1e160]), 1.0)
            assert (row.mean, row.stddev, row.outliers) == (0.0, 1e160, ())
            (row,) = rf.yearly_summary(rf.TimeSeries([0.0, 1e-300], [1.7e308, -1.7e308]), 1.0)
            assert (row.mean, row.stddev) == (0.0, 1.7e308)
            # squares of 1e-170 underflow to 0 unless the window is scaled first
            (row,) = rf.yearly_summary(rf.TimeSeries([0.0, 0.5], [3e-170, -3e-170]), 1.0)
            assert (row.mean, row.stddev) == (0.0, 3e-170)
