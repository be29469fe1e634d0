"""Closed-form solution tests, anchored by the substitution oracle.

Expected values are either direct arithmetic or verified by substituting the
candidate solution back into p'(t) = a*p(t) + b*p(-t); the oracle never
reuses the code path it is checking.
"""

import math
import warnings

import numpy as np
import pytest

import retroflux as rf
from retroflux.model import _kernel_ds, _kernels

RNG_SEED = 20260809


def identity_defect(params: rf.ModelParams, t: np.ndarray) -> float:
    """Max |p'(t) - a*p(t) - b*p(-t)| scaled by (1 + max|p|)."""
    p_pos = rf.eval_solution(params, t)
    p_neg = rf.eval_solution(params, -t)
    dp = rf.eval_solution_derivative(params, t)
    defect = np.max(np.abs(dp - params.a * p_pos - params.b * p_neg))
    return defect / (1.0 + np.max(np.abs(p_pos)))


def random_params(rng, a_range=2.0, c_range=(0.0, 5.0)) -> rf.ModelParams:
    a, b = rng.uniform(-a_range, a_range, size=2)
    c = rng.uniform(*c_range)
    return rf.ModelParams(a, b, c)


class TestParams:
    def test_rejects_negative_initial_influence(self):
        with pytest.raises(ValueError):
            rf.ModelParams(1.0, 1.0, -0.5)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            rf.ModelParams(math.nan, 0.0, 1.0)
        with pytest.raises(ValueError):
            rf.ModelParams(0.0, math.inf, 1.0)


class TestDiscriminant:
    def test_examples(self):
        d = rf.discriminant(rf.ModelParams(2, 1, 1))
        assert d.s == pytest.approx(3.0)
        assert d.rate == pytest.approx(math.sqrt(3.0))
        d = rf.discriminant(rf.ModelParams(1, 1, 5))
        assert d.s == 0.0 and d.rate == 0.0
        d = rf.discriminant(rf.ModelParams(0, 1, 1))
        assert d.s == pytest.approx(-1.0)
        assert d.rate == pytest.approx(1.0)

    def test_sign_symmetry(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(50):
            a, b = rng.uniform(-3, 3, size=2)
            s0 = rf.discriminant(rf.ModelParams(a, b, 1.0)).s
            assert rf.discriminant(rf.ModelParams(-a, -b, 1.0)).s == s0
            assert rf.discriminant(rf.ModelParams(a, -b, 1.0)).s == s0


class TestCoefficients:
    def test_decoupled_exponential(self):
        c = rf.solution_coefficients(rf.ModelParams(2, 0, 1))
        assert (c.w1, c.w2, c.r) == pytest.approx((1.0, 0.0, 2.0))

    def test_mixed_example_satisfies_equation(self):
        c = rf.solution_coefficients(rf.ModelParams(5, 3, 2))
        assert (c.w1, c.w2, c.r) == pytest.approx((3.0, -1.0, 4.0))
        # substitution oracle: d/dt [w1 e^{rt} + w2 e^{-rt}] vs a*p(t)+b*p(-t)
        t = np.linspace(-1, 1, 201)
        p = c.w1 * np.exp(c.r * t) + c.w2 * np.exp(-c.r * t)
        pm = c.w1 * np.exp(-c.r * t) + c.w2 * np.exp(c.r * t)
        dp = c.r * c.w1 * np.exp(c.r * t) - c.r * c.w2 * np.exp(-c.r * t)
        assert np.max(np.abs(dp - 5 * p - 3 * pm)) <= 1e-9 * np.max(np.abs(p))

    def test_linear_case_rejected(self):
        with pytest.raises(rf.NotExponentialError):
            rf.solution_coefficients(rf.ModelParams(1, 1, 1))

    def test_sum_rule(self):
        rng = np.random.default_rng(RNG_SEED + 1)
        checked = 0
        while checked < 100:
            params = random_params(rng)
            try:
                c = rf.solution_coefficients(params)
            except rf.NotExponentialError:
                continue
            checked += 1
            assert c.w1 + c.w2 == pytest.approx(params.c, abs=4 * np.spacing(params.c))

    def test_matches_unified_evaluation(self):
        rng = np.random.default_rng(RNG_SEED + 2)
        t = np.linspace(-5, 5, 401)
        checked = 0
        while checked < 50:
            params = random_params(rng, a_range=1.5)
            try:
                c = rf.solution_coefficients(params)
            except rf.NotExponentialError:
                continue
            checked += 1
            explicit = c.w1 * np.exp(c.r * t) + c.w2 * np.exp(-c.r * t)
            unified = rf.eval_solution(params, t)
            assert np.max(np.abs(explicit - unified)) <= 1e-9 * (
                1.0 + np.max(np.abs(unified))
            )


class TestEvalSolution:
    def test_zero_dynamics(self):
        params = rf.ModelParams(0, 0, 5)
        for t in (-3.0, 0.0, 0.7, 12.0):
            assert rf.eval_solution(params, t) == 5.0
            assert rf.eval_solution_derivative(params, t) == 0.0

    def test_plain_exponential(self):
        assert rf.eval_solution(rf.ModelParams(1, 0, 1), 1.0) == pytest.approx(math.e)
        assert rf.eval_solution_derivative(rf.ModelParams(1, 0, 1), 0.0) == 1.0

    def test_oscillatory_closed_form(self):
        # oracle: p = cos t + sin t gives p' = cos t - sin t = p(-t), checked
        # by substitution on a fine grid before the point assertion
        t = np.linspace(-math.pi, math.pi, 401)
        ref = np.cos(t) + np.sin(t)
        ref_m = np.cos(t) - np.sin(t)
        assert np.max(np.abs((-np.sin(t) + np.cos(t)) - ref_m)) == 0.0
        params = rf.ModelParams(0, 1, 1)
        assert rf.eval_solution(params, math.pi / 2) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(rf.eval_solution(params, t) - ref)) <= 1e-12

    def test_linear_regime_value(self):
        # a = b: p(t) = c*(1 + 2at); at (1,1,2), t=3 the value is 14 and the
        # identity p' = p(t) + p(-t) = 2*(1+6) + 2*(1-6) = 4 holds
        params = rf.ModelParams(1, 1, 2)
        assert rf.eval_solution(params, 3.0) == pytest.approx(14.0, abs=1e-12)
        assert rf.eval_solution_derivative(params, 3.0) == pytest.approx(4.0, abs=1e-12)

    def test_derivative_initial_slope(self):
        assert rf.eval_solution_derivative(rf.ModelParams(5, 3, 2), 0.0) == 16.0

    def test_derivative_against_central_difference(self):
        # independent oracle: numerical differentiation of eval_solution
        rng = np.random.default_rng(RNG_SEED + 3)
        h = 1e-6
        for _ in range(20):
            params = random_params(rng, a_range=1.5, c_range=(0.5, 3.0))
            for t in (-2.0, -0.3, 0.0, 1.1, 4.0):
                numeric = (
                    rf.eval_solution(params, t + h) - rf.eval_solution(params, t - h)
                ) / (2 * h)
                exact = rf.eval_solution_derivative(params, t)
                assert numeric == pytest.approx(exact, rel=1e-7, abs=1e-7)

    def test_overflow_raises(self):
        with pytest.raises(rf.SolutionOverflowError):
            rf.eval_solution(rf.ModelParams(5, 3, 2), 200.0)

    def test_rejects_non_finite_time(self):
        with pytest.raises(ValueError):
            rf.eval_solution(rf.ModelParams(1, 0, 1), math.nan)

    def test_series_branch_at_huge_discriminant(self):
        # s = -1e200: s*s overflows, but the series in x = s*t^2 is exact at t = 0
        params = rf.ModelParams(0.3, 1e100, 0.8)
        assert rf.eval_solution(params, 0.0) == 0.8
        assert np.all(np.isfinite(rf.eval_solution(params, [0.0, 1e-110, 0.5])))

    def test_no_overflowing_kernel_product(self):
        # no kernel product may leave the doubles: |s|*t^2 at s = -1e200,
        # t = 1e200, t*t at s = 0, or sqrt(|s|)*t at t = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            linear = rf.ModelParams(0.5, 0.5, 1.0)
            assert rf.eval_solution(linear, 1e160) == 1e160
            assert rf.eval_solution_derivative(linear, 1e160) == 1.0
            p = rf.eval_solution(rf.ModelParams(0.3, 1e100, 1.0), 1e200)
            assert math.isfinite(p) and abs(p) <= 2.0  # cos(wt) + (a+b)/w sin(wt)
            for params in (rf.ModelParams(3.0, 0.3, 1.0), rf.ModelParams(0.3, 3.0, 1.0)):
                with pytest.raises(rf.SolutionOverflowError):  # sqrt(|s|)*t is inf
                    rf.eval_solution(params, 1e308)

    def test_overflowing_discriminant_is_named(self):
        # a^2 - b^2 is inf - inf = nan, or -inf
        for params in (rf.ModelParams(1e200, 1e200, 0.8), rf.ModelParams(0.3, 1e200, 1.0)):
            for call in (
                lambda: rf.eval_solution(params, 0.5),
                lambda: rf.eval_solution_derivative(params, [0.0, 0.5]),
                lambda: rf.solution_coefficients(params),
                lambda: rf.discriminant(params),
                lambda: rf.classify_regime(params),
            ):
                with pytest.raises(rf.SolutionOverflowError, match="overflows"):
                    call()

    def test_value_beyond_the_doubles_is_named(self):
        # exp(700) * 1e10 overflows; at t = 0, m*c*U is inf * 0 = nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(rf.SolutionOverflowError, match="p\\(t\\)"):
                rf.eval_solution(rf.ModelParams(1, 0, 1e10), 700.0)
            with pytest.raises(rf.SolutionOverflowError, match="p\\(t\\)"):
                rf.eval_solution(rf.ModelParams(1e10, 0, 1e300), 0.0)
            with pytest.raises(rf.SolutionOverflowError, match="p\\(t\\)"):
                rf.eval_solution(rf.ModelParams(1, 0, 1e10), [0.0, 700.0])

    def test_only_the_returned_half_is_checked(self):
        params = rf.ModelParams(5e8, -5e8 + 1, 1e300)
        assert rf.eval_solution(params, 3.8e-4) == 8.274671134482035e304
        with pytest.raises(rf.SolutionOverflowError, match="p'\\(t\\)"):
            rf.eval_solution_derivative(params, 3.8e-4)


class TestKernelDerivative:
    def test_matches_central_differences(self):
        # both sides of the series switch at |s*t^2| = 1e-2 (s = 4e-4, t = 5)
        t = np.linspace(-5.0, 5.0, 201)
        h = 3e-3
        for s in (-2.0, -1e-3, 0.0, 3.9e-4, 4.1e-4, 0.5, 2.0):
            V, U = _kernels(s, t)
            dU = _kernel_ds(s, t, V, U)

            def u(step):
                return _kernels(s + step, t)[1]

            numeric = (u(-2 * h) - 8 * u(-h) + 8 * u(h) - u(2 * h)) / (12 * h)
            np.testing.assert_allclose(dU, numeric, rtol=1e-8, atol=0.0)


class TestProperties:
    def test_residual_identity(self):
        rng = np.random.default_rng(RNG_SEED + 4)
        t = np.linspace(-5, 5, 201)
        for _ in range(200):
            assert identity_defect(random_params(rng), t) <= 1e-9

    def test_initial_conditions(self):
        rng = np.random.default_rng(RNG_SEED + 5)
        for _ in range(200):
            params = random_params(rng)
            assert rf.eval_solution(params, 0.0) == params.c
            m = params.a + params.b
            assert rf.eval_solution_derivative(params, 0.0) == pytest.approx(
                m * params.c, abs=4 * np.spacing(1.0 + abs(m * params.c))
            )

    def test_continuity_across_regimes(self):
        # fixed a+b = 1 and c = 1; s is steered through 0 via d = a-b
        t = np.linspace(0, 5, 101)
        base = rf.eval_solution(rf.ModelParams(0.5, 0.5, 1.0), t)
        for s in (1e-8, -1e-8):
            d = s  # since m = 1, d = s / m
            params = rf.ModelParams(0.5 * (1 + d), 0.5 * (1 - d), 1.0)
            assert np.max(np.abs(rf.eval_solution(params, t) - base)) <= 1e-6

    def test_smooth_series_handoff(self):
        # as s crosses the series/exact cutoff the deviation from s = 0 must
        # track the first-order sensitivity c*(t^2/2 + |m| t^3/6)*|s|, i.e.
        # no jump is introduced by the branch change
        t = np.array([3.0])
        for m, c in ((0.7, 2.0), (-0.4, 1.5)):
            base = rf.eval_solution(rf.ModelParams(0.5 * m, 0.5 * m, c), t)[0]
            bound = c * (t[0] ** 2 / 2 + abs(m) * t[0] ** 3 / 6)
            for s in (1e-10, 1e-9, 1e-8, -1e-10, -1e-9, -1e-8):
                d = s / m
                p = rf.ModelParams(0.5 * (m + d), 0.5 * (m - d), c)
                delta = abs(rf.eval_solution(p, t)[0] - base)
                assert delta <= 1.05 * bound * abs(s) + 1e-12


class TestFdeResidual:
    def test_sampled_closed_form_small_residual(self):
        params = rf.ModelParams(5, 3, 2)
        h = 1e-3
        t = np.arange(-2000, 2001) * h
        traj = rf.Trajectory(t0=-2.0, h=h, values=rf.eval_solution(params, t))
        residual = rf.fde_residual(params, traj)
        assert residual <= 1e-4 * np.max(np.abs(traj.values))

    def test_constant_solution_when_weights_cancel(self):
        traj = rf.Trajectory(t0=-1.0, h=0.01, values=np.full(201, 3.0))
        assert rf.fde_residual(rf.ModelParams(1, -1, 3), traj) <= 1e-12

    def test_wrong_trajectory_flagged(self):
        # e^t does not solve p' = p(-t); residual is order one
        h = 1e-3
        t = np.arange(-2000, 2001) * h
        traj = rf.Trajectory(t0=-2.0, h=h, values=np.exp(t))
        assert rf.fde_residual(rf.ModelParams(0, 1, 1), traj) > 0.1

    def test_asymmetric_grid_rejected(self):
        traj = rf.Trajectory(t0=0.0, h=0.1, values=np.ones(11))
        with pytest.raises(rf.AsymmetricDomainError):
            rf.fde_residual(rf.ModelParams(1, 0, 1), traj)
