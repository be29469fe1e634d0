"""Mirror-system RK4 integrator against closed-form and quadrature oracles."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import retroflux as rf
from retroflux.integrator import _forcing_steps

RNG_SEED = 20260809


def _reference_integrate(params, forcing, T, h):
    """The original per-step RK4 loop on the mirror system, kept as an oracle
    for the blocked scan in `rf.integrate`; returns the stitched values."""
    n = max(1, round(T / h))
    h = T / n
    grid = np.linspace(0.0, T, n + 1)
    if forcing is None or (forcing.theta is None and forcing.eta is None):
        gf = gmf = [0.0] * (n + 1)
        gh = gmh = [0.0] * n
    else:
        mid = 0.5 * (grid[:-1] + grid[1:])
        gf = rf.eval_forcing(forcing, grid).tolist()
        gh = rf.eval_forcing(forcing, mid).tolist()
        gmf = rf.eval_forcing(forcing, -grid).tolist()
        gmh = rf.eval_forcing(forcing, -mid).tolist()

    a, b, c = params.a, params.b, params.c
    p = q = c
    P = [p]
    Q = [q]
    half = 0.5 * h
    sixth = h / 6.0
    for k in range(n):
        k1p = a * p + b * q + gf[k]
        k1q = -(a * q + b * p + gmf[k])
        p2 = p + half * k1p
        q2 = q + half * k1q
        k2p = a * p2 + b * q2 + gh[k]
        k2q = -(a * q2 + b * p2 + gmh[k])
        p3 = p + half * k2p
        q3 = q + half * k2q
        k3p = a * p3 + b * q3 + gh[k]
        k3q = -(a * q3 + b * p3 + gmh[k])
        p4 = p + h * k3p
        q4 = q + h * k3q
        k4p = a * p4 + b * q4 + gf[k + 1]
        k4q = -(a * q4 + b * p4 + gmf[k + 1])
        p = p + sixth * (k1p + 2.0 * (k2p + k3p) + k4p)
        q = q + sixth * (k1q + 2.0 * (k2q + k3q) + k4q)
        if not (abs(p) < 1e300 and abs(q) < 1e300):
            raise rf.SolutionOverflowError(
                f"solution magnitude exceeded 1e+300 at t={h * (k + 1):.6g}; "
                "shrink the horizon"
            )
        P.append(p)
        Q.append(q)
    return np.concatenate([np.asarray(Q[1:])[::-1], np.asarray(P)])


def _kernel_pair(s, t):
    """V and U of exp(tA) = V I + U A, written out per regime."""
    if s > 0:
        r = math.sqrt(s)
        return np.cosh(r * t), np.sinh(r * t) / r
    if s < 0:
        w = math.sqrt(-s)
        return np.cos(w * t), np.sin(w * t) / w
    return np.ones_like(t), t.copy()


def forced_exact(params, kappa, alpha, eta, t):
    """Exact mirror state (p(t), p(-t)) for t >= 0 under forcing
    theta + eta = exp(-kappa t) + alpha + eta, by variation of constants.

    The constant part G = (g, -g) contributes U(t) G + (V(t) - 1)/s A G, with
    (V - 1)/s = 2 U(t/2)^2 in every regime; for s != 0 this is the approach to
    the steady state y* = -A G / s.  Each exponential e^{mu t} w in the
    goodwill part has the particular solution e^{mu t} (mu I + A) w/(mu^2 - s).
    """
    a, b, c = params.a, params.b, params.c
    s = a * a - b * b
    A = np.array([[a, b], [-b, -a]])
    V, U = _kernel_pair(s, t)
    _, Uh = _kernel_pair(s, t / 2.0)

    def exp_tA(y):
        return np.outer(y, V) + np.outer(A @ y, U)

    g = np.array([alpha + eta, -(alpha + eta)])
    y = exp_tA(np.array([c, c])) + np.outer(g, U) + np.outer(A @ g, 2.0 * Uh * Uh)
    if kappa is not None:
        z1 = (A - kappa * np.eye(2)) @ [1.0, 0.0] / (kappa * kappa - s)
        z2 = (A + kappa * np.eye(2)) @ [0.0, -1.0] / (kappa * kappa - s)
        y += np.outer(z1, np.exp(-kappa * t)) + np.outer(z2, np.exp(kappa * t))
        y -= exp_tA(z1 + z2)
    return y


def random_bounded_params(rng, s_max=4.0):
    while True:
        a, b = rng.uniform(-2, 2, size=2)
        if abs(a * a - b * b) <= s_max:
            return rf.ModelParams(a, b, rng.uniform(0, 5))


def max_error_vs_closed_form(params, T, h):
    traj = rf.integrate(params, None, T, h)
    exact = rf.eval_solution(params, traj.times())
    return float(np.max(np.abs(traj.values - exact))), float(np.max(np.abs(exact)))


class TestGoodwill:
    def test_at_zero(self):
        assert rf.goodwill_theta(rf.GoodwillSpec(1, 0.5), 0.0) == 1.5

    def test_decay_value(self):
        assert rf.goodwill_theta(rf.GoodwillSpec(2, 0.1), 1.0) == pytest.approx(
            math.exp(-2) + 0.1
        )

    def test_approaches_floor_from_above(self):
        # t large enough that exp(-t) is negligible yet still above ulp(alpha)
        theta = rf.goodwill_theta(rf.GoodwillSpec(1, 0.5), 30.0)
        assert 0.0 < theta - 0.5 < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            rf.GoodwillSpec(kappa=-1.0, alpha=0.5)
        with pytest.raises(ValueError):
            rf.GoodwillSpec(kappa=1.0, alpha=-0.1)
        rf.GoodwillSpec(kappa=1.0, alpha=0.0)  # fading goodwill is allowed


class TestForcing:
    def test_empty_contributes_zero(self):
        assert rf.eval_forcing(None, 3.0) == 0.0
        assert rf.eval_forcing(rf.ForcingSpec(), -1.0) == 0.0

    def test_theta_plus_constant(self):
        forcing = rf.ForcingSpec(theta=rf.GoodwillSpec(1, 0.5), eta=2.0)
        assert rf.eval_forcing(forcing, 0.0) == pytest.approx(3.5)

    def test_tabulated_out_of_range(self):
        eta = rf.TimeSeries([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(rf.OutOfRangeError):
            rf.eval_forcing(rf.ForcingSpec(eta=eta), 2.0)

    def test_tabulated_interpolates(self):
        eta = rf.TimeSeries([-1.0, 1.0], [0.0, 2.0])
        assert rf.eval_forcing(rf.ForcingSpec(eta=eta), 0.5) == pytest.approx(1.5)


class TestForcingSteps:
    """`_forcing_steps` skips the checks of the public eval_forcing, which
    integrate has made once for the whole grid; its f_k must still equal,
    bit for bit, the ones built from eval_forcing."""

    @pytest.mark.parametrize("tabulated", [False, True])
    def test_matches_public_eval_forcing(self, tabulated):
        T, n, a, b = 5.0, 1000, 0.3, 0.8
        if tabulated:
            knots = np.linspace(-T, T, 101)
            eta = rf.TimeSeries(knots, np.random.default_rng(RNG_SEED).normal(size=101))
            forcing = rf.ForcingSpec(eta=eta)
        else:
            forcing = rf.ForcingSpec(theta=rf.GoodwillSpec(1.0, 0.25), eta=0.5)
        grid = np.linspace(0.0, T, n + 1)
        h = T / n
        mid = 0.5 * (grid[:-1] + grid[1:])
        gf = np.stack([rf.eval_forcing(forcing, grid), -rf.eval_forcing(forcing, -grid)])
        gh = np.stack([rf.eval_forcing(forcing, mid), -rf.eval_forcing(forcing, -mid)])
        hs = h * h * (a * a - b * b)
        x = (h + h * hs / 4.0) * gf[:, :-1] + 2.0 * h * gh
        f = (1.0 + hs / 2.0) * gf[:, :-1] + (4.0 + hs / 2.0) * gh + gf[:, 1:]
        f[0] += a * x[0] + b * x[1]
        f[1] -= b * x[0] + a * x[1]
        f *= h / 6.0
        assert np.array_equal(_forcing_steps(forcing, grid, h, a, b), f)


class TestIntegrate:
    def test_plain_exponential(self):
        traj = rf.integrate(rf.ModelParams(1, 0, 1), None, 1.0, 1e-3)
        assert traj.values[-1] == pytest.approx(math.e, abs=1e-6)
        assert traj.t0 == -1.0
        assert len(traj) == 2001

    def test_goodwill_quadrature(self):
        # independent oracle: p' = e^{-t} with p(0) = 0 integrates to 1 - e^{-t}
        forcing = rf.ForcingSpec(theta=rf.GoodwillSpec(kappa=1.0, alpha=0.0))
        traj = rf.integrate(rf.ModelParams(0, 0, 0), forcing, 1.0, 1e-3)
        k = round((1.0 - traj.t0) / traj.h)
        assert traj.values[k] == pytest.approx(1 - math.exp(-1), abs=1e-6)

    def test_oscillatory_endpoint(self):
        traj = rf.integrate(rf.ModelParams(0, 1, 1), None, math.pi, 1e-3)
        assert traj.values[-1] == pytest.approx(-1.0, abs=1e-5)

    def test_linear_ramp_forcing(self):
        # eta(t) = t with zero dynamics gives p(t) = t^2/2 on the whole line
        # (the integral from 0 is even in t); RK4 reproduces it exactly
        eta = rf.TimeSeries([-2.0, 2.0], [-2.0, 2.0])
        traj = rf.integrate(rf.ModelParams(0, 0, 0), rf.ForcingSpec(eta=eta), 2.0, 0.01)
        t = traj.times()
        expected = t * t / 2.0
        assert np.max(np.abs(traj.values - expected)) <= 1e-12

    def test_invalid_steps(self):
        params = rf.ModelParams(1, 0, 1)
        with pytest.raises(rf.InvalidStepError):
            rf.integrate(params, None, 1.0, 0.0)
        with pytest.raises(rf.InvalidStepError):
            rf.integrate(params, None, 1.0, -0.1)
        with pytest.raises(rf.InvalidStepError):
            rf.integrate(params, None, 1.0, 2.0)
        with pytest.raises(rf.InvalidStepError):
            rf.integrate(params, None, -1.0, 0.1)
        with pytest.raises(rf.InvalidStepError, match="2T finite"):  # [-T, T] overflows
            rf.integrate(rf.ModelParams(0.3, 0.1, 0.0), None, 1e308, 1e308)

    def test_overflow(self):
        with pytest.raises(rf.SolutionOverflowError):
            rf.integrate(rf.ModelParams(10, 0, 1), None, 100.0, 0.01)

    def test_zero_start_at_huge_rate_stays_zero(self):
        traj = rf.integrate(rf.ModelParams(10, 0, 0), None, 1e5, 1.0)
        assert np.all(traj.values == 0.0)

    def test_tiny_start_at_huge_rate_overflows_where_the_loop_does(self):
        # an uncapped block length lets R^j overflow inside the first block
        # and reports t=110; the step loop first exceeds the limit at t=214
        with pytest.raises(rf.SolutionOverflowError, match=r"at t=214;"):
            rf.integrate(rf.ModelParams(10, 0, 1e-300), None, 1e5, 1.0)

    def test_overflow_reports_first_bad_sample(self):
        with pytest.raises(rf.SolutionOverflowError, match=r"at t=69\.08;"):
            rf.integrate(rf.ModelParams(10, 0, 1), None, 100.0, 0.01)

    def test_step_count_checked_before_allocation(self):
        tracemalloc.start()
        try:
            with pytest.raises(rf.InvalidStepError, match="steps exceeds the limit"):
                rf.integrate(rf.ModelParams(1, 0, 1), None, 1.0, 1e-12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_forcing_coverage_checked_upfront(self):
        eta = rf.TimeSeries([0.0, 5.0], [1.0, 1.0])  # misses [-5, 0)
        with pytest.raises(rf.OutOfRangeError):
            rf.integrate(rf.ModelParams(0, 0, 1), rf.ForcingSpec(eta=eta), 5.0, 0.1)

    def test_oracle_agreement_50_random(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(50):
            params = random_bounded_params(rng)
            err, scale = max_error_vs_closed_form(params, 5.0, 1e-3)
            assert err <= 1e-6 * (1.0 + scale)

    def test_fourth_order_convergence(self):
        # base step chosen so truncation still dominates roundoff; at much
        # finer steps the measured ratio collapses to the noise floor
        cases = [(1.5, 0.5), (0.5, 1.5), (2.0, 1.0), (0.9, 0.3), (0.0, 1.4)]
        for a, b in cases:
            params = rf.ModelParams(a, b, 1.0)
            e1, _ = max_error_vs_closed_form(params, 5.0, 0.05)
            e2, _ = max_error_vs_closed_form(params, 5.0, 0.025)
            assert e1 / e2 >= 12.0, (a, b, e1, e2)

    def test_mirror_consistency(self):
        # the mirror state is stitched in as p on [-T, 0): reflecting the
        # returned grid must reproduce it exactly, and the stitched curve
        # must satisfy the influence equation itself
        params = rf.ModelParams(0.8, 0.3, 1.0)
        traj = rf.integrate(params, None, 3.0, 1e-3)
        values = traj.values
        n = len(values)
        scale = 1.0 + np.max(np.abs(values))
        mirrored = values[::-1]
        assert np.max(np.abs(values - mirrored[::-1])) == 0.0
        # q(t) := p(-t) read from the stitched grid
        assert np.max(np.abs(values[: n // 2] - mirrored[n // 2 + 1 :][::-1])) <= (
            1e-9 * scale
        )
        assert rf.fde_residual(params, traj) <= 1e-4 * scale

    def test_forced_linearity(self):
        # superposition: response(f1+f2, c) = homogeneous(c) +
        # response(f1, c=0) + response(f2, c=0)
        params = rf.ModelParams(0.4, -0.3, 2.0)
        zero_ic = rf.ModelParams(params.a, params.b, 0.0)
        f1 = rf.ForcingSpec(theta=rf.GoodwillSpec(kappa=1.0, alpha=0.25))
        f2 = rf.ForcingSpec(eta=0.75)
        both = rf.ForcingSpec(theta=f1.theta, eta=f2.eta)
        T, h = 4.0, 1e-3
        total = rf.integrate(params, both, T, h).values
        hom = rf.integrate(params, None, T, h).values
        r1 = rf.integrate(zero_ic, f1, T, h).values
        r2 = rf.integrate(zero_ic, f2, T, h).values
        combined = hom + r1 + r2
        assert np.max(np.abs(total - combined)) <= 1e-6 * (1.0 + np.max(np.abs(total)))

    def test_forcing_beyond_the_doubles_is_named_without_a_warning(self):
        # the forcing steps overflow; the per-sample check names it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for forcing in (
                rf.ForcingSpec(eta=1.7e308),
                rf.ForcingSpec(eta=rf.TimeSeries([-1.0, 1.0], [1.7e308, -1.7e308])),
            ):
                with pytest.raises(rf.SolutionOverflowError, match="exceeded"):
                    rf.integrate(rf.ModelParams(0.5, 0.1, 1.0), forcing, 1.0, 0.5)


REGIMES = {
    "exponential": rf.ModelParams(0.8, 0.3, 1.0),
    "linear": rf.ModelParams(0.5, 0.5, 1.0),
    "oscillatory": rf.ModelParams(0.3, 0.8, 1.0),
}


class TestForcedOracle:
    @pytest.mark.parametrize("regime", sorted(REGIMES))
    @pytest.mark.parametrize(
        "kappa, alpha, eta", [(None, 0.0, 0.75), (1.0, 0.25, 0.0), (1.5, 0.25, -0.5)]
    )
    def test_variation_of_constants(self, regime, kappa, alpha, eta):
        params = REGIMES[regime]
        theta = None if kappa is None else rf.GoodwillSpec(kappa, alpha)
        forcing = rf.ForcingSpec(theta=theta, eta=eta)
        T, h = 5.0, 1e-3
        traj = rf.integrate(params, forcing, T, h)
        n = round(T / traj.h)
        t = traj.h * np.arange(n + 1)
        p, q = forced_exact(params, kappa, alpha, eta, t)
        exact = np.concatenate([q[1:][::-1], p])
        err = np.max(np.abs(traj.values - exact)) / np.max(np.abs(exact))
        assert err <= 1e-9, (regime, kappa, err)


def _forcing_strategy(T):
    goodwill = st.builds(
        lambda kappa, alpha, eta: rf.ForcingSpec(rf.GoodwillSpec(kappa, alpha), eta),
        st.floats(0.1, 3.0),
        st.floats(0.0, 1.0),
        st.floats(-1.0, 1.0),
    )
    tabulated = st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=12).map(
        lambda v: rf.ForcingSpec(eta=rf.TimeSeries(np.linspace(-T, T, len(v)), v))
    )
    return st.one_of(st.none(), goodwill, tabulated)


@st.composite
def integration_cases(draw):
    a, b = draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))
    params = rf.ModelParams(a, b, draw(st.floats(0.0, 5.0)))
    T = draw(st.floats(1e-3, 10.0))
    n = draw(st.integers(1, 20_000))
    return params, draw(_forcing_strategy(T)), T, T / n


class TestReferenceEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(integration_cases())
    def test_scan_matches_step_loop(self, case):
        try:
            expected = _reference_integrate(*case)
        except rf.SolutionOverflowError as exc:
            with pytest.raises(rf.SolutionOverflowError, match=re.escape(str(exc))):
                rf.integrate(*case)
            return
        values = rf.integrate(*case).values
        scale = 1.0 + np.max(np.abs(expected))
        assert np.max(np.abs(values - expected)) <= 1e-11 * scale


class TestTrajectory:
    def test_grid_and_immutability(self):
        traj = rf.Trajectory(t0=-1.0, h=0.5, values=[1.0, 2.0, 3.0, 4.0, 5.0])
        assert np.allclose(traj.times(), [-1.0, -0.5, 0.0, 0.5, 1.0])
        assert not traj.values.flags.writeable

    def test_validation(self):
        with pytest.raises(ValueError):
            rf.Trajectory(t0=0.0, h=0.0, values=[1.0])
        with pytest.raises(ValueError):
            rf.Trajectory(t0=0.0, h=0.1, values=[])
        with pytest.raises(ValueError):
            rf.Trajectory(t0=0.0, h=0.1, values=[math.nan])
