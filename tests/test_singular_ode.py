"""Seed + integrator for the degenerate-origin IVP x'' = lam*x'^2/x + g.

The main oracle is the constant-g problem: for g == g0 the exact solution
is the parabola x = xdd0*t^2/2 with xdd0 = g0/(1-2*lam), which exercises
the whole seed and Newton-collocation path with zero truncation error.
Everything else is checked against the equation itself (pointwise
residuals), against a tight classical DOP853 solve written here, or
against the contraction bookkeeping the seed records in info.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from newton_minres import (
    BlowUp,
    ContractionFailure,
    DenseSolution,
    DomainError,
    SingularIVP,
    VariationalCoeffs,
    accel_at_origin,
    integrate,
    integrate_variational,
    picard_seed,
    variational_accel_at_origin,
)
from newton_minres import singular_ode
from newton_minres.extremal import scaled_arc_ivp

TOL = 1e-10


def _zero(t, x, xd):
    return 0.0


def const_ivp(lam=-0.25, g0=1.5):
    return SingularIVP(lam, lambda t, x, xd: g0, _zero, _zero, g_origin=g0)


# ---------------------------------------------------------------------------
# problem validation
# ---------------------------------------------------------------------------

def test_rejects_degenerate_indicial_exponent():
    for lam in (0.0, 0.375, -0.375, 0.5, -1.0):
        with pytest.raises(DomainError):
            SingularIVP(lam, lambda t, x, xd: 1.0, _zero, _zero, g_origin=1.0)


def test_scalar_only_forcing_is_rejected():
    # g must work on arrays; a scalar-only g fails loudly instead of being
    # looped over point by point
    def g(t, x, xd):
        return 1.5 + 0.1 * math.cos(t)

    ivp = SingularIVP(-0.25, g, _zero, _zero, g_origin=1.6)
    with pytest.raises(TypeError):
        picard_seed(ivp)


def test_rejects_zero_origin_forcing():
    with pytest.raises(DomainError):
        SingularIVP(-0.25, _zero, _zero, _zero, g_origin=0.0)


def test_accel_at_origin_closed_form():
    assert accel_at_origin(const_ivp(-0.25, 1.5)) == pytest.approx(1.0, abs=1e-15)
    # general: g0/(1-2*lam)
    assert accel_at_origin(const_ivp(-0.1, 2.0)) == pytest.approx(2.0 / 1.2, rel=1e-14)


# ---------------------------------------------------------------------------
# Picard seed
# ---------------------------------------------------------------------------

def test_seed_exact_on_constant_forcing():
    ivp = const_ivp()
    tau, seed = picard_seed(ivp)
    assert 0.0 < tau <= 1.0
    ts = np.linspace(-tau, tau, 41)
    x, xd, xdd = seed.eval(ts)
    np.testing.assert_allclose(x, 0.5 * ts * ts, atol=1e-12)
    np.testing.assert_allclose(xd, ts, atol=1e-12)
    np.testing.assert_allclose(xdd, np.ones_like(ts), atol=1e-11)


def test_seed_infos_certify_contraction():
    ivp = const_ivp()
    tau, seed = picard_seed(ivp)
    info = seed.info
    assert info["tau"] == tau
    # for lam = -1/4 the lam-part of the contraction bound alone forces
    # the band below its starting 0.1
    assert info["epsilon"] <= 0.1
    assert info["rho_bound"] <= info["rho_target"] + 1e-12
    # successive Picard diffs must contract at least at the certified rate
    diffs = np.asarray(info["picard_diffs"])
    assert diffs[-1] < TOL
    big = diffs > 1e-13  # below that, roundoff dominates the ratio
    ratios = diffs[1:][big[:-1]] / diffs[:-1][big[:-1]]
    assert np.all(ratios <= info["rho_target"] + 0.05)
    # iterate stayed inside the certified band around the parabola
    assert info["band_dev"] <= 1.05 * info["epsilon"]


def test_seed_second_derivative_matches_origin_accel(monkeypatch):
    monkeypatch.setattr(singular_ode, "PICARD_BAND", 0.05)
    ivp = const_ivp(-0.25, -2.0)
    tau, seed = picard_seed(ivp)
    assert abs(seed.eval(0.0)[2] - accel_at_origin(ivp)) <= TOL


def test_seed_shrinks_band_when_lam_term_leaves_no_room(monkeypatch):
    # |lam| = 0.37: the lam-part of the bound is 0.9867 already, so a wide
    # starting band must either fail or come back drastically narrowed
    monkeypatch.setattr(singular_ode, "PICARD_BAND", 0.99)
    ivp = const_ivp(-0.37, 1.5)
    try:
        tau, seed = picard_seed(ivp)
    except ContractionFailure:
        return
    assert seed.info["epsilon"] < 1e-3


@pytest.mark.parametrize("alpha, tau, rho_bound, band_dev", [
    (0.0, 2.0**-10, 0.7402150967439891, 0.0014660606178256153),
    (0.1, 2.0**-10, 0.7398599597757459, 0.0014750641073261414),
    (0.3, 2.0**-9, 0.741833354756446, 0.003082800562282359),
])
def test_seed_certificate_pins_on_the_family_arc(alpha, tau, rho_bound, band_dev):
    # exact: the admissible tau is the largest of 0.5*2^-k, and the band
    # norms behind it are maxima of the same sampled values however the
    # candidates are evaluated.  band_dev is pinned as the fixed Lobatto
    # maps give it; the least-squares fit they replaced is the same linear
    # map in exact arithmetic and gave values about 8e-13 (relative) away,
    # e.g. 0.0014660606178260593 at alpha = 0.  The seed's rule went from
    # 48 nodes to N_ARC = 64, which moved band_dev by at most 4.6e-13
    # (relative; 0.0014660606178249491 on 48 nodes at alpha = 0)
    got, seed = picard_seed(scaled_arc_ivp(alpha))
    info = seed.info
    assert got == info["tau"] == tau
    assert info["epsilon"] == 0.025
    assert info["rho_bound"] == rho_bound
    assert info["band_dev"] == band_dev
    assert len(info["picard_diffs"]) == 19


@pytest.mark.parametrize("n, anchor", [(64, 0.0), (64, -1.0), (64, 1.0)])
def test_lobatto_maps_are_exact_on_series_of_full_degree(n, anchor):
    s, fit, int1, int2 = singular_ode._lobatto_integrals(n, anchor)
    c = np.random.default_rng(n + 7 * int(anchor)).standard_normal(n)
    v = np.polynomial.chebyshev.chebval(s, c)

    def close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    close(fit @ v, c)
    c1 = np.polynomial.chebyshev.chebint(c, lbnd=anchor)
    close(int1 @ v, np.polynomial.chebyshev.chebval(s, c1))
    close(int2 @ v, np.polynomial.chebyshev.chebval(
        s, np.polynomial.chebyshev.chebint(c1, lbnd=anchor)))


def test_seed_leaves_the_origin_exactly():
    _, seed = picard_seed(scaled_arc_ivp(0.1))
    x, xd, _ = seed.eval(0.0)
    assert x == 0.0 and xd == 0.0


def test_no_chebyshev_fit_is_a_least_squares_solve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("chebfit called")

    monkeypatch.setattr(singular_ode._cheb, "chebfit", refuse)
    picard_seed(scaled_arc_ivp(0.1))
    integrate(scaled_arc_ivp(0.1), -1.0)


def test_lobatto_maps_are_not_built_at_import():
    # neither fixed rule is built at import: the Lobatto maps of the solver
    # and the Gauss-Legendre rule of J_unscaled and gamma_form_J
    src = os.path.dirname(os.path.dirname(singular_ode.__file__))
    code = ("import newton_minres\n"
            "from newton_minres import functional, singular_ode\n"
            "print(singular_ode._lobatto_integrals.cache_info().currsize,\n"
            "      functional._gauss_legendre.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["0", "0"]


def test_seed_samples_all_candidate_taus_in_one_pass(monkeypatch):
    calls = []
    band_norms = singular_ode._band_norms

    def counted(ivp, taus, eps, xdd0):
        calls.append(np.shape(taus))
        return band_norms(ivp, taus, eps, xdd0)

    monkeypatch.setattr(singular_ode, "_band_norms", counted)
    picard_seed(scaled_arc_ivp(0.1))
    assert calls == [(60,)]


def test_seed_fails_cleanly_when_no_tau_contracts():
    # ||g_xdot|| * 2^-60 is still far above rho_target: no candidate passes
    ivp = SingularIVP(-0.25, lambda t, x, xd: 1.5, _zero, lambda t, x, xd: 1e30,
                      g_origin=1.5)
    with pytest.raises(ContractionFailure, match="no tau gives contraction"):
        picard_seed(ivp)


# ---------------------------------------------------------------------------
# dense solutions
# ---------------------------------------------------------------------------

def test_solution_domain_is_enforced():
    sol = integrate(const_ivp(), 0.5)
    lo, hi = sol.domain
    assert (lo, hi) == (0.0, 0.5)
    with pytest.raises(DomainError):
        sol.eval(hi + 1e-6)
    with pytest.raises(DomainError):
        sol.eval(lo - 1e-6)
    x, xd, xdd = sol.eval(np.linspace(lo, hi, 33))
    assert x.shape == xd.shape == xdd.shape == (33,)


@pytest.mark.parametrize("end", [math.nan, math.inf])
def test_solution_rejects_nonfinite_breakpoints(end):
    seg = integrate(const_ivp(), 0.5).segments[0]
    with pytest.raises(DomainError):
        DenseSolution([0.0, end], [seg])


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------

def test_integrate_exact_on_constant_forcing_both_directions():
    # |t_end| = 0.25 is inside the seed's tau = 0.5: the arc is solved anyway
    ivp = const_ivp()
    for t_end in (1.0, -1.0, 0.25, -0.25):
        sol = integrate(ivp, t_end)
        assert "newton_iters" in sol.info
        ts = np.linspace(0.0, t_end, 101)
        x, xd, xdd = sol.eval(ts)
        np.testing.assert_allclose(x, 0.5 * ts * ts, atol=5e-11)
        np.testing.assert_allclose(xd, ts, atol=5e-10)
        np.testing.assert_allclose(xdd, np.ones_like(ts), atol=5e-8)


def test_short_arc_checks_its_residual_between_the_seed_and_its_end():
    # an arc no longer than the seed's tau = 0.5 is split at its middle: the
    # seed checks [0, t_end/2], the residual [t_end/2, t_end].  The forcing
    # adds, on [t_end/2, t_end] only, a wiggle that vanishes at the arc's
    # Lobatto nodes and at t_end: the collocation sees constant forcing, and
    # only a residual read between the nodes finds the equation broken.  It
    # also vanishes at k*t_end/8, the points an unsplit seed check over
    # [0, t_end] reads, so a residual read there alone would miss it too
    t_end, g0 = 0.01, 1.5
    ivp0 = const_ivp(g0=g0)
    assert integrate(ivp0, t_end).info["tau"] == 0.5

    def g(t, x, xd):
        s = np.clip(2.0 * np.asarray(t) / t_end - 1.0, -1.0, 1.0)
        theta = np.arccos(s)
        wiggle = np.sin(63.0 * theta) * np.sin(theta) * s * (s - 0.25) * (s - 0.5) * (s - 0.75)
        return g0 + np.where((t > 0.5 * t_end) & (t < t_end), wiggle, 0.0)

    ivp = SingularIVP(ivp0.lam, g, _zero, _zero, g_origin=g0)
    with pytest.raises(BlowUp, match="misses its budget"):
        integrate(ivp, t_end)


def test_integrate_pointwise_residual_within_budget():
    # nonlinearity with all three arguments active
    def g(t, x, xd):
        return 1.5 + 0.3 * np.sin(t) + 0.2 * x - 0.1 * xd

    ivp = SingularIVP(-0.25, g,
                      lambda t, x, xd: 0.2,
                      lambda t, x, xd: -0.1,
                      g_origin=1.5)
    sol = integrate(ivp, 1.0)
    tau = sol.info["tau"]
    ts = np.linspace(tau / 2.0, 1.0, 100)
    x, xd, xdd = sol.eval(ts)
    resid = xdd - ivp.lam * xd * xd / x - g(ts, x, xd)
    assert np.max(np.abs(resid)) <= 10.0 * TOL


@pytest.mark.parametrize("t_end", [math.nan, math.inf, -math.inf])
def test_integrate_rejects_nonfinite_end(t_end):
    # a NaN end would put NaN nodes into the arc's collocation
    with pytest.raises(DomainError, match="finite"):
        integrate(const_ivp(), t_end)


def test_integrate_raises_on_return_to_zero():
    # forcing turns negative quickly: x comes back to the axis
    def g(t, x, xd):
        return 1.5 - 8.0 * t

    ivp = SingularIVP(-0.25, g, _zero, _zero, g_origin=1.5)
    with pytest.raises(BlowUp):
        integrate(ivp, 3.0)


def _dop853_reference(ivp, seed, tau, ts):
    # an independent classical solve of the family arc beyond the seed
    def rhs(t, y):
        return (y[1], ivp.lam * y[1] * y[1] / y[0] + ivp.g(t, y[0], y[1]))

    x0, xd0, _ = seed.eval(-tau)
    res = solve_ivp(rhs, (-tau, -1.0), (x0, xd0), method="DOP853",
                    rtol=1e-13, atol=1e-15, dense_output=True)
    assert res.success
    return res.sol(ts)


@pytest.mark.parametrize("alpha", [0.0, 0.01, 0.1, 0.2, 0.3, 0.333, 0.3333])
def test_family_arc_matches_a_tight_dop853_reference(alpha):
    ivp = scaled_arc_ivp(alpha)
    sol = integrate(ivp, -1.0)
    tau, seed = picard_seed(ivp)
    assert sol.info["tau"] == tau
    ts = np.linspace(-1.0, -tau, 801)
    x_ref, xd_ref = _dop853_reference(ivp, seed, tau, ts)
    x, xd, xdd = sol.eval(ts)
    assert np.max(np.abs(x - x_ref)) <= 1e-12
    assert np.max(np.abs(xd - xd_ref)) <= 1e-11
    resid = xdd - ivp.lam * xd * xd / x - ivp.g(ts, x, xd)
    assert np.max(np.abs(resid)) <= 2e-10
    info = sol.info
    assert 1 <= info["newton_iters"] < singular_ode.NEWTON_MAX_ITER
    assert info["residual"] <= 2e-10
    assert info["radius_estimate"] <= 1e-11


def test_integrate_runs_no_classical_stepper(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("solve_ivp called")

    monkeypatch.setattr(singular_ode, "solve_ivp", refuse)
    sol = integrate(scaled_arc_ivp(0.1), -1.0)
    assert sol.info["newton_iters"] >= 1


def test_integrate_raises_at_the_newton_cap(monkeypatch):
    monkeypatch.setattr(singular_ode, "NEWTON_MAX_ITER", 2)
    with pytest.raises(BlowUp, match="did not converge in 2 steps"):
        integrate(scaled_arc_ivp(0.1), -1.0)


def test_integrate_raises_when_the_series_misses_its_budget():
    # Newton converges at the 64 nodes, but the forcing's wiggles are far
    # finer than the nodes resolve: the oversampled residual shows it
    ivp = SingularIVP(-0.25, lambda t, x, xd: 1.5 + 0.5 * np.sin(200.0 * t),
                      _zero, _zero, g_origin=1.5)
    with pytest.raises(BlowUp, match="misses its budget"):
        integrate(ivp, 1.0)


def test_integrate_raises_on_a_nan_forcing():
    # NaN reaches the Newton matrix: a solver error, never numpy's
    ivp = SingularIVP(-0.25, lambda t, x, xd: 1.5 + np.where(t > 0.9, np.nan, 0.0),
                      _zero, _zero, g_origin=1.5)
    with pytest.raises(BlowUp):
        integrate(ivp, 1.0)


@pytest.mark.parametrize("wrong", ["other_arc", "narrow_band"])
def test_integrate_raises_when_the_seed_disagrees(monkeypatch, wrong):
    seed_for = singular_ode.picard_seed

    def bad_seed(ivp):
        if wrong == "other_arc":
            return seed_for(scaled_arc_ivp(0.3))
        tau, seed = seed_for(ivp)
        seed.info["epsilon"] = 1e-12  # no arc leaves the parabola that little
        return tau, seed

    monkeypatch.setattr(singular_ode, "picard_seed", bad_seed)
    with pytest.raises(BlowUp, match="disagrees with the Picard seed"):
        integrate(scaled_arc_ivp(0.0), -1.0)


# ---------------------------------------------------------------------------
# variational equation
# ---------------------------------------------------------------------------

def _const_coeffs(a=0.0, b=0.0, s=0.0, lam=-0.25):
    return VariationalCoeffs(lambda t: (a, b, s), lam)


def test_scalar_only_variational_coefficient_is_rejected():
    # the coefficients are read once per piece on the node array; a
    # scalar-only one fails loudly instead of being looped over point by point
    coeffs = VariationalCoeffs(lambda t: (0.1 * math.cos(t), 0.0, 0.0), -0.25)
    with pytest.raises(TypeError):
        integrate_variational(coeffs, 1.0, 0.5)


@pytest.mark.parametrize("t_end", [math.nan, math.inf, -math.inf])
def test_variational_rejects_nonfinite_end(t_end):
    with pytest.raises(DomainError, match="finite"):
        integrate_variational(_const_coeffs(), 1.0, t_end)


def test_variational_accel_closed_form():
    assert variational_accel_at_origin(_const_coeffs(s=1.5), 0.0) == pytest.approx(1.0)
    assert variational_accel_at_origin(_const_coeffs(a=3.0), 1.0) == pytest.approx(2.0)


def test_variational_zero_data_stays_zero():
    y = integrate_variational(_const_coeffs(a=0.5, b=0.2), 0.0, 1.0)
    ts = np.linspace(0.0, 1.0, 50)
    assert np.max(np.abs(y.eval(ts)[0])) <= 1e-12


def test_variational_linear_solution_is_exact():
    # with a=b=s=0 the equation is y'' = 4*lam*(t*y'-y)/t^2, solved by y=c*t
    y = integrate_variational(_const_coeffs(), 0.7, 1.0)
    ts = np.linspace(0.0, 1.0, 50)
    np.testing.assert_allclose(y.eval(ts)[0], 0.7 * ts, atol=5e-11)


def test_variational_quadratic_solution_is_exact():
    # y = t + t^2 solves the equation with sigma = 2 - 4*lam - a - b - (a + 2b)*t,
    # so y''(0) = 2 comes from the t->0 balance, in either direction
    a, b, lam = 0.3, 0.2, -0.25
    coeffs = VariationalCoeffs(
        lambda t: (a, b, 2.0 - 4.0 * lam - a - b - (a + 2.0 * b) * t), lam)
    for t_end in (1.0, -1.0):
        y = integrate_variational(coeffs, 1.0, t_end)
        ts = np.linspace(0.0, t_end, 50)
        val, _, second = y.eval(ts)
        np.testing.assert_allclose(val, ts + ts * ts, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(second, 2.0, rtol=0.0, atol=1e-11)


def test_variational_a_priori_bound_on_short_interval():
    # constant coefficients, t0 small enough that the self-consistent bound
    #   max|y''| <= ((|a|+|b|)|y'(0)| + |s|) / (1 - 2|lam| - (a/2 + b) t0)
    # has a positive denominator
    a, b, s, lam, t0 = 0.3, 0.2, 0.1, -0.25, 0.1
    y = integrate_variational(_const_coeffs(a, b, s, lam), 1.0, t0)
    denom = 1.0 - 2.0 * abs(lam) - (0.5 * a + b) * t0
    bound = ((a + b) * 1.0 + s) / denom
    ts = np.linspace(0.0, t0, 200)
    assert np.max(np.abs(y.eval(ts)[2])) <= bound + 1e-9


@settings(max_examples=25, deadline=None)
@given(st.floats(-3.0, 3.0).filter(lambda c: abs(c) > 1e-3),
       st.floats(0.1, 2.0))
def test_variational_solution_scales_linearly_in_data(c, ydot0):
    coeffs = _const_coeffs(a=0.4, b=-0.3)
    base = integrate_variational(coeffs, ydot0, 0.5)
    scaled = integrate_variational(coeffs, c * ydot0, 0.5)
    ts = np.linspace(0.05, 0.5, 7)
    np.testing.assert_allclose(scaled.eval(ts)[0], c * base.eval(ts)[0],
                               rtol=1e-8, atol=1e-10)


# manufactured solution y = sin t + (tb - t)^3 for t < tb: y'' is continuous
# with a kink at tb, as zeta's is at the switching point, and the kinked
# coefficient a(t) = 0.8|t - tb| makes tb a break of the equation
_TB, _B = -0.4, 0.3


def _kinked_exact(t):
    k = np.maximum(_TB - t, 0.0)
    return np.sin(t) + k ** 3, np.cos(t) - 3.0 * k * k, -np.sin(t) + 6.0 * k


def _kinked_coeffs(breaks, lam=-0.25):
    def a_fn(t):
        return 0.8 * np.abs(t - _TB)

    def sigma_fn(t):
        y, yd, ydd = _kinked_exact(t)
        ts = np.where(t == 0.0, 1.0, t)  # the t = 0 value is the limit below
        off = ydd - 4.0 * lam * (ts * yd - y) / (ts * ts) - a_fn(t) * y / ts - _B * yd
        # limits of (t*y' - y)/t^2 and y/t at t = 0
        at0 = (1.0 - 2.0 * lam) * ydd - (a_fn(0.0) + _B) * yd
        return np.where(t == 0.0, at0, off)

    return VariationalCoeffs(lambda t: (a_fn(t), _B, sigma_fn(t)), lam, breaks=breaks)


def _max_err(sol, lo, hi):
    ts = np.linspace(lo, hi, 401)
    return np.max(np.abs(sol.eval(ts)[0] - _kinked_exact(ts)[0]))


def test_variational_pieces_meet_at_declared_break():
    sol = integrate_variational(_kinked_coeffs((_TB,)), 1.0, -1.0)
    assert len(sol.segments) == 2
    assert _max_err(sol, -1.0, _TB) <= 1e-10
    assert _max_err(sol, _TB, 0.0) <= 1e-10
    # value and slope carry over from the inner piece to the outer one
    h = 1e-12
    y_lo, yd_lo, _ = sol.eval(_TB - h)
    y_hi, yd_hi, _ = sol.eval(_TB + h)
    assert abs(y_lo - y_hi) <= 1e-11
    assert abs(yd_lo - yd_hi) <= 1e-11


def test_variational_without_break_misses_the_kink():
    split = integrate_variational(_kinked_coeffs((_TB,)), 1.0, -1.0)
    whole = integrate_variational(_kinked_coeffs(()), 1.0, -1.0)
    assert len(whole.segments) == 1
    assert _max_err(whole, -1.0, 0.0) > 100.0 * _max_err(split, -1.0, 0.0)
