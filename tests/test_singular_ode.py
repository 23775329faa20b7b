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
    accel_at_origin,
    integrate,
    integrate_variational,
    picard_seed,
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


def test_scalar_constants_match_their_array_twins():
    # a constant g, g_x or g_xdot may come back as a scalar; broadcasting
    # must carry it exactly as the same constant spread over the array
    scalar = const_ivp()
    zeros = lambda t, x, xd: np.zeros_like(t)
    arrays = SingularIVP(-0.25, lambda t, x, xd: np.full_like(t, 1.5), zeros, zeros,
                         g_origin=1.5)
    (tau_s, seed_s), (tau_a, seed_a) = picard_seed(scalar), picard_seed(arrays)
    assert tau_s == tau_a
    assert seed_s.info["picard_diffs"] == seed_a.info["picard_diffs"]
    t = np.linspace(-tau_s, tau_s, 33)
    assert np.array_equal(np.stack(seed_s.eval(t)), np.stack(seed_a.eval(t)))
    arc_s, arc_a = integrate(scalar, -1.0), integrate(arrays, -1.0)
    assert np.array_equal(arc_s.segments[0].c2, arc_a.segments[0].c2)
    assert arc_s.info["residual"] == arc_a.info["residual"]
    t = np.linspace(-1.0, 0.0, 33)
    assert np.array_equal(np.stack(arc_s.eval(t)), np.stack(arc_a.eval(t)))


def test_rejects_zero_origin_forcing():
    with pytest.raises(DomainError):
        SingularIVP(-0.25, _zero, _zero, _zero, g_origin=0.0)


@pytest.mark.parametrize("g0", [math.nan, math.inf, -math.inf])
def test_rejects_nonfinite_origin_forcing(g0):
    with pytest.raises(DomainError, match="finite"):
        SingularIVP(-0.25, _zero, _zero, _zero, g_origin=g0)


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


@pytest.mark.parametrize("alpha, tau, rho_bound, band_dev, steps", [
    (0.0, 2.0**-10, 0.7402150967439891, 0.0014660603243323855, 6),
    (0.1, 2.0**-10, 0.7398599597757459, 0.001475063856819836, 6),
    (0.3, 2.0**-9, 0.741833354756446, 0.0030828007303759226, 7),
])
def test_seed_certificate_pins_on_the_family_arc(alpha, tau, rho_bound, band_dev, steps):
    # exact: the admissible tau is the largest of 0.5*2^-k, and the band
    # norms behind it are maxima of the same sampled values however the
    # candidates are evaluated, and the start of the iteration does not
    # enter them.  band_dev is pinned as the fixed Lobatto maps give it
    # after the contraction-bound stop, where the distance to the fixed
    # point is at most 1e-2*ARC_BUDGET*|xdd0|: from the Taylor jet
    # xdd0 + b*t the stop comes after 6 or 7 iterations.  The constant start
    # xdd0 took 14 (its linear term shrinks by 1/3 per step) and stopped at
    # most 8e-10 away, inside the 2e-8 the two stops allow together
    got, seed = picard_seed(scaled_arc_ivp(alpha))
    info = seed.info
    assert got == info["tau"] == tau
    assert info["epsilon"] == 0.025
    assert info["rho_bound"] == rho_bound
    assert info["band_dev"] == band_dev
    assert len(info["picard_diffs"]) == steps


@pytest.mark.parametrize("alpha", [0.0, 0.1, 0.3, 0.33])
def test_seed_starts_from_its_taylor_jet_inside_the_band(alpha):
    # the start is xdd0 + b*t with b*(1 - 4*lam/3) = g_t + g_xdot*xdd0, here
    # with the closed-form g_t of the family's g at the origin; the first
    # Picard step reads it at the nodes as x = xdd0*t^2/2 + b*t^3/6
    ivp = scaled_arc_ivp(alpha)
    xdd0, lam = accel_at_origin(ivp), ivp.lam
    g_t = 0.5 + 2.0 * (alpha - 1.0) / (1.0 + alpha) ** 2
    b = (g_t + ivp.g_xdot(0.0, 0.0, 0.0) * xdd0) / (1.0 - 4.0 * lam / 3.0)
    g, reads = ivp.g, []

    def reading(t, x, xd):
        if np.shape(t) == (singular_ode.N_ARC,):
            reads.append((t, x, xd))
        return g(t, x, xd)

    ivp.g = reading
    tau, seed = picard_seed(ivp)
    info = seed.info
    assert abs(b) * tau <= 0.5 * info["epsilon"] * abs(xdd0)
    t, x, xd = reads[0]
    np.testing.assert_allclose(xd - xdd0 * t, 0.5 * b * t * t, rtol=1e-6, atol=1e-18)
    np.testing.assert_allclose(x - 0.5 * xdd0 * t * t, b * t ** 3 / 6.0, rtol=1e-6, atol=1e-21)
    # the jet's first step moves x'' by about 1e-6*|xdd0|, the constant
    # start's by about 2e-3*|xdd0|
    diffs, rho = info["picard_diffs"], info["rho_bound"]
    assert diffs[0] < 1e-4 * abs(xdd0)
    # the seed's node values are within the stop's contraction bound of the
    # limit that the same Picard map reaches from them
    s, _, int1, int2 = singular_ode._lobatto_integrals(singular_ode.N_ARC, 0.0)
    t = tau * s
    X, Xd = tau * tau * int2, tau * int1
    got = limit = seed.eval(t)[2]
    for _ in range(100):
        x, xd = X @ limit, Xd @ limit
        new = lam * xd * xd / x + g(t, x, xd)
        step, limit = np.max(np.abs(new - limit)), new
        if step < 1e-15 * abs(xdd0):
            break
    else:
        pytest.fail("the Picard map did not reach its limit")
    assert np.max(np.abs(got - limit)) <= diffs[-1] * rho / (1.0 - rho)


_MAP_CASES = pytest.mark.parametrize(
    "n, anchor", [(n, anchor) for n in (8, 17, 64) for anchor in (0.0, -1.0, 1.0)])


def _close(got, want):
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@_MAP_CASES
def test_lobatto_maps_are_exact_on_series_of_full_degree(n, anchor):
    # the closed-form maps against numpy's sums and integrals of a random
    # series of degree n - 1, and against the inverse Vandermonde matrix
    cheb = np.polynomial.chebyshev
    s, fit, int1, int2 = singular_ode._lobatto_integrals(n, anchor)
    np.testing.assert_array_equal(s, np.cos(np.pi * np.arange(n) / (n - 1)))
    c = np.random.default_rng(n + 7 * int(anchor)).standard_normal(n)
    v = cheb.chebval(s, c)
    _close(fit @ v, c)
    _close(fit, np.linalg.inv(cheb.chebvander(s, n - 1)))
    c1 = cheb.chebint(c, lbnd=anchor)
    _close(int1 @ v, cheb.chebval(s, c1))
    _close(int2 @ v, cheb.chebval(s, cheb.chebint(c1, lbnd=anchor)))


@_MAP_CASES
def test_segment_maps_are_exact_on_series_of_full_degree(n, anchor):
    # x'', x' and x at the n + 3 nodes from n coefficients, against numpy's
    # Vandermonde matrices and integrals; the anchor is a node except 0 at
    # odd n, where no node holds the initial data
    cheb = np.polynomial.chebyshev
    s, w, at, maps = singular_ode._segment_maps(n, anchor)
    m = n + 3
    np.testing.assert_array_equal(s, np.sin(0.5 * np.pi * np.arange(m - 1, -m, -2) / (m - 1)))
    np.testing.assert_array_equal(at, np.flatnonzero(s == anchor))
    assert at.size == (0 if anchor == 0.0 and n % 2 else 1)
    c = np.random.default_rng(n + 7 * int(anchor)).standard_normal(n)
    c1 = cheb.chebint(c, lbnd=anchor)
    c0 = cheb.chebint(c1, lbnd=anchor)
    for got, want in zip(maps @ c, (cheb.chebvander(s, n + 1) @ c0,
                                    cheb.chebvander(s, n) @ c1, cheb.chebvander(s, n - 1) @ c)):
        _close(got, want)


def _segment_cases():
    """(segment, anchor, x0, xd0) for an arc, a seed and both pieces of a
    two-piece variational solution, with the data each was built from."""
    arc = integrate(scaled_arc_ivp(0.1), -1.0).segments[0]
    _, seed = picard_seed(scaled_arc_ivp(0.1))
    outer, inner = _variational(_kinked_coeffs, 1.0, -1.0, breaks=(_TB,)).segments
    y, yd, _ = inner.eval(_TB)
    return [(arc, 1.0, 0.0, 0.0), (seed.segments[0], 0.0, 0.0, 0.0),
            (inner, 1.0, 0.0, 1.0), (outer, 1.0, y, yd)]


def test_segment_reads_agree_with_the_chebyshev_series():
    # the barycentric reads against numpy's Clenshaw sums of the series the
    # segment stands for, at random points, its nodes, its anchor and both
    # ends (enough points for several blocks, the node hits in the last),
    # a scalar and a 2-D array
    cheb = np.polynomial.chebyshev
    rng = np.random.default_rng(11)
    for seg, anchor, x0, xd0 in _segment_cases():
        c1 = cheb.chebint(seg.c2, k=xd0, lbnd=anchor, scl=seg.half)
        c0 = cheb.chebint(c1, k=x0, lbnd=anchor, scl=seg.half)
        t = seg.mid + seg.half * np.concatenate(
            [rng.uniform(-1.0, 1.0, 3 * singular_ode._BARY_ROWS), seg.nodes, [anchor, -1.0, 1.0]])
        want = np.array([cheb.chebval((t - seg.mid) / seg.half, c) for c in (c0, c1, seg.c2)])
        bound = 1e-14 * np.max(np.abs(want), axis=1)
        got = seg.eval(t)
        assert got.shape == want.shape
        assert np.all(np.max(np.abs(got - want), axis=1) <= bound)
        one = seg.eval(t[-1])
        assert one.shape == (3,) and np.all(np.abs(one - want[:, -1]) <= bound)
        grid = seg.eval(t[-12:].reshape(3, 4))
        assert grid.shape == (3, 3, 4)
        assert np.all(np.abs(grid - want[:, -12:].reshape(3, 3, 4)) <= bound[:, None, None])
        # the anchor node holds the initial data exactly
        at = np.flatnonzero(seg.nodes == anchor)
        assert at.size == 1
        np.testing.assert_array_equal(seg.eval(seg.mid + seg.half * seg.nodes[at])[:2, 0],
                                      [x0, xd0])


def test_seed_leaves_the_origin_exactly():
    _, seed = picard_seed(scaled_arc_ivp(0.1))
    x, xd, _ = seed.eval(0.0)
    assert x == 0.0 and xd == 0.0


def test_no_chebyshev_fit_is_a_least_squares_solve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("chebfit called")

    monkeypatch.setattr(np.polynomial.chebyshev, "chebfit", refuse)
    picard_seed(scaled_arc_ivp(0.1))
    integrate(scaled_arc_ivp(0.1), -1.0)


def test_lobatto_maps_are_not_built_at_import():
    # no fixed rule is built at import: the Lobatto maps of the solver, the
    # segments' node maps and the Gauss-Legendre rule of J_unscaled and
    # gamma_form_J
    src = os.path.dirname(os.path.dirname(singular_ode.__file__))
    code = ("import newton_minres\n"
            "from newton_minres import functional, singular_ode\n"
            "print(singular_ode._lobatto_integrals.cache_info().currsize,\n"
            "      singular_ode._segment_maps.cache_info().currsize,\n"
            "      functional._gauss_legendre.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["0", "0", "0"]


def test_seed_samples_the_small_taus_only_when_no_large_one_passes(monkeypatch):
    calls = []
    band_norms = singular_ode._band_norms

    def counted(ivp, taus, eps, xdd0):
        calls.append(np.shape(taus))
        return band_norms(ivp, taus, eps, xdd0)

    monkeypatch.setattr(singular_ode, "_band_norms", counted)
    picard_seed(scaled_arc_ivp(0.1))
    assert calls == [(16,)]
    # ||g_xdot|| = 1e5 pushes tau below 0.5*2^-15: the first 16 candidates
    # fail, and the second pass must take the tau of one 60-candidate scan
    calls.clear()
    ivp = SingularIVP(-0.25, lambda t, x, xd: 1.5, _zero, lambda t, x, xd: 1e5,
                      g_origin=1.5)
    tau, seed = picard_seed(ivp)
    assert calls == [(16,), (44,)]
    eps, rho_target, xdd0 = seed.info["epsilon"], seed.info["rho_target"], accel_at_origin(ivp)
    taus = np.ldexp(0.5, -np.arange(60))
    gx, gxd, gt = band_norms(ivp, taus, eps, xdd0)
    rho = (2.0 / 3.0) * ((1.0 + eps) / (1.0 - eps)) ** 2 + 0.5 * gx * taus**2 + gxd * taus
    drift = taus * (gt + gxd * abs(xdd0) + 0.5 * gx * abs(xdd0) * taus)
    k = np.flatnonzero((rho <= rho_target) & (rho + drift / (eps * abs(xdd0)) <= 1.0))[0]
    assert k >= 16
    assert tau == taus[k] and seed.info["rho_bound"] == rho[k]


def test_seed_fails_cleanly_when_no_tau_contracts():
    # ||g_xdot|| * 2^-60 is still far above rho_target: no candidate passes
    ivp = SingularIVP(-0.25, lambda t, x, xd: 1.5, _zero, lambda t, x, xd: 1e30,
                      g_origin=1.5)
    with pytest.raises(ContractionFailure, match="no tau gives contraction"):
        picard_seed(ivp)


def test_seed_fails_cleanly_when_no_band_contracts():
    # (8/3)|lam| is within 3e-13 of 1: no band leaves the lam-term room
    with pytest.raises(ContractionFailure, match="cannot make the lam-term contract"):
        picard_seed(const_ivp(0.375 - 1e-13))


def test_seed_stops_at_its_iteration_cap(monkeypatch):
    monkeypatch.setattr(singular_ode, "PICARD_MAX_ITER", 1)
    with pytest.raises(ContractionFailure, match="did not reach its stop in 1 steps"):
        picard_seed(scaled_arc_ivp(0.1))


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


@pytest.mark.parametrize("alpha", [0.0, 0.1, 0.33])
def test_arc_newton_builds_one_system_per_step_and_inverts_nothing(monkeypatch, alpha):
    # radius_estimate is the size of the step the stop rule accepted, so no
    # system is built after the loop and no Jacobian is inverted
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.inv called")

    systems = []
    build = singular_ode._arc_system
    monkeypatch.setattr(np.linalg, "inv", refuse)
    monkeypatch.setattr(singular_ode, "_arc_system",
                        lambda *args: systems.append(args) or build(*args))
    arc = integrate(scaled_arc_ivp(alpha), -1.0)
    info = arc.info
    assert len(systems) == info["newton_iters"]
    nodes = -0.5 + 0.5 * np.cos(np.pi * np.arange(singular_ode.N_ARC) / (singular_ode.N_ARC - 1))
    xdd = arc.eval(nodes)[2]
    assert info["radius_estimate"] <= singular_ode.NEWTON_STEP_FLOOR * np.max(np.abs(xdd))


def test_every_arc_runs_the_seed_once_and_carries_its_info(monkeypatch):
    # the seed decides the branch at the singular point, so each integrate
    # runs it once, and info holds its keys beside the arc's own
    seeds = []
    seed_for = singular_ode.picard_seed
    monkeypatch.setattr(singular_ode, "picard_seed", lambda ivp: seeds.append(ivp) or seed_for(ivp))
    ivp = scaled_arc_ivp(0.1)
    arc = integrate(ivp, -1.0)
    assert seeds == [ivp]
    assert sorted(arc.info) == ["band_dev", "epsilon", "newton_iters", "picard_diffs",
                                "radius_estimate", "residual", "rho_bound", "rho_target", "tau"]


# ---------------------------------------------------------------------------
# variational equation
# ---------------------------------------------------------------------------

def _variational(fn, ydot0, t_end, lam=-0.25, breaks=()):
    """integrate_variational on the model form

        y'' = 4*lam*(t*y' - y)/t^2 + a(t)*y/t + b(t)*y' + sigma(t),

    (a, b, sigma) = fn(t), whose 4*lam term is what lam*x'^2/x contributes
    along an arc: r0 = a/t - 4*lam/t^2, r1 = 4*lam/t + b, and
    y''(0) = ((a + b)*y'(0) + sigma)(0) / (1 - 2*lam), the t->0 balance."""
    def coeffs(t):
        a, b, sigma = fn(t)
        return a / t - 4.0 * lam / (t * t), 4.0 * lam / t + b, sigma

    a0, b0, s0 = (float(c) for c in fn(0.0))
    ydd0 = ((a0 + b0) * ydot0 + s0) / (1.0 - 2.0 * lam)
    return integrate_variational(coeffs, ydd0, ydot0, t_end, breaks)


def _const(a=0.0, b=0.0, s=0.0):
    return lambda t: (a, b, s)


def test_scalar_variational_coefficients_match_their_array_twins():
    a, b, sig = 0.1, 0.2, 0.3
    arrays = lambda t: (np.full_like(t, a), np.full_like(t, b), np.full_like(t, sig))
    t = np.linspace(0.0, 0.5, 33)
    assert np.array_equal(np.stack(_variational(_const(a, b, sig), 1.0, 0.5).eval(t)),
                          np.stack(_variational(arrays, 1.0, 0.5).eval(t)))


def test_scalar_only_variational_coefficient_is_rejected():
    # the coefficients are read once per piece on the node array; a
    # scalar-only one fails loudly instead of being looped over point by point
    with pytest.raises(TypeError):
        _variational(lambda t: (0.1 * math.cos(t), 0.0, 0.0), 1.0, 0.5)


@pytest.mark.parametrize("t_end", [math.nan, math.inf, -math.inf])
def test_variational_rejects_nonfinite_end(t_end):
    with pytest.raises(DomainError, match="finite"):
        _variational(_const(), 1.0, t_end)


@pytest.mark.parametrize("ydot0", [math.nan, math.inf, -math.inf])
def test_variational_rejects_nonfinite_slope(ydot0):
    with pytest.raises(DomainError, match="finite"):
        _variational(_const(), ydot0, -1.0)


def test_variational_zero_data_stays_zero():
    y = _variational(_const(a=0.5, b=0.2), 0.0, 1.0)
    ts = np.linspace(0.0, 1.0, 50)
    assert np.max(np.abs(y.eval(ts)[0])) <= 1e-12


def test_variational_linear_solution_is_exact():
    # with a=b=s=0 the equation is y'' = 4*lam*(t*y'-y)/t^2, solved by y=c*t
    y = _variational(_const(), 0.7, 1.0)
    ts = np.linspace(0.0, 1.0, 50)
    np.testing.assert_allclose(y.eval(ts)[0], 0.7 * ts, atol=5e-11)


def test_variational_quadratic_solution_is_exact():
    # y = t + t^2 solves the equation with sigma = 2 - 4*lam - a - b - (a + 2b)*t,
    # so y''(0) = 2 comes from the t->0 balance, in either direction
    a, b, lam = 0.3, 0.2, -0.25
    fn = lambda t: (a, b, 2.0 - 4.0 * lam - a - b - (a + 2.0 * b) * t)
    for t_end in (1.0, -1.0):
        y = _variational(fn, 1.0, t_end, lam)
        ts = np.linspace(0.0, t_end, 50)
        val, _, second = y.eval(ts)
        np.testing.assert_allclose(val, ts + ts * ts, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(second, 2.0, rtol=0.0, atol=1e-11)


def test_variational_a_priori_bound_on_short_interval():
    # constant coefficients, t0 small enough that the self-consistent bound
    #   max|y''| <= ((|a|+|b|)|y'(0)| + |s|) / (1 - 2|lam| - (a/2 + b) t0)
    # has a positive denominator
    a, b, s, lam, t0 = 0.3, 0.2, 0.1, -0.25, 0.1
    y = _variational(_const(a, b, s), 1.0, t0, lam)
    denom = 1.0 - 2.0 * abs(lam) - (0.5 * a + b) * t0
    bound = ((a + b) * 1.0 + s) / denom
    ts = np.linspace(0.0, t0, 200)
    assert np.max(np.abs(y.eval(ts)[2])) <= bound + 1e-9


@settings(max_examples=25, deadline=None)
@given(st.floats(-3.0, 3.0).filter(lambda c: abs(c) > 1e-3),
       st.floats(0.1, 2.0))
def test_variational_solution_scales_linearly_in_data(c, ydot0):
    fn = _const(a=0.4, b=-0.3)
    base = _variational(fn, ydot0, 0.5)
    scaled = _variational(fn, c * ydot0, 0.5)
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


def _kinked_coeffs(t, lam=-0.25):
    a = 0.8 * np.abs(t - _TB)
    y, yd, ydd = _kinked_exact(t)
    ts = np.where(t == 0.0, 1.0, t)  # the t = 0 value is the limit below
    off = ydd - 4.0 * lam * (ts * yd - y) / (ts * ts) - a * y / ts - _B * yd
    # limits of (t*y' - y)/t^2 and y/t at t = 0
    at0 = (1.0 - 2.0 * lam) * ydd - (a + _B) * yd
    return a, _B, np.where(t == 0.0, at0, off)


def _max_err(sol, lo, hi):
    ts = np.linspace(lo, hi, 401)
    return np.max(np.abs(sol.eval(ts)[0] - _kinked_exact(ts)[0]))


def test_variational_pieces_meet_at_declared_break():
    sol = _variational(_kinked_coeffs, 1.0, -1.0, breaks=(_TB,))
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
    split = _variational(_kinked_coeffs, 1.0, -1.0, breaks=(_TB,))
    whole = _variational(_kinked_coeffs, 1.0, -1.0)
    assert len(whole.segments) == 1
    assert _max_err(whole, -1.0, 0.0) > 100.0 * _max_err(split, -1.0, 0.0)
