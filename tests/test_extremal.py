"""Arc solves, switching radius, optimality certificates, scaling maps.

Closed-form endpoint Taylor data and the alpha=0 closed form of the
switching integral act as the independent oracles here; everything with a
hand-derived formula is additionally cross-checked against quadrature or
finite differences of the solved curves.
"""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from newton_minres import (
    BodyEvaluator,
    DomainError,
    EvaluationError,
    InconsistentScale,
    NoRoot,
    SignChange,
    I_closed_form_alpha0,
    I_of,
    abel_residual,
    adjoint_omega,
    assemble_profile,
    body_evaluate,
    endpoint_weight_closed_form,
    endpoint_weight_quadrature,
    field_jacobian_check,
    find_switch,
    jacobi_check,
    limit_constants,
    nu_derivatives_at_one,
    solve_for_height,
    solve_nu,
    unscale,
)
from newton_minres import extremal, functional, integrate, singular_ode
from newton_minres.cli import DEFAULT_TABLE_ROWS
from newton_minres.extremal import scaled_arc_ivp, variational_coeffs_along
from newton_minres.functional import lagrangian_value

RHO_HAT = 0.108984


# ---------------------------------------------------------------------------
# endpoint Taylor data and arc solves
# ---------------------------------------------------------------------------

def test_endpoint_taylor_closed_forms():
    v0, v1, v2, v3 = nu_derivatives_at_one(0.0)
    assert (v0, v1) == (1.0, 1.0)
    assert v2 == pytest.approx(1.0, abs=1e-15)
    assert v3 == pytest.approx(1.5, abs=1e-15)
    _, _, v2, v3 = nu_derivatives_at_one(1.0)
    assert v2 == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert v3 == pytest.approx(0.75, abs=1e-15)
    assert nu_derivatives_at_one(3.0)[2] == 0.0  # curvature degenerates


def test_solved_arc_hits_endpoint_data():
    nu = solve_nu(0.0)
    assert nu.eval(1.0)[0] == pytest.approx(1.0, abs=1e-12)
    assert nu.eval(1.0)[1] == pytest.approx(1.0, abs=1e-10)
    assert nu.eval(0.0)[0] == pytest.approx(0.3157595, abs=1e-6)
    assert nu.eval(0.0)[1] == pytest.approx(0.5350553, abs=1e-6)


def test_solved_arc_taylor_matches_formulas():
    for alpha in (0.0, 0.1):
        nu = solve_nu(alpha)
        _, _, v2, v3 = nu_derivatives_at_one(alpha)
        assert nu.eval(1.0)[2] == pytest.approx(v2, abs=1e-8)
        assert nu.third(1.0) == pytest.approx(v3, abs=1e-6)
    # fourth derivative at the endpoint, alpha=0: 51/20 (finite difference
    # of the reconstructed third derivative)
    nu = solve_nu(0.0)
    h = 1e-4
    v4 = (nu.third(1.0) - nu.third(1.0 - h)) / h
    assert v4 == pytest.approx(2.55, abs=2e-2)


def test_scaled_integrand_positivity_on_arc():
    nu = solve_nu(0.05)
    qs = np.linspace(0.3, 0.999, 50)
    vals = [lagrangian_value(q, *nu.eval(q)[:2], 0.05) for q in qs]
    assert np.all(np.asarray(vals) > 0.0)


# ---------------------------------------------------------------------------
# switching integral
# ---------------------------------------------------------------------------

def test_switching_integral_against_closed_form():
    nu = solve_nu(0.0)
    for rho in (0.05, 0.1, 0.2, 0.5):
        assert abs(I_of(rho, 0.0, nu) - I_closed_form_alpha0(rho, nu)) <= 1e-8


def _seeded_switch_points(n):
    rng = np.random.default_rng(20240)
    alphas = rng.uniform(0.0, 0.3333, n)
    # half the radii spread over [0.0025, 0.99], half log-spaced toward the rim
    rhos = np.where(np.arange(n) % 2, rng.uniform(0.0025, 0.99, n),
                    1.0 - 10.0 ** rng.uniform(-4.0, -2.0, n))
    return list(zip(alphas, rhos))


@pytest.mark.parametrize("alpha, rho", _seeded_switch_points(12))
def test_switching_integral_against_adaptive_quad(alpha, rho):
    # scipy's quad is the reference of the graded Gauss-Legendre I_of.  The
    # gap is taken relative to int |integrand|: the integrand changes sign,
    # and near the root (and near the rim as alpha -> 1/3) I itself is far
    # below the size of its parts, where both rules read only round-off
    nu = solve_nu(alpha)
    nr, a, _ = nu.eval(rho)
    b = nr - rho * a

    def f(q):
        return extremal._switch_kernel(q, a, b, alpha, q)

    opts = dict(epsabs=0.0, epsrel=2e-14, limit=500, full_output=1)
    ref = quad(f, 0.0, rho, **opts)[0]
    size = quad(lambda q: abs(f(q)), 0.0, rho, **opts)[0]
    assert abs(I_of(rho, alpha, nu) - ref) <= 1e-12 * size


@pytest.mark.parametrize("slope", [-1.0, -2.0])
def test_switching_integral_with_a_falling_continuation(slope):
    # a stub nu with nu'(rho) <= -1: eta = -q is never met for q >= 0, so the
    # graded rule has no break to place below 0 and must still end
    class Stub:
        def eval(self, rho):
            return 0.8, slope, 0.0

    rho, alpha = 0.5, 0.1
    b = 0.8 - rho * slope
    ref = quad(lambda q: extremal._switch_kernel(q, slope, b, alpha, q), 0.0, rho,
               epsabs=0.0, epsrel=2e-14, full_output=1)[0]
    assert abs(I_of(rho, alpha, Stub()) - ref) <= 1e-12 * abs(ref)


def test_switching_integral_shape():
    nu = solve_nu(0.0)
    # vanishes quadratically (negative side) as the switch moves to center
    for rho in (0.0025, 0.01, 0.04):
        val = I_of(rho, 0.0, nu)
        assert val < 0.0
        assert -4.0 <= val / rho**2 <= -1.5
    # positive blow-up ~ (1-rho)^-2 with the expected constant at the rim
    d = 1e-3
    val = I_of(1.0 - d, 0.0, nu)
    assert val * d * d == pytest.approx(3.0 * np.pi / 8.0 - 1.0, rel=3e-2)


def test_switching_integral_endpoint_sign_flips_past_third():
    # sqrt-order positive blow-up inside the validity range...
    nu = solve_nu(0.1)
    vals = [I_of(1.0 - d, 0.1, nu) / np.sqrt(d) for d in (1e-4, 4e-4)]
    assert vals[0] > 0.0 and vals[1] > 0.0
    assert vals[1] / vals[0] == pytest.approx(1.0, abs=5e-2)
    # ...and negative approach beyond it
    nu = solve_nu(0.4)
    assert I_of(1.0 - 1e-4, 0.4, nu) < 0.0


def test_switch_radius_and_derivative_at_limit():
    nu = solve_nu(0.0)
    rho = find_switch(0.0, nu)
    assert rho == pytest.approx(RHO_HAT, abs=1e-5)
    assert abs(I_of(rho, 0.0, nu)) < 1e-12
    h = 1e-5
    slope = (I_of(rho + h, 0.0, nu) - I_of(rho - h, 0.0, nu)) / (2.0 * h)
    assert slope == pytest.approx(0.220371, abs=1e-4)


def test_switch_radius_along_family():
    a1, a2 = 1.0 / 2.43337**2, 1.0 / 316.727**2
    assert find_switch(a1, solve_nu(a1)) == pytest.approx(0.548904, abs=1e-4)
    assert find_switch(a2, solve_nu(a2)) == pytest.approx(0.109020, abs=1e-4)


@pytest.mark.parametrize("alpha", [0.0, 1e-300, 0.01, 0.1, 0.2, 0.3, 0.3333])
def test_switch_scan_brackets_like_the_adaptive_scan(alpha):
    # reference: the scalar scan over the same grid with the graded I_of,
    # then scipy's brentq on it; find_switch's fixed rule must pick the same
    # bracket and its interpolant's root land within 1e-12 of the reference
    nu = solve_nu(alpha)
    grid = np.arange(0.015, 0.985, 0.02)
    vals = [I_of(r, alpha, nu) for r in grid]
    i = next(i for i in range(len(grid) - 1) if vals[i] < 0.0 <= vals[i + 1])
    ref = brentq(lambda r: I_of(r, alpha, nu), grid[i], grid[i + 1],
                 xtol=1e-12, rtol=4.0 * np.finfo(float).eps)
    rho = find_switch(alpha, nu)
    assert abs(rho - ref) <= 1e-12
    assert grid[i] <= rho <= grid[i + 1]


@pytest.mark.parametrize("alpha", [0.0, 1e-12, 0.01, 0.05, 0.1, 0.2, 0.3, 0.3333])
def test_switch_root_is_a_round_off_zero(alpha):
    # the interpolant's root is a zero of the independent graded rule to
    # round-off, well inside find_switch's own 1e-12 gate
    nu = solve_nu(alpha)
    assert abs(I_of(find_switch(alpha, nu), alpha, nu)) <= 1e-14


@pytest.mark.parametrize("M", [0.0875, 0.5, 1.0, 1.5, 2.0, 2.5, 5.0, 10.0, 50.0, 100.0, 1e6])
def test_brentq_matches_scipy_on_the_height_root(M):
    # the paper's nine heights and the two ends of the table's range: the
    # Newton height root lands within the old brentq tolerance of scipy's
    # brentq on the same h(p0) over the bracket [lo, hi] of the height bounds
    sol = solve_for_height(M)

    def h(p0):
        return p0 * assemble_profile(1.0 / (p0 * p0)).height0 - M

    lo = max(np.sqrt(3.0) * (1.0 + 1e-6) + 1e-9, M / extremal._H0_HI)
    hi = min(max(M / extremal._H0_LO, lo) + 1.0, extremal._P0_TOP)
    ref = brentq(h, lo, hi, xtol=1e-10, rtol=1e-13)
    assert abs(sol.p0 - ref) <= 1e-10 + 1e-12 * ref


def test_switch_root_failing_the_adaptive_check_is_no_root(monkeypatch):
    # the fixed rule's root is verified by one I_of call, on its own rule
    nu = solve_nu(0.0)
    monkeypatch.setattr(extremal, "I_of", lambda rho, alpha, nu: 1.0)
    with pytest.raises(NoRoot, match=r"not a clean zero: I=1\.000e\+00"):
        find_switch(0.0, nu)


def test_switch_bracket_with_several_roots_is_no_root(monkeypatch):
    # no fallback: a bracket whose interpolant crosses zero three times is
    # refused, not narrowed; the cubic is exact in the degree-15 interpolant
    nu = solve_nu(0.0)
    monkeypatch.setattr(extremal, "_switch_rule",
                        lambda rho, a, b, alpha: (rho - 0.3) * (rho - 0.301) * (rho - 0.302))
    with pytest.raises(NoRoot, match=r"interpolant has 3 roots on \[0\.295, 0\.315\]"):
        find_switch(0.0, nu)


def test_switch_adjoint_and_J_scaled_make_no_adaptive_quad(monkeypatch):
    prof = assemble_profile(0.1)

    def refuse(*args, **kwargs):
        raise AssertionError("quad_value called")

    with monkeypatch.context() as m:
        m.setattr(functional, "quad_value", refuse)
        m.setattr(extremal, "quad_value", refuse)
        functional.J_scaled(prof)
        adjoint_omega(prof)

    # find_switch reaches I_of once, to verify the root
    calls = []

    def counted_I_of(*args):
        calls.append(args[0])
        return I_of(*args)

    monkeypatch.setattr(extremal, "I_of", counted_I_of)
    rho = find_switch(0.1, prof.nu)
    assert calls == [rho]


def test_switch_rejects_invalid_family_parameter():
    # alpha is checked before nu is read, so any solved arc will do
    nu = solve_nu(0.1)
    for alpha in (1.0 / 3.0, 0.35, 0.5):
        with pytest.raises(NoRoot, match="hypothesis"):
            find_switch(alpha, nu)


def test_switch_residual_small_along_family():
    for alpha in (0.0, 0.1, 0.3):
        nu = solve_nu(alpha)
        rho = find_switch(alpha, nu)
        assert abs(I_of(rho, alpha, nu)) < 1e-12


# ---------------------------------------------------------------------------
# assembled profiles
# ---------------------------------------------------------------------------

def test_profile_is_c1_and_convex():
    prof = assemble_profile(0.01)
    rho = prof.rho
    below, above = prof.eval(rho - 1e-12), prof.eval(rho + 1e-12)
    assert below[0] == pytest.approx(above[0], abs=1e-10)
    assert below[1] == pytest.approx(above[1], abs=1e-8)
    qs = np.linspace(0.0, 1.0, 300)
    second = prof.eval(qs)[2]
    assert np.all(second >= -1e-12)
    assert prof.eval(0.0)[0] == prof.height0
    with pytest.raises(DomainError):
        prof.eval(1.2)


def test_profile_height_times_slope_scale():
    alpha = 1.0 / 3.71647**2
    prof = assemble_profile(alpha)
    assert prof.height0 * 3.71647 == pytest.approx(1.0, abs=1e-4)


# ---------------------------------------------------------------------------
# optimality certificates
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.0, 0.01, 0.1, 0.3333])
def test_adjoint_deficiency_negative_inside_flat(alpha):
    prof = assemble_profile(alpha)
    adj = adjoint_omega(prof)
    # adaptive reference: omega(qt) = int_qt^rho (qt-q) G(q)/4 dq
    a, b, rho = prof.slope, prof.height0, prof.rho

    def quarter_G(q):
        e = a * q + b
        rhs = (-0.25 * (a - 1.0) ** 2 / (e - q) - 0.25 * (a + 1.0) ** 2 / (e + q)
               + 2.0 * e * a * a / (e * e + alpha))
        return np.sqrt(e * e - q * q) / (e * e + alpha) ** 2 * rhs

    for i in range(0, 201, 20):
        q0 = adj.q[i]
        ref = quad(lambda q: (q0 - q) * quarter_G(q), q0, rho,
                   epsabs=1e-14, epsrel=1e-13, limit=200)[0]
        assert abs(adj.omega[i] - ref) <= 1e-13
    interior = (adj.q > 0.01) & (adj.q < prof.rho - 0.01)
    assert np.all(adj.omega[interior] < 0.0)
    # at the center the deficiency is minus the switching integral: zero here
    assert abs(adj.omega[0]) < 1e-8
    assert abs(adj.omega[0] + I_of(prof.rho, alpha, prof.nu)) < 1e-12
    assert adj.omega[-1] == 0.0
    # and it leaves the origin downward
    assert adj.omega[1] - adj.omega[0] < 0.0


@pytest.mark.parametrize("alpha", [0.0, 0.1])
def test_no_conjugate_point(alpha):
    prof = assemble_profile(alpha)
    min_abs, zeta = jacobi_check(prof)
    assert min_abs > 0.0
    # normalized data at the rim: zeta(1)=0, zeta'(1)=1
    z1 = zeta.eval(1.0)[0]
    assert z1 == pytest.approx(0.0, abs=1e-12)
    h = 1e-6
    assert (z1 - zeta.eval(1.0 - h)[0]) / h == pytest.approx(1.0, abs=1e-4)


def test_variational_coefficients_finite_at_rim():
    coeffs = variational_coeffs_along(assemble_profile(0.0))
    at_rim = coeffs.fn(0.0)
    # exact t=0 limits: (-4/3)*lam*nu3/nu2 and (2/3)*lam*nu3/nu2 + g_xd(0,0,0)
    assert at_rim[0] == pytest.approx(0.5, abs=1e-8)
    assert at_rim[1] == pytest.approx(3.25, abs=1e-8)
    # smooth approach at the scale the integrator actually samples
    # (below ~1e-4 the movable-frame state x = O(t^2) drops under the dense
    # solution's absolute accuracy, so closer probes are meaningless)
    for near, at in zip(coeffs.fn(-1e-3), at_rim):
        assert np.isfinite(at)
        assert near == pytest.approx(at, abs=5e-2)


@pytest.mark.parametrize("alpha", [0.0, 0.1])
def test_variational_coefficients_linearize_the_arc_operator(alpha):
    # y'' = 4 lam (t y' - y)/t^2 + a y/t + b y' must be the
    # linearization of F = lam x'^2/x + g along kappa on both branches, so
    # t F_x + 4 lam/t = a and F_xd - 4 lam/t = b, with F_x and
    # F_xd from central differences of the nonlinear right side
    prof = assemble_profile(alpha)
    coeffs = variational_coeffs_along(prof)
    g = scaled_arc_ivp(alpha).g

    def F(t, x, xd):
        return coeffs.lam * xd * xd / x + g(t, x, xd)

    t = np.linspace(-0.95, -0.1, 18)
    kap, kp, _ = prof.eval(t + 1.0)
    x, xd = kap - (t + 1.0), kp - 1.0
    hx, h = 1e-5 * x, 1e-6  # F ~ 1/x, and x = O(t^2) is small near the rim
    f_x = (F(t, x + hx, xd) - F(t, x - hx, xd)) / (2.0 * hx)
    f_xd = (F(t, x, xd + h) - F(t, x, xd - h)) / (2.0 * h)
    lam4 = 4.0 * coeffs.lam / t
    a, b, _ = coeffs.fn(t)
    np.testing.assert_allclose(a, t * f_x + lam4, rtol=0.0, atol=1e-7)
    np.testing.assert_allclose(b, f_xd - lam4, rtol=0.0, atol=1e-7)


@pytest.mark.parametrize("alpha", [0.0, 0.01, 0.1])
def test_field_jacobian_sign_constant(alpha):
    prof = assemble_profile(alpha)
    assert field_jacobian_check(prof, jacobi_check(prof)[1]) == -1


def test_field_jacobian_spot_example():
    prof = assemble_profile(0.3331)
    assert field_jacobian_check(prof, jacobi_check(prof)[1]) == -1


def test_field_jacobian_catches_a_sign_change():
    # the verdict's failure path: the profile's own zeta keeps one sign, and
    # a stub field with a zero at q = 0.7, inside (rho, 0.99), flips it
    prof = assemble_profile(0.1)
    assert field_jacobian_check(prof, jacobi_check(prof)[1]) == -1

    class Crossing:
        def eval(self, q):
            q = np.asarray(q, float)
            return q - 0.7, np.ones_like(q), np.zeros_like(q)

    assert prof.rho < 0.7
    with pytest.raises(SignChange, match=r"alpha=0\.1$"):
        field_jacobian_check(prof, Crossing())


@pytest.mark.parametrize("alpha", [0.0, 0.1, 0.3331])
def test_field_jacobian_solves_one_arc(alpha, monkeypatch):
    # dkappa/dalpha comes from the Jacobi field: no neighbour is solved
    calls = {"integrate": 0, "find_switch": 0}

    def counted(name):
        fn = getattr(extremal, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(extremal, name, counted(name))
    extremal._assemble_cached.cache_clear()
    prof = assemble_profile(alpha)
    assert field_jacobian_check(prof, jacobi_check(prof)[1]) == -1
    assert calls == {"integrate": 1, "find_switch": 1}


@pytest.mark.parametrize("alpha", [0.01, 0.1, 0.2, 0.3, 0.33])
def test_field_bracket_against_neighbour_profiles(alpha):
    # B = q*kappa' - kappa + 2*alpha*dkappa/dalpha on all of [0, 0.99],
    # flat piece included, against a central difference in alpha
    prof = assemble_profile(alpha)
    qs = np.linspace(0.0, 0.99, 241)
    kap, kp, _ = prof.eval(qs)
    da = 1e-5
    dk = (assemble_profile(alpha + da).eval(qs)[0]
          - assemble_profile(alpha - da).eval(qs)[0]) / (2.0 * da)
    bracket = extremal._field_bracket(prof, jacobi_check(prof)[1], qs)
    assert np.max(np.abs(bracket - (qs * kp - kap + 2.0 * alpha * dk))) <= 1e-6


@pytest.mark.parametrize("p0", [1.8, 2.43337, 3.71647, 8.16986, 30.0, 300.0])
def test_field_bracket_at_zero_is_the_height_derivative(p0):
    # B = -dv/dp0 of the unscaled family and v(0) = M = p0*height0(1/p0^2)
    def height(p):
        return p * assemble_profile(1.0 / (p * p)).height0

    dp = 1e-5 * p0
    dM = (height(p0 + dp) - height(p0 - dp)) / (2.0 * dp)
    prof = assemble_profile(1.0 / (p0 * p0))
    b0 = extremal._field_bracket(prof, jacobi_check(prof)[1], np.array([0.0]))[0]
    assert abs(-b0 - dM) <= 1e-8


@pytest.mark.parametrize("alpha", [0.0, 0.01, 0.1, 0.2, 0.3, 0.33])
def test_field_bracket_is_the_jacobi_field(alpha):
    # both certificates read one Jacobi field of the family of extremals:
    # the field bracket B = q*kappa' - kappa + 2*alpha*dkappa/dalpha and
    # nu''(1)*zeta both equal -dv/dp0, which vanishes at the rim, so they
    # agree on the arc.  Within 0.01 of rho the neighbours' switch points
    # move, and the gap reaches 7e-3 at alpha = 0.33, so that band is left out
    prof = assemble_profile(alpha)
    qs = np.linspace(prof.rho + 0.01, 0.99, 400)
    kap, kp, _ = prof.eval(qs)
    bracket = qs * kp - kap
    if alpha > 0.0:
        da = 1e-3 * alpha
        dk = (assemble_profile(alpha + da).eval(qs)[0]
              - assemble_profile(alpha - da).eval(qs)[0]) / (2.0 * da)
        bracket = bracket + 2.0 * alpha * dk
    zeta = jacobi_check(prof)[1].eval(qs)[0]
    nu2 = nu_derivatives_at_one(alpha)[2]
    assert np.max(np.abs(bracket / (nu2 * zeta) - 1.0)) <= 1e-7


def test_first_order_reduction_residual():
    nu = solve_nu(0.0)
    for q in (0.3, 0.5, 0.9):
        assert abs(abel_residual(nu, q)) < 1e-6
    with pytest.raises(DomainError):
        abel_residual(nu, 1.0 - 1e-13)


def test_endpoint_weight_closed_form_vs_quadrature():
    for alpha in (0.1, 0.2, 0.3):
        assert abs(endpoint_weight_quadrature(alpha)
                   - endpoint_weight_closed_form(alpha)) <= 1e-8
    # the graded rule holds to round-off from the sharp peak at small alpha
    # to alphas past the validity range
    for alpha in [*np.geomspace(1e-12, 1.0, 40), 2.0, 100.0]:
        exact = endpoint_weight_closed_form(alpha)
        assert endpoint_weight_quadrature(alpha) == pytest.approx(exact, rel=1e-13, abs=0.0)
    assert abs(endpoint_weight_closed_form(1.0 / 3.0)) <= 1e-10
    assert endpoint_weight_closed_form(0.3) > 0.0
    assert endpoint_weight_closed_form(0.4) < 0.0


# ---------------------------------------------------------------------------
# unscaling and the height solve
# ---------------------------------------------------------------------------

def test_unscale_requires_consistent_parameters():
    prof = assemble_profile(0.01)
    with pytest.raises(InconsistentScale):
        unscale(prof, 5.0)
    with pytest.raises(InconsistentScale):
        unscale(assemble_profile(0.0), 10.0)


@pytest.mark.parametrize("p0", [np.nan, np.inf])
def test_unscale_rejects_nonfinite_p0(p0):
    with pytest.raises(InconsistentScale):
        unscale(assemble_profile(0.01), p0)


def test_unscale_known_member():
    p0 = 3.71647
    sol = unscale(assemble_profile(1.0 / p0**2), p0)
    assert sol.M == pytest.approx(1.0, abs=1e-4)
    assert sol.r == pytest.approx(1.22077, abs=1e-4)
    assert sol.slope0 == pytest.approx(0.632450, abs=1e-4)
    assert sol.profile.alpha == 1.0 / p0**2

    p0 = 15.9653
    sol = unscale(assemble_profile(1.0 / p0**2), p0)
    assert sol.r == pytest.approx(1.96456, abs=1e-3)


def test_unscale_is_pointwise_covariant():
    p0 = 5.0
    prof = assemble_profile(1.0 / p0**2)
    sol = unscale(prof, p0)
    for q in np.linspace(0.0, 1.0, 10):
        v, vp, _ = sol.eval(p0 * q)
        kap, kp, _ = prof.eval(q)
        assert v == pytest.approx(p0 * kap, rel=1e-12)
        assert vp == pytest.approx(kp, rel=1e-12)


def test_solve_for_height_known_rows(solved):
    sol = solved(0.5)
    assert sol.p0 == pytest.approx(2.43337, abs=1e-3)
    sol = solved(2.5)
    assert sol.p0 == pytest.approx(8.16986, abs=1e-3)
    assert sol.slope0 == pytest.approx(0.553467, abs=1e-4)


def test_solve_for_height_roundtrip(solved):
    sol = solved(1.5)
    assert float(sol.eval(0.0)[0]) == pytest.approx(1.5, abs=1e-8)
    assert float(sol.eval(sol.p0)[0]) == pytest.approx(sol.p0, abs=1e-8)
    # curve stays in the admissible slab p <= v <= p + M
    ps = np.linspace(0.0, sol.p0, 200)
    vs = sol.eval(ps)[0]
    assert np.all(vs >= ps - 1e-9)
    assert np.all(vs <= ps + 1.5 + 1e-9)


def test_solve_for_height_locates_each_switch_once(monkeypatch):
    # every height evaluation goes through assemble_profile's cache, so
    # brentq's repeated bracket ends and the final profile solve nothing anew
    calls = {"find_switch": 0, "integrate": 0}

    def counted(name):
        fn = getattr(extremal, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(extremal, name, counted(name))
    extremal._assemble_cached.cache_clear()
    solve_for_height(1.0)
    assert calls["integrate"] > 0
    assert calls["find_switch"] == calls["integrate"]


def test_default_rows_solve_at_most_24_arcs_from_cold_caches(monkeypatch):
    # the height root starts at the flat-height asymptote and takes Newton
    # steps with the slope from the Jacobi field: at most 3 arcs a row, and
    # one Jacobi field fewer, since the last iterate needs none; below the
    # validity edge it refuses after the one arc at the bracket's low end
    calls = {"integrate": 0, "integrate_variational": 0}

    def counted(name):
        fn = getattr(extremal, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(extremal, name, counted(name))
    extremal._assemble_cached.cache_clear()
    arcs, fields = [], []
    for M in DEFAULT_TABLE_ROWS.split(","):
        before = dict(calls)
        solve_for_height(float(M))
        arcs.append(calls["integrate"] - before["integrate"])
        fields.append(calls["integrate_variational"] - before["integrate_variational"])
    assert max(arcs) <= 3 and sum(arcs) <= 24
    assert fields == [n - 1 for n in arcs]

    extremal._assemble_cached.cache_clear()
    before = calls["integrate"]
    with pytest.raises(NoRoot, match="below the reachable range"):
        solve_for_height(0.05)
    assert calls["integrate"] - before == 1


def test_height_root_safeguard_survives_a_wrong_slope(solved, monkeypatch):
    # with the slope's sign flipped every Newton step leaves the bracket, so
    # the root comes from evaluating the bracket ends and bisecting
    ref = solved(1.0).p0
    bracket = extremal._field_bracket
    monkeypatch.setattr(extremal, "_field_bracket", lambda *args: -bracket(*args))
    assert abs(solve_for_height(1.0).p0 - ref) <= 1e-10 + 1e-12 * ref
    # its first iterates are cached now, so only the height root's bound acts
    with monkeypatch.context() as m:
        m.setattr(extremal, "_HEIGHT_MAXITER", 3)
        with pytest.raises(NoRoot, match="height root: no convergence in 3 iterations"):
            solve_for_height(1.0)
    # a bracket whose upper end lies below the root is refused
    monkeypatch.setattr(extremal, "_H0_HI", 1.0)
    monkeypatch.setattr(extremal, "_H0_LO", 0.9)
    with pytest.raises(NoRoot, match="could not bracket p0 for M=100.0"):
        solve_for_height(100.0)


@pytest.mark.parametrize("setup, call, reads", [
    (lambda solved: (0.1, solve_nu(0.1), find_switch(0.1, solve_nu(0.1))),
     lambda args: extremal.ScaledProfile.at_switch(*args), 2),
    (lambda solved: scaled_arc_ivp(0.1), lambda ivp: integrate(ivp, -1.0), 2),
    (lambda solved: solved(1.0), BodyEvaluator, 4),
    (lambda solved: solved(1.0), functional.J_unscaled, 1),
    (lambda solved: solved(1.0), functional.gamma_form_J, 1),
    (lambda solved: assemble_profile(0.1), jacobi_check, 7),
], ids=["ScaledProfile.at_switch", "integrate", "BodyEvaluator", "J_unscaled",
        "gamma_form_J", "jacobi_check"])
def test_each_caller_reads_the_series_once(monkeypatch, solved, setup, call, reads):
    # a caller takes the columns it needs from one eval: the profile check
    # reads nu on its grid and at q = 1 together, the arc check its residual
    # grid and the seed points together, the conjugate table v' and v''
    # together in each Newton step, the two reference routes for J all
    # their quadrature nodes (gamma_form_J with both ends) together, and the
    # Jacobi field its coefficients once at the origin and once per piece,
    # its piece ends once each, and zeta on both pieces
    arg = setup(solved)
    count = [0]
    seg_eval = singular_ode._ChebSegment.eval

    def counted(seg, t):
        count[0] += 1
        return seg_eval(seg, t)

    monkeypatch.setattr(singular_ode._ChebSegment, "eval", counted)
    call(arg)
    assert count[0] == reads


def test_solve_for_height_rejects_nonpositive():
    with pytest.raises(NoRoot):
        solve_for_height(0.0)
    with pytest.raises(NoRoot):
        solve_for_height(-2.0)


@pytest.mark.parametrize("M", [np.nan, np.inf])
def test_solve_for_height_rejects_nonfinite(M):
    with pytest.raises(NoRoot, match="finite"):
        solve_for_height(M)


def test_limit_constants_values():
    lc = limit_constants()
    assert lc.r_hat == pytest.approx(0.108984, abs=1e-5)
    assert lc.M_hat == pytest.approx(0.315736, abs=1e-5)
    assert lc.slope_hat == pytest.approx(0.530068, abs=1e-5)
    assert lc.J_hat == pytest.approx(10.7344, abs=1e-3)


def test_height_root_starts_from_the_limit_flat_height():
    # the Newton start p0 = (M + sqrt(M^2 + 2.6*M_hat))/(2*M_hat) is the
    # root of the flat-height asymptote M = M_hat*p0 - 0.65/p0
    assert abs(extremal._M_HAT - limit_constants().M_hat) <= 1e-5


def test_profile_families_deform_continuously():
    # measured Lipschitz-type constant for the arc curvature in alpha is
    # ~2.5 on [0.2, 1]; frozen at 2x to catch discontinuous regressions
    qs = np.linspace(0.2, 1.0, 60)
    a, b = 0.10, 0.11
    na, nb = solve_nu(a), solve_nu(b)
    gap = np.max(np.abs(na.eval(qs)[2] - nb.eval(qs)[2]))
    assert gap <= 5.0 * abs(b - a)


# ---------------------------------------------------------------------------
# NaN at the evaluation boundaries
# ---------------------------------------------------------------------------

NAN = float("nan")


@pytest.mark.parametrize("call, error", [
    (lambda sol, ev: ev(NAN, 0.0), EvaluationError),
    (lambda sol, ev: ev(np.array([0.1, NAN]), np.array([0.2, 0.3])), EvaluationError),
    (lambda sol, ev: ev.gradient(NAN, 0.3), EvaluationError),
    (lambda sol, ev: body_evaluate(ev, NAN, 0.0), EvaluationError),
    (lambda sol, ev: ev.vstar(NAN), EvaluationError),
    (lambda sol, ev: solve_nu(0.1).base.eval(NAN), DomainError),
    (lambda sol, ev: solve_nu(0.1).eval(NAN), DomainError),
    (lambda sol, ev: solve_nu(0.1).eval(np.array([0.5, NAN])), DomainError),
    (lambda sol, ev: assemble_profile(0.1).eval(NAN), DomainError),
    (lambda sol, ev: sol.eval(NAN), DomainError),
    (lambda sol, ev: scaled_arc_ivp(NAN), DomainError),
    (lambda sol, ev: nu_derivatives_at_one(NAN), DomainError),
    (lambda sol, ev: solve_nu(NAN), DomainError),
    (lambda sol, ev: endpoint_weight_quadrature(NAN), DomainError),
    (lambda sol, ev: endpoint_weight_closed_form(NAN), DomainError),
    (lambda sol, ev: endpoint_weight_closed_form(np.inf), DomainError),
    (lambda sol, ev: endpoint_weight_closed_form(1e300), DomainError),
    *((lambda sol, ev, a=a: endpoint_weight_quadrature(a), DomainError)
      for a in (np.inf, 1e200, 1e300, 1e-250, 1e-300)),
], ids=["evaluator", "evaluator-array", "gradient", "body_evaluate", "vstar",
        "DenseSolution", "MappedSolution", "MappedSolution-array", "ScaledProfile",
        "ExtremalSolution", "scaled_arc_ivp", "nu_derivatives_at_one", "solve_nu",
        "endpoint_weight_quadrature", "endpoint_weight_closed_form",
        "endpoint_weight_closed_form-inf", "endpoint_weight_closed_form-1e300",
        "endpoint_weight_quadrature-inf", "endpoint_weight_quadrature-1e200",
        "endpoint_weight_quadrature-1e300", "endpoint_weight_quadrature-1e-250",
        "endpoint_weight_quadrature-1e-300"])
def test_nan_is_refused_at_each_evaluation_boundary(solved, call, error):
    # each check is written so that NaN fails it, with the check's own error;
    # so do the endpoint weights' inf and the alphas where they overflow
    sol = solved(1.0)
    with pytest.raises(error):
        call(sol, BodyEvaluator(sol))
