"""Arc solves, switching radius, optimality certificates, scaling maps.

Closed-form endpoint Taylor data and the alpha=0 closed form of the
switching integral act as the independent oracles here; everything with a
hand-derived formula is additionally cross-checked against quadrature or
finite differences of the solved curves.
"""

import dataclasses
import re
import signal
from types import SimpleNamespace

import numpy as np
import pytest
import sympy as sp
from scipy.integrate import quad
from scipy.optimize import brentq

from conftest import (arc_calculus, cold_caches, endpoint_weight_closed_form,
                      endpoint_weight_reference)
from newton_minres import (
    BodyEvaluator,
    BodyMesh,
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
    export_obj,
    field_jacobian_check,
    find_switch,
    jacobi_check,
    limit_constants,
    nu_derivatives_at_one,
    solve_for_edge_slope,
    solve_for_height,
    solve_nu,
    unscale,
)
from newton_minres import extremal, functional, integrate, singular_ode
from newton_minres.cli import DEFAULT_TABLE_ROWS
from newton_minres.extremal import scaled_arc_ivp
from newton_minres.functional import lagrangian_value

RHO_HAT = 0.108984


class _Curve:
    """A stand-in curve whose eval(q) returns fn(q) -> (value, slope, second)."""

    def __init__(self, fn):
        self.fn = fn

    def eval(self, q):
        return self.fn(np.asarray(q, float))


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


def test_taylor_anchors_solve_the_arc_equation_symbolically():
    # x = A*t^2/2 + B*t^3/6 in y'' = R(q, y, y') at q = 1 + t, y = x + q:
    # the t^0 and t^1 terms of the balance have one nonzero root, the
    # closed forms of the second and third derivatives of nu at 1
    ac = arc_calculus()
    t, c = ac.t, ac.c
    A, B = sp.symbols("A B")
    x = A * t ** 2 / 2 + B * t ** 3 / 6
    arc = {ac.q: t + 1, ac.y: x + t + 1, ac.yp: sp.diff(x, t) + 1}
    balance = sp.series(sp.diff(x, t, 2) - ac.R.subs(arc), t, 0, 2).removeO()
    [root] = [r for r in sp.solve([balance.coeff(t, k) for k in (0, 1)], [A, B], dict=True)
              if r[A] != 0]
    assert sp.simplify(root[A] - (3 - c) / (3 * (1 + c))) == 0
    assert sp.simplify(root[B] - (3 + 2 * c + c ** 2) / (2 * (1 + c) ** 2)) == 0
    for alpha in (0.0, 0.01, 0.05, 0.1, 0.2, 0.3, 1.0 / 3.0, 1.0, 10.0):
        exact = [float(root[k].subs(c, alpha)) for k in (A, B)]
        assert nu_derivatives_at_one(alpha)[2:] == pytest.approx(exact, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("alpha", [0.0, 0.05, 0.3])
def test_arc_forcing_matches_its_symbolic_form(alpha):
    # g, g_x and g_x' of scaled_arc_ivp against sympy's g = R + x'^2/(4x) in
    # the movable frame and its partials, at 500 points of the solved arc:
    # the arc's Newton Jacobian and the Jacobi field read g_x and g_x'
    ivp = scaled_arc_ivp(alpha)
    t = np.linspace(-1.0, 0.0, 500)
    x, xd, _ = solve_nu(alpha).base.eval(t)
    refs = arc_calculus().arc_forcing(t, x, xd, alpha)
    for got, ref in zip((ivp.g(t, x, xd), ivp.g_x(t, x, xd), ivp.g_xdot(t, x, xd)), refs):
        # g_x changes sign on the arc: the floor is relative to its largest value
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-14 * np.max(np.abs(ref)))


def test_solved_arc_hits_endpoint_data():
    nu = solve_nu(0.0)
    assert nu.eval(1.0)[0] == pytest.approx(1.0, abs=1e-12)
    assert nu.eval(1.0)[1] == pytest.approx(1.0, abs=1e-10)
    assert nu.eval(0.0)[0] == pytest.approx(0.3157595, abs=1e-6)
    assert nu.eval(0.0)[1] == pytest.approx(0.5350553, abs=1e-6)


def test_solved_arc_taylor_matches_formulas():
    # the third and fourth derivatives at the endpoint by one-sided
    # five-point differences of nu'' at q = 1 - k*h, k = 0..4
    h = 5e-3
    back = np.arange(5)
    for alpha in (0.0, 0.1):
        nu2 = solve_nu(alpha).eval(1.0 - h * back)[2]
        _, _, v2, v3 = nu_derivatives_at_one(alpha)
        assert nu2[0] == pytest.approx(v2, abs=1e-8)
        nu3 = np.dot([25.0, -48.0, 36.0, -16.0, 3.0], nu2) / (12.0 * h)
        assert nu3 == pytest.approx(v3, abs=1e-6)
    # fourth derivative at the endpoint, alpha=0: 51/20
    nu2 = solve_nu(0.0).eval(1.0 - h * back)[2]
    v4 = np.dot([35.0, -104.0, 114.0, -56.0, 11.0], nu2) / (12.0 * h * h)
    assert v4 == pytest.approx(2.55, abs=2e-2)


def test_scaled_integrand_positivity_on_arc():
    nu = solve_nu(0.05)
    qs = np.linspace(0.3, 0.999, 50)
    vals = [lagrangian_value(q, *nu.eval(q)[:2], 0.05) for q in qs]
    assert np.all(np.asarray(vals) > 0.0)


# ---------------------------------------------------------------------------
# switching integral
# ---------------------------------------------------------------------------

def test_switch_kernel_is_a_quarter_of_the_euler_lagrange_expression():
    # _switch_kernel(q, a, b, alpha, 1) = L_y'y'*R/4 = EL/4 along the tangent
    # eta = a*q + b, eta' = a: the integrands of I_of and adjoint_omega are
    # L's Euler-Lagrange expression, with EL from sympy
    rng = np.random.default_rng(11)
    rho = rng.uniform(0.01, 0.99, 500)
    a = rng.uniform(0.0, 0.99, 500)
    b = rho * (1.0 - a) + rng.uniform(0.005, 0.5, 500)   # eta > q on [0, rho]
    q = rho * rng.uniform(0.0, 1.0, 500)
    for alpha in (0.0, 0.05, 0.3):
        ref = 0.25 * arc_calculus().euler_lagrange(q, a * q + b, a, alpha)
        np.testing.assert_allclose(extremal._switch_kernel(q, a, b, alpha, 1.0), ref,
                                   rtol=1e-12, atol=1e-14 * np.max(np.abs(ref)))


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
    # series height root lands within the old brentq tolerance of scipy's
    # brentq on the same h(p0) over [lo, M/0.2 + 1]: height0 > 0.2 for
    # p0 >= 2.43, so h > 0 at the upper end
    sol = solve_for_height(M)

    def h(p0):
        return p0 * assemble_profile(1.0 / (p0 * p0)).height0 - M

    lo = max(np.sqrt(3.0) * (1.0 + 1e-6) + 1e-9, M / extremal._H0_HI)
    ref = brentq(h, lo, max(M / 0.2, lo) + 1.0, xtol=1e-10, rtol=1e-13)
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


def test_conjugate_point_is_reported(monkeypatch):
    # a field that crosses zero inside [0, 1) reports min |zeta| = 0, with itself
    crossing = _Curve(lambda q: (q - 0.5, np.ones_like(q), np.zeros_like(q)))
    monkeypatch.setattr(extremal, "_jacobi_field", lambda profile: crossing)
    assert jacobi_check(assemble_profile(0.1)) == (0.0, crossing)


def test_jacobi_field_curvature_at_rim_is_the_closed_form():
    # zeta''(1) is the t->0 balance (g_xdot(0,0,0) - (2/3) lam nu'''/nu'')/(1 - 2 lam):
    # 2.5 at alpha = 0, which is (0.5 + 3.25)/1.5, with 0.5 and 3.25 the t = 0
    # limits of t*r0 + 4 lam/t and r1 - 4 lam/t, the coefficients of y/t and
    # y' once the singular part 4 lam (t y' - y)/t^2 is split off
    nu2, nu3 = nu_derivatives_at_one(0.0)[2:]
    closed = ((scaled_arc_ivp(0.0).g_xdot(0.0, 0.0, 0.0) + (2.0 / 3.0) * 0.25 * nu3 / nu2)
              / 1.5)
    assert closed == pytest.approx((0.5 + 3.25) / 1.5, rel=1e-15) == 2.5
    zeta = jacobi_check(assemble_profile(0.0))[1]
    assert zeta.eval(1.0)[2] == pytest.approx(closed, rel=1e-12)
    # smooth approach at the scale the collocation resolves
    assert abs(zeta.eval(1.0 - 1e-3)[2] - closed) <= 1e-2


@pytest.mark.parametrize("alpha", [0.0, 0.1, 0.33])
def test_variational_coefficients_linearize_the_arc_operator(alpha):
    # linearized's (r0, r1) along kappa, on both branches, must be the
    # partials of F = lam x'^2/x + g in x and x', here central differences
    # of F
    prof = assemble_profile(alpha)
    ivp = scaled_arc_ivp(alpha)

    def F(t, x, xd):
        return ivp.lam * xd * xd / x + ivp.g(t, x, xd)

    t = np.linspace(-0.95, -0.01, 48)
    assert np.sum(t < prof.rho - 1.0) >= 2 and np.sum(t > prof.rho - 1.0) >= 4
    kap, kp, _ = prof.eval(t + 1.0)
    x, xd = kap - (t + 1.0), kp - 1.0
    hx, h = 1e-5 * x, 1e-6  # F ~ 1/x, and x = O(t^2) is small near the rim
    f_x = (F(t, x + hx, xd) - F(t, x - hx, xd)) / (2.0 * hx)
    f_xd = (F(t, x, xd + h) - F(t, x, xd - h)) / (2.0 * h)
    r0, r1 = singular_ode.linearized(ivp, t, x, xd)
    np.testing.assert_allclose(r0, f_x, rtol=1e-7, atol=0.0)
    np.testing.assert_allclose(r1, f_xd, rtol=1e-7, atol=0.0)


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
    cold_caches()
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


class _ReadOnlyFrom:
    """A Jacobi field that refuses any read below q = lo."""

    def __init__(self, zeta, lo):
        self.zeta, self.lo = zeta, lo

    def eval(self, q):
        if not np.all(np.asarray(q) >= self.lo):
            raise AssertionError(f"zeta read below rho = {self.lo}")
        return self.zeta.eval(q)


@pytest.mark.parametrize("alpha", [0.0, 0.01, 0.1, 0.3])
def test_field_bracket_reads_zeta_on_the_arc_alone(alpha):
    # below rho the bracket is affine by construction, so it reads zeta only
    # at rho and at the q >= rho
    prof = assemble_profile(alpha)
    zeta = jacobi_check(prof)[1]
    for q in (np.linspace(0.0, 0.99, 241), np.zeros(1)):
        got = extremal._field_bracket(prof, _ReadOnlyFrom(zeta, prof.rho), q)
        assert np.array_equal(got, extremal._field_bracket(prof, zeta, q))


def test_the_certificate_keeps_both_pieces_of_the_jacobi_field():
    # jacobi_check scans [0, 1): the affine piece too, from a break at rho
    prof = assemble_profile(0.1)
    field = jacobi_check(prof)[1].base
    assert len(field.segments) == 2 and field.domain == (-1.0, 0.0)
    assert field.breakpoints[1] == prof.rho - 1.0


def test_first_order_reduction_residual():
    nu = solve_nu(0.0)
    for q in (0.3, 0.5, 0.9):
        assert abs(abel_residual(nu, q)) < 1e-6
    with pytest.raises(DomainError):
        abel_residual(nu, 1.0 - 1e-13)


def test_endpoint_weight_closed_form_vs_quadrature():
    for alpha in (0.1, 0.2, 0.3):
        assert abs(endpoint_weight_reference(alpha)
                   - endpoint_weight_closed_form(alpha)) <= 1e-8
    # the closed form holds to round-off from the sharp peak at small alpha
    # to alphas past the validity range
    for alpha in [*np.geomspace(1e-12, 1.0, 40), 2.0, 100.0]:
        exact = endpoint_weight_closed_form(alpha)
        assert endpoint_weight_reference(alpha) == pytest.approx(exact, rel=1e-13, abs=0.0)
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


def test_unscale_refuses_p0_above_the_normal_doubles():
    # 1/p0^2 would be subnormal: refused before the profile's alpha is read
    with pytest.raises(NoRoot) as exc:
        unscale(assemble_profile(1e-310), 1e155)
    assert str(exc.value).startswith(
        "p0=1e+155 above the reachable range (max p0 6.7039e+153")


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


@pytest.mark.parametrize("p0, tail", [
    (-2.0, "is not above sqrt(3)"), (0.0, "is not above sqrt(3)"),
    (1e-200, "is not above sqrt(3)"), (np.nan, "is not above sqrt(3)"),
    (np.sqrt(3.0), "is not above sqrt(3): alpha = 0.33333333333333337 is outside"),
    (np.inf, "above the reachable range (max p0 6.7039e+153"),
])
def test_edge_slope_refusals_start_with_p0(monkeypatch, p0, tail):
    # refused before any arc, naming p0; alpha = 1/p0^2 is named only where
    # it is a finite number
    monkeypatch.setattr(extremal, "integrate", lambda *args: pytest.fail("arc solved"))
    with pytest.raises(NoRoot, match=re.escape(f"p0={float(p0)!r} {tail}")):
        solve_for_edge_slope(p0)


def test_edge_slope_is_unscale_of_its_profile():
    p0 = 2.43337
    sol, ref = solve_for_edge_slope(p0), unscale(assemble_profile(1.0 / (p0 * p0)), p0)
    assert (sol.p0, sol.M, sol.r, sol.slope0, sol.J) == (ref.p0, ref.M, ref.r, ref.slope0, ref.J)
    # just above sqrt(3) is inside the validity range
    assert solve_for_edge_slope(np.nextafter(np.sqrt(3.0), 2.0)).profile.alpha < 1.0 / 3.0


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
    # each arc the height root solves locates its switch once
    calls = {"find_switch": 0, "integrate": 0}

    def counted(name):
        fn = getattr(extremal, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(extremal, name, counted(name))
    cold_caches()
    solve_for_height(1.0)
    assert calls["integrate"] > 0
    assert calls["find_switch"] == calls["integrate"]


@pytest.mark.parametrize("M", [0.08687, 0.0875, 0.1, 0.146, 0.2, 0.3, 0.41, 0.42, 0.93,
                               *map(float, DEFAULT_TABLE_ROWS.split(",")), 17.3, 1e3, 1e6,
                               1e100, 2e153])
def test_each_height_solves_one_cold_arc(M, monkeypatch):
    # the float root on the flat-height series meets the stop rule at the
    # first arc, so from cold caches a height solves one arc from the
    # osculating parabola, runs one Picard seed and solves no Jacobi field;
    # the arc's Newton takes at most 6 steps and its seed, started from the
    # Taylor jet xdd0 + b*t, at most 7 iterations (7 only at M = 0.2).
    # The series was fitted at N_ARC = 64 and holds from 48 to 128 nodes
    seed_for = singular_ode.picard_seed
    try:
        for n_arc in (48, 64, 96, 128):
            arcs, seeds, fields = [], [], []
            with monkeypatch.context() as m:
                m.setattr(extremal, "integrate",
                          lambda *args: arcs.append(integrate(*args)) or arcs[-1])
                m.setattr(singular_ode, "picard_seed",
                          lambda ivp: seeds.append(ivp) or seed_for(ivp))
                m.setattr(extremal, "integrate_variational", lambda *args: fields.append(args))
                m.setattr(singular_ode, "N_ARC", n_arc)
                cold_caches()
                solve_for_height(M)
            assert (len(arcs), len(seeds), len(fields)) == (1, 1, 0), n_arc
            assert arcs[0].info["newton_iters"] <= 6, n_arc
            assert len(arcs[0].info["picard_diffs"]) <= 7, n_arc
    finally:
        cold_caches()  # no arc of another rule outlives this test


def test_a_height_below_the_validity_edge_solves_one_arc(monkeypatch):
    # the series root clamps to its lower bound, and the one arc solved
    # there refuses the height with the edge's height
    arcs = []
    monkeypatch.setattr(extremal, "integrate", lambda *args: arcs.append(integrate(*args)) or arcs[-1])
    cold_caches()
    with pytest.raises(NoRoot, match=r"below the reachable range \(min height 0\.08686161 "):
        solve_for_height(0.05)
    assert len(arcs) == 1


def _height0(alphas):
    return np.array([assemble_profile(float(a)).height0 for a in np.atleast_1d(alphas)])


def test_flat_height_series_is_the_degree_48_interpolant():
    # the stored coefficients are chebinterpolate's at its 49 first-kind
    # points in x = 2*s/sqrt(1/3) - 1, s = sqrt(1/3 - alpha), all inside
    # (0, 1/3): recomputed from the solver, they agree to round-off
    c = np.polynomial.chebyshev.chebinterpolate(
        lambda x: _height0(1.0 / 3.0 - (x + 1.0) ** 2 / 12.0), 48)
    assert np.max(np.abs(c - np.array(extremal._H0_SERIES))) <= 1e-13


def test_fitted_flat_height_series_matches_the_solver():
    # the stored series against assemble_profile at the 48 midpoints between
    # its nodes (7.3e-14 measured), and _series_height's float recurrences
    # against numpy's sums of the series and of its derivative, with
    # H = p*h and dH/dp = h - 2*alpha*dh/dalpha, dx/dalpha = -sqrt(3)/s
    cheb = np.polynomial.chebyshev
    c = np.array(extremal._H0_SERIES)
    nodes = np.cos(np.pi * (np.arange(49) + 0.5) / 49)
    x = 0.5 * (nodes[1:] + nodes[:-1])
    alphas = 1.0 / 3.0 - (x + 1.0) ** 2 / 12.0
    assert np.all((alphas > 0.0) & (alphas < 1.0 / 3.0))
    assert np.max(np.abs(cheb.chebval(x, c) / _height0(alphas) - 1.0)) <= 2e-13
    for p in 1.0 / np.sqrt(alphas):
        a = 1.0 / (p * p)
        s = np.sqrt(1.0 / 3.0 - a)
        H, dH = extremal._series_height(p)
        h = cheb.chebval(2.0 * np.sqrt(3.0) * s - 1.0, c)
        assert H / p == pytest.approx(h, rel=1e-14, abs=0.0)
        dh = cheb.chebval(2.0 * np.sqrt(3.0) * s - 1.0, cheb.chebder(c)) * -np.sqrt(3.0) / s
        assert dH == pytest.approx(h - 2.0 * a * dh, rel=1e-12)


def _series_height_numpy(p):
    # _series_height as it was on numpy scalars, the reference for its floats
    alpha = 1.0 / (p * p)
    s = np.sqrt(extremal.ALPHA_MAX - alpha)
    x = 2.0 * np.sqrt(3.0) * s - 1.0
    c = extremal._H0_SERIES
    t, t_prev, d, d_prev = x, 1.0, 1.0, 0.0
    h, dh = c[0] + c[1] * x, c[1]
    for ck in c[2:]:
        t, t_prev, d, d_prev = 2.0 * x * t - t_prev, t, 2.0 * t + 2.0 * x * d - d_prev, d
        h, dh = h + ck * t, dh + ck * d
    return p * h, h + 2.0 * np.sqrt(3.0) * alpha / s * dh


def test_float_series_height_is_the_numpy_recurrence_bit_for_bit(monkeypatch):
    # Python floats and numpy scalars round each operation alike, so the
    # series, its slope and the height root read the same bits either way
    for p in np.geomspace(np.sqrt(3.0) * (1.0 + 1e-6), 1e150, 2001)[1:]:
        got, ref = extremal._series_height(float(p)), _series_height_numpy(np.float64(p))
        assert [float(v).hex() for v in got] == [float(v).hex() for v in ref], p
    for M in [*map(float, DEFAULT_TABLE_ROWS.split(",")), 0.0875, 17.3, 1e6, 2e153]:
        lo = max(np.sqrt(3.0) * (1.0 + 1e-6) + 1e-9, M / extremal._H0_HI)
        with monkeypatch.context() as m:
            m.setattr(extremal, "_series_height", _series_height_numpy)
            ref = extremal._height_root_start(M, lo, extremal._P0_TOP)
        assert solve_for_height(M).p0 == ref, M


def test_height_root_start_is_within_2e_8_of_the_solved_p0():
    # the series root is not only within 2e-8: the one arc solved there is
    # accepted, so it is the solved p0
    for M in [*np.geomspace(0.42, 1e6, 40), 1e100, 2e153]:
        M = float(M)
        lo = max(np.sqrt(3.0) * (1.0 + 1e-6) + 1e-9, M / extremal._H0_HI)
        assert extremal._height_root_start(M, lo, extremal._P0_TOP) == solve_for_height(M).p0


@pytest.mark.parametrize("M", [1.0, 3.3, 9.0])
def test_a_repeated_height_solves_no_arc_and_no_jacobi_field(M, monkeypatch):
    # the solution is cached by M: a second call returns the same object
    # and solves nothing, the Jacobi fields of the height root included
    cold_caches()
    first = solve_for_height(M)
    calls = []

    def counted(name):
        fn = getattr(extremal, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("integrate", "integrate_variational"):
        monkeypatch.setattr(extremal, name, counted(name))
    again = solve_for_height(M)
    assert calls == [] and again is first
    assert solve_for_height(np.float64(M)) is first
    with pytest.raises(TypeError, match="unhashable"):
        solve_for_height(np.array(M))


@pytest.mark.parametrize("M", [1.0, 3.3, 9.0])
def test_the_height_profile_is_assemble_profiles(M, monkeypatch):
    # solve_for_height assembles no profile of its own: it calls
    # assemble_profile once, at alpha = 1/p0^2, and keeps what it returns
    assembled = []
    assemble = extremal.assemble_profile

    def counted(alpha):
        assembled.append((alpha, assemble(alpha)))
        return assembled[-1][1]

    monkeypatch.setattr(extremal, "assemble_profile", counted)
    cold_caches()
    sol = solve_for_height(M)
    assert len(assembled) == 1
    alpha, profile = assembled[0]
    assert alpha == 1.0 / (sol.p0 * sol.p0) and sol.profile is profile


@pytest.mark.parametrize("alpha", [0.0, 0.1, 0.33])
def test_assemble_profile_solves_its_arc_on_every_call(alpha, monkeypatch):
    # no cache: each call solves one arc and returns a new profile, and the
    # two profiles agree to the last bit
    arcs = []
    monkeypatch.setattr(extremal, "integrate", lambda *args: arcs.append(integrate(*args)) or arcs[-1])
    first = assemble_profile(alpha)
    assert len(arcs) == 1
    second = assemble_profile(alpha)
    assert len(arcs) == 2 and second is not first
    for name in ("rho", "slope", "height0"):
        assert float.hex(getattr(second, name)) == float.hex(getattr(first, name)), name


def test_a_drifted_height_series_is_refused_after_one_arc(monkeypatch):
    # the series root is the height root; the one arc solved there is its
    # check, and there is no second root finder.  With the series slope's
    # sign flipped, its Newton stays at the lower bound; with its
    # coefficients scaled by 1 + 1e-6, its root moves about 1e-6 relative.
    # Either way the one arc misses the stop rule, and the height is
    # refused with the miss named, never answered.  solve_for_height caches
    # by M, so each patched solve starts from cold caches
    series, coeffs = extremal._series_height, np.array(extremal._H0_SERIES)
    for name, drifted in [("_series_height", lambda p: series(p) * np.array([1.0, -1.0])),
                          ("_H0_SERIES", tuple(coeffs * (1.0 + 1e-6)))]:
        arcs = []
        with monkeypatch.context() as m:
            m.setattr(extremal, name, drifted)
            m.setattr(extremal, "integrate", lambda *args: arcs.append(integrate(*args)) or arcs[-1])
            cold_caches()
            with pytest.raises(NoRoot, match=r"height root: the arc at the series root p0=\S+ "
                                             r"misses M=1\.0 by h=\S+ \(\|h/H'\| above "):
                solve_for_height(1.0)
        assert len(arcs) == 1, name


@pytest.mark.parametrize("setup, call, reads, points", [
    (lambda solved: (0.1, solve_nu(0.1), find_switch(0.1, solve_nu(0.1))),
     lambda args: extremal.ScaledProfile.at_switch(*args), 2, 66),
    (lambda solved: scaled_arc_ivp(0.1), lambda ivp: integrate(ivp, -1.0), 2, 146),
    (lambda solved: solved(1.0), BodyEvaluator, 4, 20482),
    (lambda solved: solved(1.0), functional.J_unscaled, 1, 64),
    (lambda solved: solved(1.0), functional.gamma_form_J, 1, 65),
    (lambda solved: assemble_profile(0.1),
     lambda prof: prof.eval(np.linspace(0.0, 1.0, 101)), 1, 61),
    (lambda solved: assemble_profile(0.1), jacobi_check, 6, 2065),
], ids=["ScaledProfile.at_switch", "integrate", "BodyEvaluator", "J_unscaled",
        "gamma_form_J", "ScaledProfile.eval", "jacobi_check"])
def test_each_caller_reads_the_series_once(monkeypatch, solved, setup, call, reads, points):
    # a caller takes the columns it needs from one eval: the profile check
    # reads nu on its grid and at q = 1 together, the arc check its residual
    # grid and the seed points together, the conjugate table v' and v''
    # together in each Newton step, the two reference routes for J all
    # their quadrature nodes (gamma_form_J with both ends) together, and the
    # Jacobi field its coefficients once per piece (y''(0) is a closed form),
    # its piece ends once each, and zeta on both pieces.  The profile reads
    # the arc only at its points at or above rho: 61 of linspace(0, 1, 101)
    # at alpha = 0.1, half of J_unscaled's 128 nodes at M = 1, and none of
    # the Jacobi field's 64 coefficient nodes on the flat piece
    arg = setup(solved)
    count = [0, 0]
    seg_eval = singular_ode._ChebSegment.eval

    def counted(seg, t):
        count[0] += 1
        count[1] += np.size(t)
        return seg_eval(seg, t)

    monkeypatch.setattr(singular_ode._ChebSegment, "eval", counted)
    call(arg)
    assert count == [reads, points]


@pytest.mark.parametrize("alpha", [0.0, 0.1, 0.33])
def test_the_profile_reads_its_arc_only_on_the_arc(monkeypatch, alpha):
    # below rho kappa is affine, and neither the profile nor the Jacobi
    # field's coefficients evaluate the arc series there, not even to throw
    # the values away: the profile reads exactly its points at or above rho,
    # the Jacobi field the N_ARC - 1 nodes of its arc piece off the origin
    # and at most one of the flat piece's, its end at the break where that
    # rounds to t >= rho - 1
    prof = assemble_profile(alpha)
    reads = []
    dense_eval = singular_ode.DenseSolution.eval

    def recorded(sol, t):
        if sol is prof.nu.base:
            reads.append(np.ravel(t))
        return dense_eval(sol, t)

    monkeypatch.setattr(singular_ode.DenseSolution, "eval", recorded)
    q = np.linspace(0.0, 1.0, 101)
    prof.eval(q)
    assert len(reads) == 1 and np.array_equal(reads[0], q[q >= prof.rho] - 1.0)
    reads.clear()
    prof.eval(0.5 * prof.rho)
    assert reads == []
    jacobi_check(prof)
    t = np.concatenate(reads)
    assert singular_ode.N_ARC - 1 <= t.size <= singular_ode.N_ARC and np.all(t >= prof.rho - 1.0)


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
    # at alpha = 0 (x = 1) the flat-height series is the limit flat height
    # (8e-15 measured), which no node of the interpolant reaches
    series = np.polynomial.chebyshev.chebval(1.0, extremal._H0_SERIES)
    assert abs(series - limit_constants().M_hat) <= 2e-14


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
    (lambda sol, ev: ev.vstar(NAN), EvaluationError),
    (lambda sol, ev: solve_nu(0.1).base.eval(NAN), DomainError),
    (lambda sol, ev: solve_nu(0.1).eval(NAN), DomainError),
    (lambda sol, ev: solve_nu(0.1).eval(np.array([0.5, NAN])), DomainError),
    (lambda sol, ev: assemble_profile(0.1).eval(NAN), DomainError),
    (lambda sol, ev: sol.eval(NAN), DomainError),
    (lambda sol, ev: scaled_arc_ivp(NAN), DomainError),
    (lambda sol, ev: nu_derivatives_at_one(NAN), DomainError),
    (lambda sol, ev: solve_nu(NAN), DomainError),
    (lambda sol, ev: scaled_arc_ivp(np.inf), DomainError),
    (lambda sol, ev: nu_derivatives_at_one(np.inf), DomainError),
    (lambda sol, ev: solve_nu(np.inf), DomainError),
    (lambda sol, ev: lagrangian_value(0.1, 0.5, 0.3, NAN), DomainError),
    (lambda sol, ev: lagrangian_value(0.1, 0.5, 0.3, np.inf), DomainError),
    (lambda sol, ev: lagrangian_value(NAN, 0.5, 0.3, 1.0), DomainError),
    (lambda sol, ev: lagrangian_value(0.1, NAN, 0.3, 1.0), DomainError),
    (lambda sol, ev: lagrangian_value(0.1, 0.5, NAN, 1.0), DomainError),
    (lambda sol, ev: lagrangian_value(0.1, np.inf, 0.3, 1.0), DomainError),
    (lambda sol, ev: lagrangian_value(0.1, 0.5, np.inf, 1.0), DomainError),
    *((lambda sol, ev, v=v: singular_ode.integrate_variational(
        lambda t: (0.1, 0.2, 0.3), *v, -1.0), DomainError)
      for v in ((NAN, 1.0), (np.inf, 1.0), (1.0, NAN), (1.0, np.inf))),
    (lambda sol, ev: endpoint_weight_closed_form(NAN), DomainError),
    (lambda sol, ev: endpoint_weight_closed_form(np.inf), DomainError),
    (lambda sol, ev: endpoint_weight_closed_form(1e300), DomainError),
], ids=["evaluator", "evaluator-array", "gradient", "vstar",
        "DenseSolution", "MappedSolution", "MappedSolution-array", "ScaledProfile",
        "ExtremalSolution", "scaled_arc_ivp", "nu_derivatives_at_one", "solve_nu",
        "scaled_arc_ivp-inf", "nu_derivatives_at_one-inf", "solve_nu-inf",
        "lagrangian_value-c", "lagrangian_value-c-inf", "lagrangian_value-q",
        "lagrangian_value-y", "lagrangian_value-yp", "lagrangian_value-y-inf",
        "lagrangian_value-yp-inf",
        "integrate_variational-ydd0", "integrate_variational-ydd0-inf",
        "integrate_variational-ydot0", "integrate_variational-ydot0-inf",
        "endpoint_weight_closed_form", "endpoint_weight_closed_form-inf",
        "endpoint_weight_closed_form-1e300"])
def test_nan_is_refused_at_each_evaluation_boundary(solved, call, error):
    # each check is written so that NaN fails it, with the check's own error;
    # so do an infinite alpha and the alphas where the endpoint weight's
    # closed form (the tests' oracle) overflows
    sol = solved(1.0)
    with pytest.raises(error):
        call(sol, BodyEvaluator(sol))


# ---------------------------------------------------------------------------
# refusals of out-of-range input
# ---------------------------------------------------------------------------

_LOW = _Curve(lambda q: (np.full_like(q, 0.1), np.full_like(q, 0.5), np.zeros_like(q)))
_DIAGONAL = _Curve(lambda q: (q, np.ones_like(q), np.zeros_like(q)))   # nu = q: no room
_TOO_HIGH = _Curve(lambda q: (q + 1.0, np.ones_like(q), np.ones_like(q)))


def _profile(**fields):
    return extremal.ScaledProfile(**{**dict(alpha=0.1, rho=0.5, nu=solve_nu(0.1), slope=0.5,
                                           height0=0.3), **fields})


def _mesh(vertices, faces=((0, 1, 2),), **metadata):
    return BodyMesh(np.array(vertices, float), np.array(faces, np.int64), metadata)


_TRIANGLE = [(0.0, 0.0, -0.1), (0.5, 0.0, -0.1), (0.0, 0.5, -0.1)]


@pytest.mark.parametrize("call, error, match", [
    (lambda sol, path: _profile(rho=1.2), DomainError, "rho out of range"),
    (lambda sol, path: _profile(slope=1.5), DomainError, "switch slope out of range"),
    (lambda sol, path: _profile(height0=-0.1), DomainError, "flat height must be positive"),
    (lambda sol, path: _profile(nu=_TOO_HIGH), DomainError, r"nu\(1\) = nu'\(1\) = 1"),
    (lambda sol, path: _profile(nu=_DIAGONAL), DomainError, "nu > q or convexity"),
    (lambda sol, path: dataclasses.replace(sol, M=0.1), DomainError, "p <= v <= p \\+ M"),
    (lambda sol, path: I_of(1.0, 0.1, solve_nu(0.1)), DomainError, r"rho must be in \(0,1\)"),
    (lambda sol, path: I_of(0.5, 0.1, _LOW), DomainError, "admissible region"),
    (lambda sol, path: I_closed_form_alpha0(0.0, solve_nu(0.0)), DomainError,
     r"rho must be in \(0,1\)"),
    (lambda sol, path: I_closed_form_alpha0(0.5, _LOW), DomainError, "degenerate continuation"),
    (lambda sol, path: abel_residual(solve_nu(0.0), 1.0), DomainError, r"q must be in \(0,1\)"),
    (lambda sol, path: functional.J_unscaled(SimpleNamespace(p0=1e77)), DomainError,
     "the unscaled integrand overflows"),
    (lambda sol, path: functional.resistance_direct(lambda x1, x2: 0.0 * x1, n=800),
     DomainError, r"has no gradient\(x1, x2\) method"),
    (lambda sol, path: _mesh([v[:2] for v in _TRIANGLE]), DomainError, r"vertices must be \(n, 3\)"),
    (lambda sol, path: _mesh(_TRIANGLE, [(0, 1)]), DomainError, r"faces must be \(m, 3\)"),
    (lambda sol, path: _mesh(_TRIANGLE, [(0, 1, 3)]), DomainError, "face indices out of range"),
    (lambda sol, path: _mesh(_TRIANGLE[:2] + [(1.0, 0.5, 0.0)]), DomainError,
     "outside the unit cylinder"),
    (lambda sol, path: _mesh(_TRIANGLE[:2] + [(0.0, 0.5, 0.1)]), DomainError, "above z = 0"),
    (lambda sol, path: _mesh(_TRIANGLE, M=0.05), DomainError, "below z = -M"),
    (lambda sol, path: export_obj(_mesh(np.zeros((0, 3)), np.zeros((0, 3))), path),
     EvaluationError, "refusing to write empty mesh"),
], ids=["ScaledProfile-rho", "ScaledProfile-slope", "ScaledProfile-height0",
        "ScaledProfile-rim", "ScaledProfile-convexity", "ExtremalSolution", "I_of-rho",
        "I_of-continuation", "I_closed_form_alpha0-rho", "I_closed_form_alpha0-continuation",
        "abel_residual-q", "J_unscaled-p0", "resistance_direct-no-gradient", "BodyMesh-vertices",
        "BodyMesh-faces", "BodyMesh-indices", "BodyMesh-cylinder", "BodyMesh-above",
        "BodyMesh-below", "export_obj-empty"])
def test_out_of_range_input_is_refused(solved, tmp_path, call, error, match):
    path = tmp_path / "empty.obj"
    with pytest.raises(error, match=match):
        call(solved(1.0), path)
    assert not path.exists()


def _flat(value, slope):
    return _Curve(lambda q: (np.full_like(q, value), np.full_like(q, slope), np.zeros_like(q)))


_BELOW = _flat(0.4, 0.1)   # nu(0.5) < 0.5, with b = nu - 0.5*nu' > 0
_NAN_VALUE = _flat(NAN, 0.5)
_NAN_SLOPE = _flat(0.6, NAN)
_STEEP = _flat(0.6, -np.inf)


@pytest.mark.parametrize("call", [
    lambda: I_closed_form_alpha0(0.5, _BELOW),
    lambda: I_of(0.5, 0.1, _NAN_VALUE),
    lambda: I_closed_form_alpha0(0.5, _NAN_VALUE),
    lambda: I_of(0.5, 0.1, _NAN_SLOPE),
    lambda: I_closed_form_alpha0(0.5, _NAN_SLOPE),
    lambda: I_of(0.5, 0.1, _STEEP),
    lambda: I_closed_form_alpha0(0.5, _STEEP),
    lambda: abel_residual(_NAN_VALUE, 0.5),
    lambda: abel_residual(_NAN_SLOPE, 0.5),
    lambda: abel_residual(_STEEP, 0.5),
], ids=["I_closed_form_alpha0-below", "I_of-nan-value", "I_closed_form_alpha0-nan-value",
        "I_of-nan-slope", "I_closed_form_alpha0-nan-slope", "I_of-steep",
        "I_closed_form_alpha0-steep", "abel_residual-nan-value", "abel_residual-nan-slope",
        "abel_residual-steep"])
def test_tangent_readers_refuse_what_their_formulas_cannot_take(call):
    # nu(rho) <= rho (nu = 0.4 at rho = 0.5), a NaN value or slope, or an
    # infinite slope at rho: DomainError, never a NaN or a numpy warning
    with pytest.raises(DomainError, match="degenerate"):
        call()


@pytest.mark.parametrize("curve", [
    _flat(0.5000000000000001, -1e308),   # (nu - rho)/(1 - a) underflows to 0
    _flat(1e300, -0.9999999999999999),   # b/(1 + a) overflows to inf
], ids=["distance-underflows", "distance-overflows"])
def test_I_of_refuses_a_branch_point_distance_it_cannot_grade_from(curve):
    # the tangent passes _tangent's checks, but the panel grading doubles
    # d away from the branch point and would never pass rho/2 from d = 0;
    # the alarm turns such a hang into a failure
    def hang(signum, frame):
        raise TimeoutError("I_of did not return in 5 s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        with pytest.raises(DomainError, match="degenerate continuation: a branch point"):
            I_of(0.5, 0.1, curve)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("sign, match", [
    (1.0, r"I already positive at rho=0\.015;"),
    (-1.0, r"no sign change on \[0\.015, 0\.975\]$"),
], ids=["rises-nowhere-positive", "rises-nowhere-negative"])
def test_find_switch_refuses_an_integral_that_never_rises(monkeypatch, sign, match):
    nu = solve_nu(0.1)
    monkeypatch.setattr(extremal, "_switch_rule",
                        lambda rho, a, b, alpha: np.full(np.shape(rho), sign))
    with pytest.raises(NoRoot, match=match):
        find_switch(0.1, nu)
