"""Arc solves, switching radius, optimality certificates, scaling maps.

Closed-form endpoint Taylor data and the alpha=0 closed form of the
switching integral act as the independent oracles here; everything with a
hand-derived formula is additionally cross-checked against quadrature or
finite differences of the solved curves.
"""

import numpy as np
import pytest

from newton_minres import (
    DomainError,
    InconsistentScale,
    NoRoot,
    SignChange,
    I_closed_form_alpha0,
    I_of,
    abel_residual,
    adjoint_omega,
    assemble_profile,
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
from newton_minres.extremal import (scaled_arc_ivp, scaled_lagrangian,
                                   variational_coeffs_along)

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
    assert nu(1.0) == pytest.approx(1.0, abs=1e-12)
    assert nu.derivative(1.0) == pytest.approx(1.0, abs=1e-10)
    assert nu(0.0) == pytest.approx(0.3157595, abs=1e-6)
    assert nu.derivative(0.0) == pytest.approx(0.5350553, abs=1e-6)


def test_solved_arc_taylor_matches_formulas():
    for alpha in (0.0, 0.1):
        nu = solve_nu(alpha)
        _, _, v2, v3 = nu_derivatives_at_one(alpha)
        assert nu.second(1.0) == pytest.approx(v2, abs=1e-8)
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
    vals = [scaled_lagrangian(q, nu(q), nu.derivative(q), 0.05) for q in qs]
    assert np.all(np.asarray(vals) > 0.0)


# ---------------------------------------------------------------------------
# switching integral
# ---------------------------------------------------------------------------

def test_switching_integral_against_closed_form():
    nu = solve_nu(0.0)
    for rho in (0.05, 0.1, 0.2, 0.5):
        assert abs(I_of(rho, 0.0, nu) - I_closed_form_alpha0(rho, nu)) <= 1e-8


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
    rho = find_switch(0.0)
    assert rho == pytest.approx(RHO_HAT, abs=1e-5)
    nu = solve_nu(0.0)
    assert abs(I_of(rho, 0.0, nu)) < 1e-12
    h = 1e-5
    slope = (I_of(rho + h, 0.0, nu) - I_of(rho - h, 0.0, nu)) / (2.0 * h)
    assert slope == pytest.approx(0.220371, abs=1e-4)


def test_switch_radius_along_family():
    assert find_switch(1.0 / 2.43337**2) == pytest.approx(0.548904, abs=1e-4)
    assert find_switch(1.0 / 316.727**2) == pytest.approx(0.109020, abs=1e-4)


def test_switch_rejects_invalid_family_parameter():
    for alpha in (1.0 / 3.0, 0.35, 0.5):
        with pytest.raises(NoRoot, match="hypothesis"):
            find_switch(alpha)


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
    assert prof.kappa(rho - 1e-12) == pytest.approx(prof.kappa(rho + 1e-12), abs=1e-10)
    assert prof.kappa_deriv(rho - 1e-12) == pytest.approx(prof.kappa_deriv(rho + 1e-12),
                                                          abs=1e-8)
    qs = np.linspace(0.0, 1.0, 300)
    second = prof.kappa_second(qs)
    assert np.all(second >= -1e-12)
    assert prof.kappa(0.0) == prof.height0
    with pytest.raises(DomainError):
        prof.kappa(1.2)


def test_profile_height_times_slope_scale():
    alpha = 1.0 / 3.71647**2
    prof = assemble_profile(alpha)
    assert prof.height0 * 3.71647 == pytest.approx(1.0, abs=1e-4)


# ---------------------------------------------------------------------------
# optimality certificates
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.0, 0.01, 0.1])
def test_adjoint_deficiency_negative_inside_flat(alpha):
    prof = assemble_profile(alpha)
    adj = adjoint_omega(prof)
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
    assert zeta(1.0) == pytest.approx(0.0, abs=1e-12)
    h = 1e-6
    assert (zeta(1.0) - zeta(1.0 - h)) / h == pytest.approx(1.0, abs=1e-4)


def test_variational_coefficients_finite_at_rim():
    coeffs = variational_coeffs_along(assemble_profile(0.0))
    # exact t=0 limits: (-4/3)*lam*nu3/nu2 and (2/3)*lam*nu3/nu2 + g_xd(0,0,0)
    assert coeffs.alpha_fn(0.0) == pytest.approx(0.5, abs=1e-8)
    assert coeffs.beta_fn(0.0) == pytest.approx(3.25, abs=1e-8)
    # smooth approach at the scale the integrator actually samples
    # (below ~1e-4 the movable-frame state x = O(t^2) drops under the dense
    # solution's absolute accuracy, so closer probes are meaningless)
    for fn in (coeffs.alpha_fn, coeffs.beta_fn, coeffs.sigma_fn):
        assert np.isfinite(fn(0.0))
        assert fn(-1e-3) == pytest.approx(fn(0.0), abs=5e-2)


@pytest.mark.parametrize("alpha", [0.0, 0.1])
def test_variational_coefficients_linearize_the_arc_operator(alpha):
    # y'' = 4 lam (t y' - y)/t^2 + alpha_fn y/t + beta_fn y' must be the
    # linearization of F = lam x'^2/x + g along kappa on both branches, so
    # t F_x + 4 lam/t = alpha_fn and F_xd - 4 lam/t = beta_fn, with F_x and
    # F_xd from central differences of the nonlinear right side
    prof = assemble_profile(alpha)
    coeffs = variational_coeffs_along(prof)
    g = scaled_arc_ivp(alpha).g

    def F(t, x, xd):
        return coeffs.lam * xd * xd / x + g(t, x, xd)

    t = np.linspace(-0.95, -0.1, 18)
    x = prof.kappa(t + 1.0) - (t + 1.0)
    xd = prof.kappa_deriv(t + 1.0) - 1.0
    hx, h = 1e-5 * x, 1e-6  # F ~ 1/x, and x = O(t^2) is small near the rim
    f_x = (F(t, x + hx, xd) - F(t, x - hx, xd)) / (2.0 * hx)
    f_xd = (F(t, x, xd + h) - F(t, x, xd - h)) / (2.0 * h)
    lam4 = 4.0 * coeffs.lam / t
    np.testing.assert_allclose(coeffs.alpha_fn(t), t * f_x + lam4, rtol=0.0, atol=1e-7)
    np.testing.assert_allclose(coeffs.beta_fn(t), f_xd - lam4, rtol=0.0, atol=1e-7)


@pytest.mark.parametrize("alpha", [0.0, 0.01, 0.1])
def test_field_jacobian_sign_constant(alpha):
    assert field_jacobian_check(alpha) == -1


def test_field_jacobian_spot_example():
    assert field_jacobian_check(0.01, 1e-3) == -1


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
        assert sol.v(p0 * q) == pytest.approx(p0 * prof.kappa(q), rel=1e-12)
        assert sol.v_deriv(p0 * q) == pytest.approx(prof.kappa_deriv(q), rel=1e-12)


def test_solve_for_height_known_rows(solved):
    sol = solved(0.5)
    assert sol.p0 == pytest.approx(2.43337, abs=1e-3)
    sol = solved(2.5)
    assert sol.p0 == pytest.approx(8.16986, abs=1e-3)
    assert sol.slope0 == pytest.approx(0.553467, abs=1e-4)


def test_solve_for_height_roundtrip(solved):
    sol = solved(1.5)
    assert float(sol.v(0.0)) == pytest.approx(1.5, abs=1e-8)
    assert float(sol.v(sol.p0)) == pytest.approx(sol.p0, abs=1e-8)
    # curve stays in the admissible slab p <= v <= p + M
    ps = np.linspace(0.0, sol.p0, 200)
    vs = sol.v(ps)
    assert np.all(vs >= ps - 1e-9)
    assert np.all(vs <= ps + 1.5 + 1e-9)


def test_solve_for_height_rejects_nonpositive():
    with pytest.raises(NoRoot):
        solve_for_height(0.0)
    with pytest.raises(NoRoot):
        solve_for_height(-2.0)


def test_limit_constants_values():
    lc = limit_constants()
    assert lc.r_hat == pytest.approx(0.108984, abs=1e-5)
    assert lc.M_hat == pytest.approx(0.315736, abs=1e-5)
    assert lc.slope_hat == pytest.approx(0.530068, abs=1e-5)
    assert lc.J_hat == pytest.approx(10.7344, abs=1e-3)


def test_profile_families_deform_continuously():
    # measured Lipschitz-type constant for the arc curvature in alpha is
    # ~2.5 on [0.2, 1]; frozen at 2x to catch discontinuous regressions
    qs = np.linspace(0.2, 1.0, 60)
    a, b = 0.10, 0.11
    na, nb = solve_nu(a), solve_nu(b)
    gap = np.max(np.abs(na.second(qs) - nb.second(qs)))
    assert gap <= 5.0 * abs(b - a)
