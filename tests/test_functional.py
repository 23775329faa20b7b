"""Reduced 1-D functional, its integrand algebra, and the 2-D oracle.

Key cross-checks: the hand partials against finite differences of the
integrand (the partials feed the switching machinery, so they get their
own oracle), and the three independent routes to the functional value
(scaled bracket, direct quadrature, rearranged boundary-term form), which
share no code beyond the integrand itself.
"""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from hypothesis import given, settings, strategies as st

from newton_minres import (
    BodyEvaluator,
    DomainError,
    J_scaled,
    J_unscaled,
    assemble_profile,
    el_residual,
    gamma_form_J,
    lagrangian_partials,
    lagrangian_value,
    resistance_direct,
)
from newton_minres import functional


# ---------------------------------------------------------------------------
# integrand pointwise values
# ---------------------------------------------------------------------------

def test_integrand_spot_values():
    assert lagrangian_value(0.0, 1.0, 0.0, 1.0) == pytest.approx(0.5, abs=1e-14)
    assert lagrangian_value(0.0, 1.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-14)


def test_integrand_rejects_kink_without_curvature():
    # at v = p, f is defined only as a limit, which the pointwise L does not take
    with pytest.raises(DomainError):
        lagrangian_value(0.5, 0.5, 0.3, 1.0)


def test_scaled_integrand_spot_values():
    assert lagrangian_value(0.0, 1.0, 0.0, 0.0) == pytest.approx(1.0, abs=1e-14)
    assert lagrangian_value(0.0, 1.0, 1.0, 0.0) == pytest.approx(3.0, abs=1e-14)
    with pytest.raises(DomainError):
        lagrangian_value(0.7, 0.7, 1.0, 0.0)


INF = float("inf")


@pytest.mark.parametrize("fn, args", [
    (lagrangian_value, (0.1, 1e160, 0.3, 1.0)),
    (lagrangian_value, (0.1, 1e78, 0.3, 1.0)),
    (lagrangian_value, (0.1, 0.5, 1e200, 1.0)),
    (lagrangian_value, (0.0, 1e-160, 0.3, 0.0)),
    (lagrangian_value, (INF, INF, 0.3, 1.0)),
    (lagrangian_partials, (0.1, 1e78, 0.3, 1.0)),
    (lagrangian_partials, (0.1, 1e76, 0.3, 1.0)),
    (lagrangian_partials, (0.1, 0.5, 1e155, 1.0)),
    (el_residual, (0.1, 1e78, 0.3, 0.0, 1.0)),
    (el_residual, (0.1, 0.5, 1e155, 0.0, 1.0)),
], ids=["value-y-1e160", "value-y-1e78", "value-yp-1e200", "value-y-1e-160",
        "value-inf-inf", "partials-y-1e78", "partials-y-1e76", "partials-yp-1e155",
        "el_residual-y-1e78", "el_residual-yp-1e155"])
def test_lagrangian_family_refuses_what_leaves_the_doubles(fn, args):
    # finite arguments whose intermediates overflow, divide by zero or make
    # a NaN are refused with DomainError, not returned as NaN, inf or 0.0
    with pytest.raises(DomainError, match="lagrangian_"):
        fn(*args)


def test_lagrangian_family_is_finite_just_inside_the_doubles():
    assert 0.0 < lagrangian_value(0.1, 1e70, 0.3, 1.0) < INF
    assert all(np.isfinite(v) for v in lagrangian_partials(0.1, 1e30, 0.3, 1.0).values())
    assert np.isfinite(el_residual(0.1, 1e30, 0.3, 0.0, 1.0))


def test_second_slope_derivative_spot_value():
    # 4*sqrt(v^2-p^2)/(v^2+1)^2 at (0, 1): exactly 1
    assert lagrangian_partials(0.0, 1.0, 0.3, 1.0)["ypyp"] == pytest.approx(1.0)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.0, 3.0), st.floats(0.02, 4.0), st.floats(-1.0, 5.0))
def test_second_slope_derivative_positive(p, gap, vp):
    v = p + gap
    assert lagrangian_partials(p, v, vp, 1.0)["ypyp"] > 0.0


def test_partials_match_finite_differences():
    rng = np.random.default_rng(7)
    h = 1e-6
    for _ in range(20):
        q = rng.uniform(0.0, 2.0)
        y = q + rng.uniform(0.1, 2.0)
        yp = rng.uniform(-0.5, 3.0)
        c = rng.uniform(0.0, 1.0)
        parts = lagrangian_partials(q, y, yp, c)
        fd_y = (lagrangian_value(q, y + h, yp, c) - lagrangian_value(q, y - h, yp, c)) / (2 * h)
        fd_yp = (lagrangian_value(q, y, yp + h, c) - lagrangian_value(q, y, yp - h, c)) / (2 * h)
        scale = max(1.0, abs(fd_y), abs(fd_yp))
        assert abs(parts["y"] - fd_y) <= 2e-5 * scale
        assert abs(parts["yp"] - fd_yp) <= 2e-5 * scale
        # mixed/second partials against differences of the first ones
        fd_yyp = (lagrangian_partials(q, y + h, yp, c)["yp"]
                  - lagrangian_partials(q, y - h, yp, c)["yp"]) / (2 * h)
        fd_qyp = (lagrangian_partials(q + h, y, yp, c)["yp"]
                  - lagrangian_partials(q - h, y, yp, c)["yp"]) / (2 * h)
        fd_ypyp = (lagrangian_partials(q, y, yp + h, c)["yp"]
                   - lagrangian_partials(q, y, yp - h, c)["yp"]) / (2 * h)
        assert abs(parts["yyp"] - fd_yyp) <= 2e-4 * max(1.0, abs(fd_yyp))
        assert abs(parts["qyp"] - fd_qyp) <= 2e-4 * max(1.0, abs(fd_qyp))
        assert abs(parts["ypyp"] - fd_ypyp) <= 2e-4 * max(1.0, abs(fd_ypyp))


def test_el_residual_vanishes_on_manufactured_solution():
    # whatever ypp the equation dictates at (q, y, yp) must zero the residual
    for q, y, yp, c in [(0.3, 1.2, 0.5, 0.0), (0.8, 1.1, 1.7, 0.25)]:
        parts = lagrangian_partials(q, y, yp, c)
        ypp = (parts["y"] - parts["qyp"] - yp * parts["yyp"]) / parts["ypyp"]
        assert abs(el_residual(q, y, yp, ypp, c)) <= 1e-12


# ---------------------------------------------------------------------------
# functional values: three routes, one number
# ---------------------------------------------------------------------------

def test_scaled_value_at_limit():
    assert J_scaled(assemble_profile(0.0)) == pytest.approx(10.7344, abs=1e-3)


def test_three_routes_agree_on_solved_body(solved):
    sol = solved(1.0)
    j_direct = J_unscaled(sol)
    j_gamma = gamma_form_J(sol)
    j_bracket = sol.profile.alpha * J_scaled(sol.profile)
    assert j_direct == pytest.approx(sol.J, rel=1e-8)
    assert j_bracket == pytest.approx(sol.J, rel=1e-8)
    assert j_gamma == pytest.approx(j_direct, rel=1e-7)
    assert j_direct == pytest.approx(0.597791, rel=5e-4)


def test_bracket_route_far_along_the_family(solved):
    sol = solved(50.0)
    j_bracket = sol.profile.alpha * J_scaled(sol.profile)
    assert j_bracket == pytest.approx(4.27905e-4, abs=5e-7)


def _J_scaled_by_quad(profile):
    """Adaptive reference for J_scaled: both parts by scipy's quad, the arc
    part in the movable frame x = nu - q with its limit at q = 1."""
    alpha, rho, a, b = profile.alpha, profile.rho, profile.slope, profile.height0
    lim = np.sqrt(profile.nu.eval(1.0)[2]) / (1.0 + alpha)

    def arc(q):
        if q > 1.0 - 1e-9:
            return lim
        x, xd, _ = profile.nu.base.eval(q - 1.0)
        s = np.sqrt(x * (x + 2.0 * q))
        d = (x + q) ** 2 + alpha
        return 2.0 * s * (xd + 1.0) ** 2 / (d * d) - (q * xd - x) / ((x + q) * d * s)

    opts = dict(epsabs=1e-14, epsrel=1e-13, limit=200)
    return (quad(lambda q: lagrangian_value(q, b + a * q, a, alpha), 0.0, rho, **opts)[0]
            + quad(arc, rho, 1.0, **opts)[0])


@pytest.mark.parametrize("M", [0.5, 1.0, 1.5, 2.0, 2.5, 5.0, 10.0, 50.0, 100.0])
def test_scaled_bracket_matches_adaptive_reference(solved, M):
    # the adaptive reference checks both fixed rules: J_scaled's
    # Clenshaw-Curtis and J_unscaled's Gauss-Legendre
    sol = solved(M)
    prof = sol.profile
    ref = _J_scaled_by_quad(prof)
    assert J_scaled(prof) == pytest.approx(ref, rel=1e-12, abs=0.0)
    assert J_unscaled(sol) == pytest.approx(prof.alpha * ref, rel=1e-10, abs=0.0)


class _SyntheticCurve:
    """v = p + M on [0, p0]: no flat piece, regular endpoint."""

    def __init__(self, M, p0):
        self.M = M
        self.p0 = p0

    def eval(self, p):
        p = np.asarray(p, float)
        return p + self.M, np.ones_like(p), np.zeros_like(p)


def test_routes_agree_on_synthetic_curve():
    stub = _SyntheticCurve(0.5, 2.0)
    jd = J_unscaled(stub)
    jg = gamma_form_J(stub)
    assert jd > 0.0
    assert jg == pytest.approx(jd, rel=1e-7)


# ---------------------------------------------------------------------------
# 2-D oracle
# ---------------------------------------------------------------------------

def test_direct_resistance_flat_disk_and_cone():
    disk = lambda x1, x2: np.zeros_like(np.asarray(x1, float))
    assert resistance_direct(disk, n=200) == pytest.approx(np.pi, abs=1e-3)

    def cone(x1, x2):
        x1 = np.asarray(x1, float)
        return np.hypot(x1, x2) - 1.0

    assert resistance_direct(cone, n=240) == pytest.approx(np.pi / 2.0, abs=1e-3)


def test_direct_resistance_mirror_symmetry():
    def tilted(x1, x2):
        x1 = np.asarray(x1, float)
        return np.minimum(0.0, -0.2 - 0.1 * np.asarray(x2, float))

    def mirrored(x1, x2):
        return tilted(x1, -np.asarray(x2, float))

    a = resistance_direct(tilted, n=160)
    b = resistance_direct(mirrored, n=160)
    assert a == pytest.approx(b, rel=1e-12)


def test_direct_resistance_rejects_bad_resolution():
    disk = lambda x1, x2: np.zeros_like(np.asarray(x1, float))
    with pytest.raises(DomainError):
        resistance_direct(disk, n=7)
    with pytest.raises(DomainError):
        resistance_direct(disk, n=250 + 1)  # odd
    with pytest.raises(DomainError):
        # even but not a multiple of 4: the coarse level n/2 = 401 would
        # centre a cell on the crease x2 = 0
        resistance_direct(disk, n=802)
    # a size that is not a finite integer is refused, never truncated (8.5
    # ran at n = 8) nor left to int()'s ValueError or OverflowError
    for n in (8.5, 800.25, np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError, match="finite integer"):
            resistance_direct(disk, n=n)
    # integral floats and numpy integers are sizes
    ref = resistance_direct(disk, n=8)
    assert resistance_direct(disk, n=8.0) == resistance_direct(disk, n=np.int64(8)) == ref


def test_direct_resistance_vs_functional_value(solved):
    sol = solved(1.0)
    body = BodyEvaluator(sol)
    # cheap-resolution sanity run; the acceptance test does the full-n version
    val = resistance_direct(body, n=200)
    assert val == pytest.approx(2.0 * sol.J, rel=1e-2)


def test_direct_resistance_never_calls_the_1d_functional(solved, monkeypatch):
    # the 2-D route is a cross-check only while it shares nothing with 1-D
    sol = solved(1.0)

    def forbidden(*args, **kwargs):
        raise AssertionError("2-D oracle called into the 1-D functional")

    for name in ("quad_value", "J_scaled", "J_unscaled", "gamma_form_J"):
        monkeypatch.setattr(functional, name, forbidden)
    val = resistance_direct(BodyEvaluator(sol), n=64)
    assert val == pytest.approx(2.0 * sol.J, rel=1e-2)


class _NewtonRevolutionBody:
    """Newton's body of revolution over the unit disk, sharing nothing with
    the package: flat on the disk of radius r0, then u'(r) = p >= 1 along
    r = (r0/4)(1 + p^2)^2/p up to the rim.  Its depth and drag are scipy
    quad integrals in p; its gradient is exact, with p(r) the root of the
    convex p^3 + 2p + 1/p = 4r/r0, reached by Newton's method from the
    right."""

    mirror_symmetric = True

    def __init__(self, r0):
        self.r0 = r0
        p_rim = brentq(lambda p: self.radius(p) - 1.0, 1.0, 1e3, xtol=1e-15, rtol=1e-15)
        self.depth = quad(lambda p: p * self.dradius(p), 1.0, p_rim,
                          epsabs=0.0, epsrel=2e-14)[0]
        self.drag = np.pi * r0 * r0 + 2.0 * np.pi * quad(
            lambda p: self.radius(p) * self.dradius(p) / (1.0 + p * p), 1.0, p_rim,
            epsabs=0.0, epsrel=2e-14)[0]

    def radius(self, p):
        return 0.25 * self.r0 * (1.0 + p * p) ** 2 / p

    def dradius(self, p):
        return 0.25 * self.r0 * (1.0 + p * p) * (3.0 * p * p - 1.0) / (p * p)

    def gradient(self, x1, x2):
        r = np.hypot(x1, x2)
        t = 4.0 * np.maximum(r, self.r0) / self.r0
        p = np.cbrt(t)   # p^3 < t: right of the root
        for _ in range(100):
            step = (p ** 3 + 2.0 * p + 1.0 / p - t) / (3.0 * p * p + 2.0 - 1.0 / (p * p))
            p = p - step
            if np.all(np.abs(step) <= 4e-16 * p):
                break
        p = np.where(r > self.r0, p, 0.0)
        return p * x1 / r, p * x2 / r


def test_direct_resistance_meets_a_closed_form_body():
    # r0 = 1/2 lies on a cell edge of every grid, so the integrand's jump
    # from 1 to 1/2 at the flat edge costs the midpoint rule nothing, and
    # the Richardson step leaves a fourth-order error (8.3e-13 at n = 800)
    body = _NewtonRevolutionBody(0.5)
    assert body.depth == pytest.approx(0.67274, abs=5e-6)
    assert resistance_direct(body, n=800) == pytest.approx(body.drag, rel=1e-11, abs=0.0)


def test_direct_resistance_error_estimate_is_not_a_bound():
    # r0 = 1/3 falls inside a cell: the jump makes the error first order
    # (relative 1.5e-3 at n = 400, 7.7e-4 at n = 800), and |fine - coarse|/3,
    # the error a smooth integrand would leave, reads half of it
    body = _NewtonRevolutionBody(1.0 / 3.0)
    err = {n: abs(resistance_direct(body, n=n) / body.drag - 1.0) for n in (400, 800)}
    assert 1.8 <= err[400] / err[800] <= 2.2
    assert 5e-4 <= err[800] <= 1e-3
    estimate = abs(functional._grid_sum(body, 800) - functional._grid_sum(body, 400)) / 3.0
    assert estimate <= 0.6 * err[800] * body.drag


class _PlainBody:
    """A BodyEvaluator without its mirror_symmetric declaration."""

    def __init__(self, ev):
        self.ev = ev

    def __call__(self, x1, x2):
        return self.ev(x1, x2)

    def gradient(self, x1, x2):
        return self.ev.gradient(x1, x2)


@pytest.mark.parametrize("n", [64, 320, 804])
def test_direct_resistance_quadrant_equals_full_disk(solved, n):
    # 804's coarse level n/2 = 402 has a cell centred on theta = pi/2,
    # which the quadrant sum weights by 2; 64 and 320 have none
    ev = BodyEvaluator(solved(1.0))
    assert ev.mirror_symmetric
    quadrant = resistance_direct(ev, n=n)
    full = resistance_direct(_PlainBody(ev), n=n)
    assert quadrant == pytest.approx(full, rel=1e-14, abs=0.0)

