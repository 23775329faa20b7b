"""Reduced 1-D functional, its integrand algebra, and the 2-D oracle.

Key cross-checks: the integrand against its sympy form, whose
Euler-Lagrange identity and Legendre condition sympy proves exactly (the
identity feeds the switching machinery), and the three independent routes
to the functional value (scaled bracket, direct quadrature, rearranged
boundary-term form), which share no code beyond the integrand itself.
"""

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from conftest import PlaneConeBody, arc_calculus
from newton_minres import (
    BodyEvaluator,
    DomainError,
    J_scaled,
    J_unscaled,
    assemble_profile,
    gamma_form_J,
    lagrangian_value,
    resistance_direct,
)
from newton_minres import extremal, functional, singular_ode


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


@pytest.mark.parametrize("args", [
    (0.1, 1e160, 0.3, 1.0),
    (0.1, 1e78, 0.3, 1.0),
    (0.1, 0.5, 1e200, 1.0),
    (0.0, 1e-160, 0.3, 0.0),
    (INF, INF, 0.3, 1.0),
], ids=["value-y-1e160", "value-y-1e78", "value-yp-1e200", "value-y-1e-160",
        "value-inf-inf"])
def test_lagrangian_family_refuses_what_leaves_the_doubles(args):
    # finite arguments whose intermediates overflow, divide by zero or make
    # a NaN are refused with DomainError, not returned as NaN, inf or 0.0
    with pytest.raises(DomainError, match="lagrangian_"):
        lagrangian_value(*args)


def test_lagrangian_family_is_finite_just_inside_the_doubles():
    assert 0.0 < lagrangian_value(0.1, 1e70, 0.3, 1.0) < INF


def test_symbolic_integrand_matches_lagrangian_value():
    # the sympy L of the conftest reference is the package's integrand
    rng = np.random.default_rng(7)
    q = rng.uniform(0.0, 2.0, 2000)
    y = q + rng.uniform(0.05, 2.0, 2000)
    yp = rng.uniform(-0.5, 3.0, 2000)
    for c in (0.0, 0.05, 1.0 / 3.0, 1.0):
        assert lagrangian_value(q, y, yp, c) == pytest.approx(
            arc_calculus().lagrangian(q, y, yp, c), rel=1e-13, abs=0.0)


def test_euler_lagrange_identity_holds_exactly():
    # L_y - L_qy' - y'*L_yy' = L_y'y' * R: the Euler-Lagrange equation of L
    # is the arc equation y'' = R, which I_of and adjoint_omega rest on
    ac = arc_calculus()
    assert sp.simplify(ac.EL - ac.L_ypyp * ac.R) == 0


def test_legendre_condition_holds_exactly():
    # L_y'y' = 4*sqrt(y^2-q^2)/(y^2+c)^2, positive wherever y > q >= 0
    ac = arc_calculus()
    s = sp.sqrt(ac.y ** 2 - ac.q ** 2)
    assert sp.simplify(ac.L_ypyp - 4 * s / (ac.y ** 2 + ac.c) ** 2) == 0
    w = sp.Symbol("w", positive=True)   # w = sqrt(y^2 - q^2)
    assert ac.L_ypyp.subs(ac.y, sp.sqrt(ac.q ** 2 + w ** 2)).is_positive


def test_second_slope_derivative_spot_value():
    # 4*sqrt(y^2-q^2)/(y^2+1)^2 at (0, 1): exactly 1, whatever y'
    ac = arc_calculus()
    assert ac.L_ypyp.subs({ac.q: 0, ac.y: 1, ac.yp: sp.Rational(3, 10), ac.c: 1}) == 1


@settings(max_examples=25, deadline=None)
@given(st.floats(0.0, 3.0), st.floats(0.02, 4.0), st.floats(-1.0, 5.0))
def test_second_slope_derivative_positive(p, gap, vp):
    # the sympy L_y'y' evaluated in floats stays positive across the domain
    ac = arc_calculus()
    ypyp = sp.lambdify((ac.q, ac.y, ac.yp, ac.c), ac.L_ypyp, "math")
    assert ypyp(p, p + gap, vp, 1.0) > 0.0


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
    assert resistance_direct(PlaneConeBody(), n=200) == pytest.approx(np.pi, abs=1e-3)
    cone = PlaneConeBody(slope=1.0)
    assert resistance_direct(cone, n=240) == pytest.approx(np.pi / 2.0, abs=1e-3)


def test_direct_resistance_mirror_symmetry():
    # the plane u = -0.1*x2 and its mirror image u = 0.1*x2
    a = resistance_direct(PlaneConeBody(b=-0.1), n=160)
    b = resistance_direct(PlaneConeBody(b=0.1), n=160)
    assert a == pytest.approx(b, rel=1e-12)


def test_direct_resistance_refuses_a_body_without_gradient(monkeypatch):
    # the oracle reads a body only through its exact gradient: a plain
    # height callable, or a gradient that is not a method, is refused
    # before any rule is built
    def forbidden(*args, **kwargs):
        raise AssertionError("rule built for a body without a gradient")

    monkeypatch.setattr(functional, "_panel_rule", forbidden)
    for body in (lambda x1, x2: 0.0 * x1, type("NoGradient", (), {"gradient": None})()):
        with pytest.raises(DomainError, match=r"has no gradient\(x1, x2\) method"):
            resistance_direct(body, n=48)


def test_direct_resistance_rejects_bad_resolution():
    disk = PlaneConeBody()
    for n in (7, -48, functional.N_MAX + 1, 65536):
        with pytest.raises(DomainError, match=r"n must be in \[8, 1024\]"):
            resistance_direct(disk, n=n)
    # odd sizes and sizes that are not multiples of 4 are rules like any other
    for n in (251, 802):
        assert resistance_direct(disk, n=n) == pytest.approx(np.pi, rel=1e-13)
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
    # the 2-D route is a cross-check only while it shares nothing with 1-D:
    # the bodies are solved first, then no functional, arc or profile may run
    bodies = [(BodyEvaluator(solved(M)), 2.0 * solved(M).J) for M in (1.0, 3.7)]
    bodies.append((PlaneConeBody(slope=1.0), np.pi / 2.0))

    def forbidden(*args, **kwargs):
        raise AssertionError("2-D oracle called into the 1-D machinery")

    for name in ("J_scaled", "J_unscaled", "gamma_form_J"):
        monkeypatch.setattr(functional, name, forbidden)
    for module in (singular_ode, extremal):
        monkeypatch.setattr(module, "integrate", forbidden)
    for name in ("solve_nu", "assemble_profile"):
        monkeypatch.setattr(extremal, name, forbidden)
    for body, drag in bodies:
        assert resistance_direct(body) == pytest.approx(drag, rel=1e-10)


class _NewtonRevolutionBody:
    """Newton's body of revolution over the unit disk, sharing nothing with
    the package: flat on the disk of radius r0, then u'(r) = p >= 1 along
    r = (r0/4)(1 + p^2)^2/p up to the rim.  Its depth and drag are scipy
    quad integrals in p; its gradient is exact, with p(r) the root of the
    convex p^3 + 2p + 1/p = 4r/r0, reached by Newton's method from the
    right.  It declares the radius r0, where the drag integrand jumps from
    1 to 1/2, as the oracle's radial break."""

    mirror_symmetric = True

    def __init__(self, r0):
        self.r0 = r0
        self.radial_breaks = (r0,)
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
    # the declared break r0 = 1/2 puts the integrand's jump from 1 to 1/2 at
    # the flat edge between two radial panels, each smooth (2e-16 at n = 48)
    body = _NewtonRevolutionBody(0.5)
    assert body.depth == pytest.approx(0.67274, abs=5e-6)
    assert resistance_direct(body, n=48) == pytest.approx(body.drag, rel=1e-11, abs=0.0)


def test_direct_resistance_error_estimate_is_not_a_bound():
    # with r0 = 1/3 left undeclared the jump falls inside a radial panel:
    # the error no longer falls steadily with n (relative 6.9e-3 at n = 48,
    # 6.2e-4 at 64, 6.3e-3 at 96), and |I_48 - I_96| reads a tenth of the
    # error at 48, so the n versus 2n difference is an estimate, not a bound
    body = _NewtonRevolutionBody(1.0 / 3.0)
    assert resistance_direct(body, n=48) == pytest.approx(body.drag, rel=1e-13, abs=0.0)
    body.radial_breaks = ()
    coarse, fine = resistance_direct(body, n=48), resistance_direct(body, n=96)
    err = abs(coarse - body.drag)
    assert err > 1e-3 * body.drag
    assert abs(fine - coarse) < 0.5 * err


@pytest.mark.parametrize("M, ratio", [(0.5, 1.1140), (2.0, 0.8830)])
def test_family_against_the_radial_body_of_equal_depth(solved, M, ratio):
    # the family's drag 2J over that of Newton's body of revolution of the
    # same depth M (its flat radius r0 by brentq): the radial body wins at
    # M = 0.5 and the family at M = 2; they cross near M = 1.076
    r0 = brentq(lambda r: _NewtonRevolutionBody(r).depth - M, 1e-3, 0.999, xtol=1e-14)
    value = 2.0 * solved(M).J / _NewtonRevolutionBody(r0).drag
    assert np.sign(value - 1.0) == np.sign(ratio - 1.0)
    assert value == pytest.approx(ratio, abs=1e-3)


class _PlainBody:
    """A body's gradient and radial breaks without its mirror_symmetric
    declaration."""

    def __init__(self, body):
        self.body, self.radial_breaks = body, body.radial_breaks

    def gradient(self, x1, x2):
        return self.body.gradient(x1, x2)


@pytest.mark.parametrize("n", [64, 320, 804])
def test_direct_resistance_quadrant_equals_full_disk(n):
    # the radial body's integrand does not depend on the angle, so the psi
    # rules of the quadrant and of the full disk both sum it exactly
    body = _NewtonRevolutionBody(0.4)
    quadrant = resistance_direct(body, n=n)
    full = resistance_direct(_PlainBody(body), n=n)
    assert quadrant == pytest.approx(full, rel=1e-14, abs=0.0)
    assert quadrant == pytest.approx(body.drag, rel=1e-13, abs=0.0)


class _CountingBody:
    """A BodyEvaluator, seams and all, that records the point count of each
    gradient call."""

    mirror_symmetric = True

    def __init__(self, ev):
        self.ev, self.seams, self.calls = ev, ev.seams, []

    def gradient(self, x1, x2):
        self.calls.append(np.size(x1))
        return self.ev.gradient(x1, x2)


@pytest.mark.parametrize("M, value", [(1.0, "0x1.3211a69271a05p+0"),
                                      (3.7, "0x1.2e2be1ecb3c43p-3")], ids=["1.0", "3.7"])
def test_direct_resistance_reads_the_gradient_in_one_call(solved, monkeypatch, M, value):
    # three pieces of 64 x 64 nodes (strip, fan, keel) in one gradient call,
    # which BodyEvaluator splits into passes of at most 10,000 points; the
    # split moves no bit of the pinned value
    passes = []
    minimize = BodyEvaluator._minimize

    def counted(self, x1, x2):
        passes.append(len(x1))
        return minimize(self, x1, x2)

    monkeypatch.setattr(BodyEvaluator, "_minimize", counted)
    body = _CountingBody(BodyEvaluator(solved(M)))
    assert resistance_direct(body, n=64).hex() == value
    assert body.calls == [3 * 64 * 64]
    assert passes == [10_000, 3 * 64 * 64 - 10_000]


@pytest.mark.parametrize("M", [0.0875, 0.5, 1.0, 3.3, 9.9, 1000.0])
def test_seam_rule_converges_to_the_functional_value(solved, M):
    # split at the body's seams the integrand is smooth on every piece, so
    # the rule converges fast: relative to 2J at most 4.8e-8 at n = 16,
    # 1.7e-10 at 32 and 5.4e-12 at 48 over these heights
    sol = solved(M)
    body = BodyEvaluator(sol)
    for n, bound in ((16, 1e-7), (32, 1e-9), (48, 1e-10)):
        assert resistance_direct(body, n=n) == pytest.approx(2.0 * sol.J, rel=bound, abs=0.0), n


# ---------------------------------------------------------------------------
# zero order: the extremal against competitors from the class
# ---------------------------------------------------------------------------

class _BumpedCurve:
    """The extremal's curve plus eps*phi, phi = 64*(t*(1 - t))^3 with
    t = (p - a)/(b - a) on the 0.4 to 0.9 fraction [a, b] of the arc
    [r, p0], 0 elsewhere: v(0) = M, the flat piece and v(p0) = p0 stay, and
    v is C^2, so BodyEvaluator builds its hull as for the extremal."""

    def __init__(self, sol, eps):
        self.sol, self.eps = sol, eps
        self.p0, self.r, self.slope0, self.M = sol.p0, sol.r, sol.slope0, sol.M
        self.a, self.b = (sol.r + f * (sol.p0 - sol.r) for f in (0.4, 0.9))

    def eval(self, p):
        v, vp, vpp = self.sol.eval(p)
        h, e = self.b - self.a, 64.0 * self.eps
        t = np.clip((np.asarray(p, float) - self.a) / h, 0.0, 1.0)
        u, du = t * (1.0 - t), 1.0 - 2.0 * t
        return (v + e * u ** 3, vp + 3.0 * e * u * u * du / h,
                vpp + 6.0 * e * u * (du * du - u) / (h * h))

    def J(self):
        # J_unscaled's panels break only at r: the bump's C^2 ends at a and
        # b would leave an error of about 1e-7, odd in eps, so break there
        p, w = functional._panel_rule([0.0, self.r, self.a, self.b, self.p0], functional.N_GL)
        v, vp, _ = self.eval(p)
        return float(w @ lagrangian_value(p, v, vp, 1.0))


@pytest.mark.parametrize("M", [0.5, 1.0, 3.3])
def test_two_sided_bumps_raise_the_functional_quadratically(solved, M):
    # the optimality theorem at order zero: an admissible bump of either
    # sign costs drag, as eps^2 (the even part of dJ grows 4-fold when eps
    # doubles); the seam rule on each competitor's hull, 12,288 points in
    # one gradient call, matches its 2J to at most 5.1e-10 over these cases
    sol = solved(M)
    J0 = _BumpedCurve(sol, 0.0).J()
    p = np.linspace(sol.r, sol.p0, 2001)[1:-1]
    dJ = {}
    for eps in (5e-4, -5e-4, 1e-3, -1e-3):
        bumped = _BumpedCurve(sol, eps)
        assert np.all(bumped.eval(p)[2] > 0.0), eps   # convex: in the class
        J = bumped.J()
        dJ[eps] = J - J0
        assert dJ[eps] > 0.0, eps
        drag = resistance_direct(BodyEvaluator(bumped), n=64)
        assert drag == pytest.approx(2.0 * J, rel=1e-9, abs=0.0), eps
    even = [(dJ[e] + dJ[-e]) / 2.0 for e in (5e-4, 1e-3)]
    assert even[1] / even[0] == pytest.approx(4.0, rel=0.05)
