"""Shared fixtures and scipy references.  solve_for_height caches its
solution by height, so the `solved` fixture is solve_for_height itself:
many tests read the same few heights and pay for each once.  `cold_caches`
empties that cache and the Lobatto tables behind every arc, for a test that
counts or times the work of a cold solve, or that patches a name a solve
reads and so must not be handed a cached result (assemble_profile keeps no
cache: every call solves its arc).  The references judge the package with
library calls: scipy for the body's height by the support-function route
and for the endpoint weight by adaptive quadrature; sympy (`arc_calculus`)
for the reduced integrand L, its Euler-Lagrange expression and the arc
equation's forcing, derived from L's formula and the arc equation alone.  The endpoint
weight's closed form (`endpoint_weight_closed_form`), the judge of the
validity edge alpha = 1/3, lives here too: test_acceptance (criterion 5)
and test_extremal import it, and nothing in the package reads it.
`PlaneConeBody` is a closed-form body for the 2-D oracle, which reads a body
only through its exact gradient."""

from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
import sympy as sp
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from newton_minres import DomainError, singular_ode, solve_for_height

# bound at import, so a test that patches one of these names still clears it
_CACHES = (solve_for_height, singular_ode._lobatto_integrals, singular_ode._segment_maps)


def cold_caches():
    """Clear solve_for_height and singular_ode's Lobatto rules and segment
    maps."""
    for cached in _CACHES:
        cached.cache_clear()


@pytest.fixture(scope="session")
def solved():
    return solve_for_height


class PlaneConeBody:
    """The body u = a*x1 + b*x2 + slope*(|x| - 1) on the unit disk, given by
    its exact gradient: the flat disk (drag pi) at a = b = slope = 0, a plane
    at slope = 0, the right cone (drag pi/2) at a = b = 0, slope = 1."""

    def __init__(self, a=0.0, b=0.0, slope=0.0):
        self.a, self.b, self.slope = a, b, slope

    def gradient(self, x1, x2):
        r = np.hypot(x1, x2)
        return self.a + self.slope * x1 / r, self.b + self.slope * x2 / r


def sup_route_height(sol, x1, x2):
    """Height u(x1, x2) of the body by the support-function route, from v alone.

    u(x) = sup_p <p, x> - max(|p|, v(|p1|)).  Inside the disk the optimizer
    lies on the seam |p| = v(p1) (the rim-norm piece grows slower than
    <p, x> below it, faster above), so u is the maximum over p1 in [-p0, p0]
    of the concave seam gain p1*x1 + |x2|*sqrt(v(p1)^2 - p1^2) - v(p1),
    capped at 0.  The gain is read through sol.eval only, never through the
    conjugate curve or the hull, on a 4097-point scan; scipy's bounded
    minimize_scalar polishes it on the two grid cells around the best node.
    """
    p0, ax2 = float(sol.p0), abs(float(x2))

    def seam_gain(p1):
        v = sol.eval(np.abs(p1))[0]
        return p1 * x1 + ax2 * np.sqrt(np.maximum(v * v - p1 * p1, 0.0)) - v

    grid = np.linspace(-p0, p0, 4097)
    gains = seam_gain(grid)
    j = int(np.argmax(gains))
    polish = minimize_scalar(lambda p1: -float(seam_gain(p1)), method="bounded",
                             bounds=(grid[max(j - 1, 0)], grid[min(j + 1, len(grid) - 1)]),
                             options={"xatol": 1e-12})
    return min(max(float(gains[j]), -polish.fun), 0.0)


def endpoint_weight_reference(alpha):
    """int_0^1 sqrt(q)(1-2q) / ((q^2+alpha)^2 sqrt(1-q)) dq by scipy's quad.

    q = sin^2(phi) leaves 2*s2*(1-2*s2)/(s2^2+alpha)^2, s2 = sin^2(phi),
    smooth on [0, pi/2].  It changes sign at phi = pi/4, where the range is
    split, and peaks at phi = 0 with a width of about alpha^(1/4), so
    alpha^(1/4), 4*alpha^(1/4) and 16*alpha^(1/4) below pi/4 are break
    points.  Without the split quad warns near alpha = 0.49 and 1.
    """
    def f(phi):
        s2 = np.sin(phi) ** 2
        return 2.0 * s2 * (1.0 - 2.0 * s2) / (s2 * s2 + alpha) ** 2

    width = alpha ** 0.25
    points = [k * width for k in (1.0, 4.0, 16.0) if k * width < 0.25 * np.pi] or None
    return sum(quad(f, lo, hi, points=pts, epsabs=0.0, epsrel=2e-14)[0]
               for lo, hi, pts in ((0.0, 0.25 * np.pi, points), (0.25 * np.pi, 0.5 * np.pi, None)))


def endpoint_weight_closed_form(alpha):
    """Closed form of the endpoint weight
    int_0^1 sqrt(q)(1-2q) / ((q^2+alpha)^2 sqrt(1-q)) dq; zero exactly at
    alpha = 1/3 (extremal.ALPHA_MAX).  Raises DomainError where it
    overflows: alpha below about 1e-247 or above 5e102."""
    alpha = float(alpha)
    if not 0.0 < alpha < np.inf:
        raise DomainError(f"alpha must be positive and finite, got {alpha}")
    alpha = np.float64(alpha)
    sa = np.sqrt(alpha)
    s1 = np.sqrt(1.0 + alpha)
    with np.errstate(over="ignore", divide="ignore"):
        den = alpha ** 1.25 * (1.0 + alpha) ** 1.5 * np.sqrt(sa + s1)
        weight = np.pi * np.sqrt(2.0) / 8.0 * (1.0 - alpha - sa * s1) / den
    if not (den < np.inf and abs(weight) < np.inf):
        raise DomainError(f"alpha = {float(alpha)!r}: the closed form overflows a double")
    return weight


@lru_cache(maxsize=None)
def arc_calculus():
    """The reduced integrand and the arc equation in sympy, built once.

    L(q, y, y', c) = 2*sqrt(y^2-q^2)*y'^2/(y^2+c)^2
                     - (q*y' - y)/(y*(y^2+c)*sqrt(y^2-q^2)),

    EL = L_y - L_qy' - y'*L_yy' (the Euler-Lagrange equation reads
    EL = L_y'y'*y''), every partial by sp.diff, and R(q, y, y', c) the arc
    equation's right side.  g = R + x'^2/(4x) is R in the movable frame
    q = t + 1, y = x + q, less its singular part -x'^2/(4x), which cancels
    as an expression, so no rounding enters.  The lambdified callables take
    numpy arrays: lagrangian (L), euler_lagrange (EL), residual
    (EL/L_y'y' - y'') and arc_forcing (g, g_x, g_x').
    """
    q, y, c = sp.symbols("q y c", positive=True)
    yp, ypp = sp.symbols("yp ypp", real=True)
    t, x, xd = sp.symbols("t x xd", real=True)
    s, d = sp.sqrt(y ** 2 - q ** 2), y ** 2 + c
    L = 2 * s * yp ** 2 / d ** 2 - (q * yp - y) / (y * d * s)
    L_yp = sp.diff(L, yp)
    L_ypyp = sp.diff(L_yp, yp)
    EL = sp.diff(L, y) - sp.diff(L_yp, q) - yp * sp.diff(L_yp, y)
    R = (-(yp - 1) ** 2 / (4 * (y - q)) - (yp + 1) ** 2 / (4 * (y + q))
         + 2 * y * yp ** 2 / d)
    g = (R + (yp - 1) ** 2 / (4 * (y - q))).subs({q: t + 1, y: x + t + 1, yp: xd + 1})
    return SimpleNamespace(
        q=q, y=y, yp=yp, c=c, t=t, L_ypyp=L_ypyp, EL=EL, R=R,
        lagrangian=sp.lambdify((q, y, yp, c), L, "numpy"),
        euler_lagrange=sp.lambdify((q, y, yp, c), EL, "numpy"),
        residual=sp.lambdify((q, y, yp, ypp, c), EL / L_ypyp - ypp, "numpy"),
        arc_forcing=sp.lambdify((t, x, xd, c), [g, sp.diff(g, x), sp.diff(g, xd)], "numpy"))
