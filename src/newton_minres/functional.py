"""Resistance functionals for plane-symmetric convex bodies.

Two independent evaluation routes are kept deliberately separate:

* the 1-D route: quadrature of the reduced integrand f(p, v, v') along the
  supporting-slope curve v(p) (and an equivalent rearranged form used as a
  cross-check), where

      f(p, v, v') = 2*sqrt(v^2-p^2)*v'^2/(1+v^2)^2
                    - (p*v' - v) / (v*(1+v^2)*sqrt(v^2-p^2));

  the generic family L(q, y, y', c) with denominator (y^2+c) covers both the
  unscaled problem (c=1) and the scaled one (c=alpha);

* the 2-D route: `resistance_direct` integrates 1/(1+|grad u|^2) over the
  unit disk.  A body with a `gradient(x1, x2)` method (BodyEvaluator) supplies
  exact gradients from the hull geometry; any other height callable gets
  central differences.  Either way it never touches the 1-D machinery, so
  agreement between the two is a real consistency check, not a tautology.

Profile/solution arguments are duck-typed: a curve exposes p0 and
eval(p) -> (v, v', v''), and the one solver import is the fixed Lobatto
rule of `singular_ode`, for J_scaled.  A profile whose arc ends at the
singular point v = p must expose the solver's movable-frame solution
(x = nu - q against t = q - 1) as `profile.nu.base`: the arc integrands
read x from it, free of cancellation.
"""

import os
# unused here: perfbench/spans.py wraps this module binding by name
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import DomainError
from .singular_ode import N_ARC, _lobatto_integrals


def quad_value(f, a, b):
    """Adaptive quadrature returning just the value: the reference route of
    I_of, J_unscaled, gamma_form_J and the endpoint weight.

    full_output=1 keeps quadpack from warning when it stops at roundoff
    level, which is routine for the sqrt-type endpoint integrands here; the
    accuracy actually achieved is pinned by tests instead.
    """
    return quad(f, a, b, epsabs=1e-13, epsrel=1e-12, limit=200, full_output=1)[0]


# relative width of the endpoint branch where the removable v=p limit is used
_END_BAND = 1e-9
# finite-difference step for resistance_direct on plain height callables
FD_H = 1e-5
P0_MAX = 1e76  # J_unscaled divides by (1 + v^2)^2, v <= p0: overflows past 1.16e77


def thread_count():
    """Worker cap for a caller's own pool: NEWTON_MINRES_THREADS if set,
    else min(cpu, 8).  The package itself starts no threads."""
    env = os.environ.get("NEWTON_MINRES_THREADS")
    if env:
        try:
            n = int(env)
        except ValueError:
            raise DomainError(f"NEWTON_MINRES_THREADS must be an integer, got {env!r}")
        return max(1, n)
    return max(1, min(os.cpu_count() or 1, 8))


# ---------------------------------------------------------------------------
# pointwise Lagrangian family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LagrangianPoint:
    """Evaluation point (p, v, v') with 0 <= p <= v, v > 0."""
    p: float
    v: float
    vp: float

    def __post_init__(self):
        if not (self.p >= 0.0 and self.v > 0.0 and self.v >= self.p):
            raise DomainError(f"need 0 <= p <= v, v > 0; got p={self.p}, v={self.v}")


def lagrangian_value(q, y, yp, c):
    """L(q, y, y', c); requires y > q >= 0 pointwise and c >= 0."""
    q = np.asarray(q, float)
    y = np.asarray(y, float)
    yp = np.asarray(yp, float)
    if c < 0.0:
        raise DomainError(f"c must be >= 0, got {c}")
    s2 = y * y - q * q
    if np.any(s2 <= 0.0) or np.any(y <= 0.0) or np.any(q < 0.0):
        raise DomainError("lagrangian_value needs y > q >= 0")
    s = np.sqrt(s2)
    d = y * y + c
    out = 2.0 * s * yp * yp / (d * d) - (q * yp - y) / (y * d * s)
    return float(out) if out.ndim == 0 else out


def lagrangian_partials(q, y, yp, c):
    """First/mixed/second partials of L as a dict.

    Keys: 'y' (L_y), 'yp' (L_y'), 'qyp' (L_qy'), 'yyp' (L_yy'),
    'ypyp' (L_y'y').  These satisfy the exact identity
    L_y - L_qy' - y'*L_yy' = L_y'y' * R with R the arc-equation right side,
    which is what the switching integral and adjoint are built on.
    """
    q = np.asarray(q, float)
    y = np.asarray(y, float)
    yp = np.asarray(yp, float)
    if c < 0.0:
        raise DomainError(f"c must be >= 0, got {c}")
    s2 = y * y - q * q
    if np.any(s2 <= 0.0) or np.any(y <= 0.0) or np.any(q < 0.0):
        raise DomainError("lagrangian_partials needs y > q >= 0")
    s = np.sqrt(s2)
    d = y * y + c
    core = (s2 * (d + 2.0 * y * y) + y * y * d) / (y * y * d * d * s * s2)
    parts = {
        "yp": 4.0 * s * yp / (d * d) - q / (y * d * s),
        "ypyp": 4.0 * s / (d * d),
        "qyp": -4.0 * q * yp / (s * d * d) - y / (d * s * s2),
        "yyp": 4.0 * y * yp / (s * d * d) - 16.0 * s * y * yp / (d ** 3) + q * core,
        "y": (2.0 * y * yp * yp / (s * d * d) - 8.0 * y * s * yp * yp / (d ** 3)
              + 1.0 / (y * d * s) + (q * yp - y) * core),
    }
    if np.ndim(q) == 0 and np.ndim(y) == 0 and np.ndim(yp) == 0:
        parts = {k: float(v) for k, v in parts.items()}
    return parts


def el_residual(q, y, yp, ypp, c):
    """(L_y - L_qy' - y'*L_yy')/L_y'y' - y'' — zero along arc solutions."""
    parts = lagrangian_partials(q, y, yp, c)
    return (parts["y"] - parts["qyp"] - yp * parts["yyp"]) / parts["ypyp"] - ypp


def f_eval(pt, vpp=None):
    """Unscaled integrand f at a LagrangianPoint (c = 1).

    At the removable endpoint v = p (which requires v' = 1) the value is the
    limit sqrt(v''/p)/(1+p^2); v'' must then be supplied and positive.
    Anything else on v <= p raises DomainError.
    """
    p, v, vp = pt.p, pt.v, pt.vp
    if v - p > _END_BAND * max(1.0, p):
        return lagrangian_value(p, v, vp, 1.0)
    if abs(vp - 1.0) < 1e-8 and vpp is not None and vpp > 0.0 and p > 0.0:
        return np.sqrt(vpp / p) / (1.0 + p * p)
    raise DomainError("f undefined at v = p unless v' = 1 and v'' > 0 is supplied")


_WHICH_KEYS = {"v": "y", "vp": "yp", "pvp": "qyp", "vvp": "yyp", "vpvp": "ypyp"}


def pmp_derivatives(pt, which):
    """Partial of f selected by which in {'v','vp','pvp','vvp','vpvp'} (c=1)."""
    if which not in _WHICH_KEYS:
        raise DomainError(f"unknown partial {which!r}; choose from {sorted(_WHICH_KEYS)}")
    if pt.v <= pt.p:
        raise DomainError("partials are singular at v = p")
    return lagrangian_partials(pt.p, pt.v, pt.vp, 1.0)[_WHICH_KEYS[which]]


# ---------------------------------------------------------------------------
# 1-D functionals
# ---------------------------------------------------------------------------

def J_scaled(profile):
    """Scaled functional bracket: int_0^rho g(affine) + int_rho^1 g(arc).

    The full scaled value of the original functional is alpha * J_scaled.
    Both parts use the Clenshaw-Curtis rule on N_ARC Lobatto nodes.  The
    arc integrand is evaluated in the movable frame x = nu - q to avoid
    cancellation near q = 1; the q = 1 node takes its limit
    sqrt(nu''(1))/(1+alpha).
    """
    alpha = profile.alpha
    rho = profile.rho
    a = profile.slope
    b = profile.height0
    s, _, int1, _ = _lobatto_integrals(N_ARC, -1.0)
    w = 0.5 * int1[0]  # weights of [0, 1] at the nodes (s + 1)/2

    q = 0.5 * rho * (s + 1.0)
    aff = rho * (w @ lagrangian_value(q, b + a * q, a, alpha))

    q = rho + 0.5 * (1.0 - rho) * (s[1:] + 1.0)  # s[0] = 1 is the q = 1 node
    x, xd, _ = profile.nu.base.eval(q - 1.0)
    sq = np.sqrt(x * (x + 2.0 * q))
    d = (x + q) ** 2 + alpha
    g = 2.0 * sq * (xd + 1.0) ** 2 / (d * d) - (q * xd - x) / ((x + q) * d * sq)
    lim = np.sqrt(profile.nu.eval(1.0)[2]) / (1.0 + alpha)
    return float(aff + (1.0 - rho) * (w[0] * lim + w[1:] @ g))


def J_unscaled(sol):
    """Direct quadrature of f along the curve v(p) on [0, p0].

    Works on anything exposing p0 and eval(p) -> (v, v', v''); a curve
    hitting the singular endpoint v(p0) = p0 must also expose
    profile.nu.base (solver output) so the movable frame can be used near
    the endpoint.  p0 > P0_MAX (alpha < 1e-152) raises DomainError.
    """
    p0 = sol.p0
    if p0 > P0_MAX:
        raise DomainError(f"p0={p0:.3e} > {P0_MAX:.0e}: the unscaled integrand overflows")
    r = getattr(sol, "r", None)
    singular_end = abs(sol.eval(p0)[0] - p0) < 1e-8 * max(1.0, p0)

    if not singular_end:
        def fp(p):
            v, vp, _ = sol.eval(p)
            return f_eval(LagrangianPoint(p, v, vp))
        if r is not None and 0.0 < r < p0:
            return quad_value(fp, 0.0, r) + quad_value(fp, r, p0)
        return quad_value(fp, 0.0, p0)

    profile = sol.profile
    base = profile.nu.base
    rho = profile.rho
    lim = np.sqrt(profile.nu.eval(1.0)[2]) / (p0 * (1.0 + p0 * p0))

    def fp_flat(p):
        v, vp, _ = sol.eval(p)
        return lagrangian_value(p, v, vp, 1.0)

    def f_arc(q):
        # f at p = p0*q, written in x = nu - q to keep v - p accurate
        if q > 1.0 - 1e-9:
            return lim
        x, xd, _ = base.eval(q - 1.0)
        v = p0 * (x + q)
        vp = xd + 1.0
        s = p0 * np.sqrt(x * (x + 2.0 * q))
        d = 1.0 + v * v
        return 2.0 * s * vp * vp / (d * d) - p0 * (q * xd - x) / (v * d * s)

    flat = quad_value(fp_flat, 0.0, rho * p0)
    arc = p0 * quad_value(f_arc, rho, 1.0)
    return flat + arc


def gamma_form_J(sol):
    """Rearranged route to the same value as J_unscaled.

    Uses the pointwise identity f = gamma + dF/dp with
    F(p) = -v'*sqrt(v^2-p^2)/(v*(1+v^2)), so

        J = int_0^p0 gamma dp + F(p0) + v'(0+)/(1+v(0)^2).

    For curves ending at v(p0) = p0 the boundary term F(p0) vanishes and
    gamma(p0-) -> 0; both are handled by explicit limit branches.
    """
    p0 = sol.p0
    v0, vp0, _ = sol.eval(0.0)
    atom = vp0 / (1.0 + v0 * v0)

    vend, vpend, _ = sol.eval(p0)
    singular_end = abs(vend - p0) < 1e-8 * max(1.0, p0)
    if singular_end:
        f_end = 0.0
    else:
        s_end = np.sqrt(vend * vend - p0 * p0)
        f_end = -vpend * s_end / (vend * (1.0 + vend * vend))

    def gamma(p):
        v, vp, vpp = sol.eval(p)
        s = np.sqrt(v * v - p * p)
        return (-(p * vp - v) / (v * s) + vpp * s / v
                + vp * (v * vp - p) / (v * s) - vp * vp * s / (v * v)) / (1.0 + v * v)

    r = getattr(sol, "r", None)
    if not singular_end:
        if r is not None and 0.0 < r < p0:
            total = quad_value(gamma, 0.0, r) + quad_value(gamma, r, p0)
        else:
            total = quad_value(gamma, 0.0, p0)
        return total + f_end + atom

    profile = sol.profile
    base = profile.nu.base
    rho = profile.rho

    def gamma_arc(q):
        # gamma at p = p0*q; the first and third terms cancel to O(sqrt(1-q))
        if q > 1.0 - 1e-9:
            return 0.0
        x, xd, xdd = base.eval(q - 1.0)
        w = x + q
        v = p0 * w
        vp = xd + 1.0
        ss = np.sqrt(x * (x + 2.0 * q))          # sqrt(v^2-p^2) = p0*ss
        num13 = vp * (x * xd + x + q * xd) - (q * xd - x)
        t13 = num13 / (p0 * w * ss)
        t2 = (xdd / p0) * ss / w
        t4 = -vp * vp * ss / (p0 * w * w)
        return (t13 + t2 + t4) / (1.0 + v * v)

    flat = quad_value(gamma, 0.0, rho * p0)
    arc = p0 * quad_value(gamma_arc, rho, 1.0)
    return flat + arc + f_end + atom


# ---------------------------------------------------------------------------
# 2-D oracle
# ---------------------------------------------------------------------------

def _grid_sum(u, n):
    """Midpoint-rule integral of 1/(1+|grad u|^2) over the unit disk.

    The gradient is u.gradient(x1, x2) -> (ux, uy) when u has one (exact,
    e.g. BodyEvaluator); a plain callable gets central differences with
    step FD_H, which the grid spacing must exceed.  The polar grid of n by n
    cells (n even) is symmetric across both axes, so a u that declares
    mirror_symmetric is summed over the angular cells with theta <= pi/2:
    weight 4, or 2 for the cell on theta = pi/2 that n = 2 (mod 4) has.
    """
    grad = getattr(u, "gradient", None)
    if grad is None:
        h = FD_H
        if 0.5 / n <= h:
            raise DomainError(f"grid n={n} too fine for FD step h={h}")

        def grad(x, y):
            return ((u(x + h, y) - u(x - h, y)) / (2.0 * h),
                    (u(x, y + h) - u(x, y - h)) / (2.0 * h))

    dr = 1.0 / n
    dth = 2.0 * np.pi / n
    radii = (np.arange(n) + 0.5) * dr
    fold = getattr(u, "mirror_symmetric", False)
    k = np.arange((n + 2) // 4 if fold else n)
    weight = np.where(4 * k + 2 < n, 4.0, 2.0) if fold else np.ones(n)
    theta = (k + 0.5) * dth

    total = 0.0
    rows_per = max(1, 200_000 // len(k))   # blocks of about 200k points
    for i in range(0, n, rows_per):
        r = radii[i:i + rows_per][:, None]
        ux, uy = grad(r * np.cos(theta), r * np.sin(theta))
        s = 1.0 / (1.0 + ux * ux + uy * uy)
        total += float(np.sum(s * (r * weight)) * dr * dth)
    return total


def resistance_direct(body, n=800):
    """2-D resistance of a body height function by direct grid quadrature.

    body maps (x1, x2) arrays to u values.  Uses midpoint polar grids at n
    and n//2 and one Richardson step.  Gradients come from body.gradient
    when the body has that method (BodyEvaluator: exact, from the hull
    geometry alone); otherwise from central differences of body with step
    FD_H.  n must be a multiple of 4, so both grids have even angle counts
    and never sample the crease x2 = 0, where the midpoint rule would lose
    its h^2 error; a mirror_symmetric body is summed over one quadrant.
    """
    n = int(n)
    if n < 8 or n % 4:
        raise DomainError(f"n must be a multiple of 4 and >= 8, got {n}")
    coarse = _grid_sum(body, n // 2)
    fine = _grid_sum(body, n)
    return fine + (fine - coarse) / 3.0
