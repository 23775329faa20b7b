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

Profile/solution arguments are duck-typed: anything exposing the accessors
used here works, which keeps this module import-independent from the solver
modules.  A profile whose arc ends at the singular point v = p must expose
the solver's movable-frame solution (x = nu - q against t = q - 1) as
`profile.nu.base`: the arc integrands read x from it, free of cancellation.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import DomainError

QUAD_KW = dict(epsabs=1e-13, epsrel=1e-12, limit=200)


def quad_value(f, a, b, **kw):
    """Adaptive quadrature returning just the value.

    full_output=1 keeps quadpack from warning when it stops at roundoff
    level, which is routine for the sqrt-type endpoint integrands here; the
    accuracy actually achieved is pinned by tests instead.
    """
    out = quad(f, a, b, full_output=1, **{**QUAD_KW, **kw})
    return out[0]
# relative width of the endpoint branch where the removable v=p limit is used
_END_BAND = 1e-9
# finite-difference step for resistance_direct on plain height callables
FD_H = 1e-5
P0_MAX = 1e76  # J_unscaled divides by (1 + v^2)^2, v <= p0: overflows past 1.16e77


def thread_count():
    """Worker cap: NEWTON_MINRES_THREADS if set, else min(cpu, 8)."""
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
    Arc integrand is evaluated in the movable frame x = nu - q to avoid
    cancellation near q = 1, where the integrand tends to
    sqrt(nu''(1))/(1+alpha).
    """
    alpha = profile.alpha
    rho = profile.rho
    a = profile.slope
    b = profile.height0
    base = profile.nu.base
    lim = np.sqrt(profile.nu.second(1.0)) / (1.0 + alpha)

    aff = quad_value(lambda q: lagrangian_value(q, b + a * q, a, alpha), 0.0, rho)

    def arc_g(q):
        if q > 1.0 - 1e-9:
            return lim
        x, xd, _ = base.eval(q - 1.0)
        s = np.sqrt(x * (x + 2.0 * q))
        w = x + q
        d = w * w + alpha
        return 2.0 * s * (xd + 1.0) ** 2 / (d * d) - (q * xd - x) / (w * d * s)

    arc = quad_value(arc_g, rho, 1.0)
    return aff + arc


def J_unscaled(sol):
    """Direct quadrature of f along the curve v(p) on [0, p0].

    Works on anything exposing p0, v(p), v_deriv(p); a curve hitting the
    singular endpoint v(p0) = p0 must also expose profile.nu.base (solver
    output) so the movable frame can be used near the endpoint.  p0 > P0_MAX
    (alpha < 1e-152) raises DomainError.
    """
    p0 = sol.p0
    if p0 > P0_MAX:
        raise DomainError(f"p0={p0:.3e} > {P0_MAX:.0e}: the unscaled integrand overflows")
    r = getattr(sol, "r", None)
    singular_end = abs(sol.v(p0) - p0) < 1e-8 * max(1.0, p0)

    if not singular_end:
        def fp(p):
            return f_eval(LagrangianPoint(p, sol.v(p), sol.v_deriv(p)))
        if r is not None and 0.0 < r < p0:
            return quad_value(fp, 0.0, r) + quad_value(fp, r, p0)
        return quad_value(fp, 0.0, p0)

    profile = sol.profile
    base = profile.nu.base
    rho = profile.rho
    lim = np.sqrt(profile.nu.second(1.0)) / (p0 * (1.0 + p0 * p0))

    def fp_flat(p):
        return lagrangian_value(p, sol.v(p), sol.v_deriv(p), 1.0)

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
    v0 = sol.v(0.0)
    atom = sol.v_deriv(0.0) / (1.0 + v0 * v0)

    vend = sol.v(p0)
    singular_end = abs(vend - p0) < 1e-8 * max(1.0, p0)
    if singular_end:
        f_end = 0.0
    else:
        s_end = np.sqrt(vend * vend - p0 * p0)
        f_end = -sol.v_deriv(p0) * s_end / (vend * (1.0 + vend * vend))

    def gamma(p):
        v = sol.v(p)
        vp = sol.v_deriv(p)
        vpp = sol.v_second(p)
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
    step FD_H, which the grid spacing must exceed.
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
    theta = (np.arange(n) + 0.5) * dth
    ct = np.cos(theta)
    st = np.sin(theta)

    rows_per = max(1, 200_000 // n)
    blocks = [(i, min(i + rows_per, n)) for i in range(0, n, rows_per)]

    def one_block(block):
        i0, i1 = block
        r = radii[i0:i1][:, None]
        ux, uy = grad(r * ct[None, :], r * st[None, :])
        s = 1.0 / (1.0 + ux * ux + uy * uy)
        return float(np.sum(s * r) * dr * dth)

    workers = thread_count()
    if workers > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            partials = list(ex.map(one_block, blocks))
    else:
        partials = [one_block(b) for b in blocks]
    return sum(partials)  # fixed block order keeps the result deterministic


def resistance_direct(body, n=800):
    """2-D resistance of a body height function by direct grid quadrature.

    body maps (x1, x2) arrays to u values.  Uses midpoint polar grids at n
    and n//2 and one Richardson step.  Gradients come from body.gradient
    when the body has that method (BodyEvaluator: exact, from the hull
    geometry alone); otherwise from central differences of body with step
    FD_H.  The grid never samples x2 = 0.
    """
    n = int(n)
    if n < 8 or n % 2:
        raise DomainError(f"n must be even and >= 8, got {n}")
    coarse = _grid_sum(body, n // 2)
    fine = _grid_sum(body, n)
    return fine + (fine - coarse) / 3.0
