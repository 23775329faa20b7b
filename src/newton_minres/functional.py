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
eval(p) -> (v, v', v''), and r when it has a flat piece; J_unscaled and
gamma_form_J read nothing else, on a fixed Gauss-Legendre rule.  The one
solver use is the Lobatto rule of `singular_ode` at its N_ARC when called,
for J_scaled, the one route here that reads the solver's movable frame
(`profile.nu.base`).

Every rule here is a fixed numpy rule: Gauss-Legendre panels
(`_panel_rule`, which the switching integral I_of and the endpoint weight
read too) or Clenshaw-Curtis, so the package runs on numpy alone.
"""

import os
# unused here: perfbench/spans.py wraps this module binding by name
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from functools import lru_cache

import numpy as np

from .errors import DomainError
from . import singular_ode


def quad_value(*args, **kwargs):
    """Placeholder that nothing here calls: perfbench/spans.py wraps this
    binding on both `functional` and `extremal` by name until the bench
    reads the stats record of ROADMAP item 1b, which deletes it."""
    raise NotImplementedError("functional integrates on fixed rules; it has no adaptive quadrature")


# finite-difference step for resistance_direct on plain height callables
FD_H = 1e-5
# J_unscaled and gamma_form_J divide by (1 + v^2)^2, v <= p0: overflow past
# 1.16e77; `_curve_rule`, which both integrate on, refuses p0 > P0_MAX
P0_MAX = 1e76
N_GL = 64  # Gauss-Legendre nodes per smooth piece of the curve


def thread_count():
    """Worker cap for a caller's own pool: min(cpu, 8).  The package itself
    starts no threads."""
    return max(1, min(os.cpu_count() or 1, 8))


# ---------------------------------------------------------------------------
# pointwise Lagrangian family
# ---------------------------------------------------------------------------

def _lagrangian_args(name, q, y, yp, c):
    """q, y, y' as arrays, s2 = y^2 - q^2, s = sqrt(s2) and d = y^2 + c;
    raises DomainError, naming the caller, unless y > q >= 0 and c >= 0."""
    q, y, yp = (np.asarray(v, float) for v in (q, y, yp))
    if c < 0.0:
        raise DomainError(f"c must be >= 0, got {c}")
    s2 = y * y - q * q
    if np.any(s2 <= 0.0) or np.any(y <= 0.0) or np.any(q < 0.0):
        raise DomainError(f"{name} needs y > q >= 0")
    return q, y, yp, s2, np.sqrt(s2), y * y + c


def lagrangian_value(q, y, yp, c):
    """L(q, y, y', c); requires y > q >= 0 pointwise and c >= 0."""
    q, y, yp, _, s, d = _lagrangian_args("lagrangian_value", q, y, yp, c)
    out = 2.0 * s * yp * yp / (d * d) - (q * yp - y) / (y * d * s)
    return float(out) if out.ndim == 0 else out


def lagrangian_partials(q, y, yp, c):
    """First/mixed/second partials of L as a dict.

    Keys: 'y' (L_y), 'yp' (L_y'), 'qyp' (L_qy'), 'yyp' (L_yy'),
    'ypyp' (L_y'y').  These satisfy the exact identity
    L_y - L_qy' - y'*L_yy' = L_y'y' * R with R the arc-equation right side,
    which is what the switching integral and adjoint are built on.
    """
    q, y, yp, s2, s, d = _lagrangian_args("lagrangian_partials", q, y, yp, c)
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
    s, _, int1, _ = singular_ode._lobatto_integrals(singular_ode.N_ARC, -1.0)
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


@lru_cache(maxsize=None)
def _gauss_legendre(n):
    """The n-point Gauss-Legendre nodes and weights of [-1, 1], built on
    first use."""
    return np.polynomial.legendre.leggauss(n)


def _panel_rule(ends, n):
    """Nodes and weights of the n-point Gauss-Legendre rule on each panel
    between consecutive ends.  The nodes are interior, so no endpoint limit
    is needed."""
    ends = np.asarray(ends, float)
    x, w = _gauss_legendre(n)
    lo, half = ends[:-1, None], 0.5 * np.diff(ends)[:, None]
    return (lo + half * (x + 1.0)).ravel(), (half * w).ravel()


def _curve_rule(sol):
    """`_panel_rule` with N_GL nodes on each smooth piece of the curve:
    [0, r] and [r, p0], or [0, p0] when it has no r in (0, p0).
    p0 > P0_MAX (alpha < 1e-152) raises DomainError."""
    p0 = sol.p0
    if p0 > P0_MAX:
        raise DomainError(f"p0={p0:.3e} > {P0_MAX:.0e}: the unscaled integrand overflows")
    r = getattr(sol, "r", None)
    return _panel_rule([0.0, r, p0] if r is not None and 0.0 < r < p0 else [0.0, p0], N_GL)


def J_unscaled(sol):
    """Direct quadrature of f along the curve v(p) on [0, p0].

    Works on anything exposing p0 and eval(p) -> (v, v', v''), and r when
    the curve has a flat piece: one read of the curve at the nodes of
    `_curve_rule`, which differ from J_scaled's Clenshaw-Curtis nodes.
    """
    p, w = _curve_rule(sol)
    v, vp, _ = sol.eval(p)
    return float(w @ lagrangian_value(p, v, vp, 1.0))


def gamma_form_J(sol):
    """Rearranged route to the same value as J_unscaled.

    Uses the pointwise identity f = gamma + dF/dp with
    F(p) = -v'*sqrt(v^2-p^2)/(v*(1+v^2)), so

        J = int_0^p0 gamma dp + F(p0) + v'(0+)/(1+v(0)^2),

    the integral on the rule of `_curve_rule`, read with the two ends in one
    read of the curve.  F(p0) = 0 at an endpoint v(p0) = p0.
    """
    p0 = sol.p0
    p, w = _curve_rule(sol)
    v, vp, vpp = sol.eval(np.append([0.0, p0], p))
    atom = vp[0] / (1.0 + v[0] ** 2)
    f_end = -vp[1] * np.sqrt(max(v[1] ** 2 - p0 ** 2, 0.0)) / (v[1] * (1.0 + v[1] ** 2))
    v, vp, vpp = v[2:], vp[2:], vpp[2:]
    s = np.sqrt(v * v - p * p)
    gamma = (-(p * vp - v) / (v * s) + vpp * s / v
             + vp * (v * vp - p) / (v * s) - vp * vp * s / (v * v)) / (1.0 + v * v)
    return float(w @ gamma + f_end + atom)


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
