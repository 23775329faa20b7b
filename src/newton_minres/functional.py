"""Resistance functionals for plane-symmetric convex bodies.

Two independent evaluation routes are kept deliberately separate:

* the 1-D route: quadrature of the reduced integrand f(p, v, v') along the
  supporting-slope curve v(p) (and an equivalent rearranged form used as a
  cross-check), where

      f(p, v, v') = 2*sqrt(v^2-p^2)*v'^2/(1+v^2)^2
                    - (p*v' - v) / (v*(1+v^2)*sqrt(v^2-p^2));

  the generic family L(q, y, y', c) with denominator (y^2+c) covers both the
  unscaled problem (c=1) and the scaled one (c=alpha).  Pointwise,
  L_y - L_qy' - y'*L_yy' = L_y'y'*R, L_y'y' = 4*sqrt(y^2-q^2)/(y^2+c)^2 > 0,
  R the arc equation's right side (`extremal`): the identity the switching
  integral and the adjoint rest on, which the tests prove symbolically;

* the 2-D route: `resistance_direct` integrates 1/(1+|grad u|^2) over the
  unit disk, reading a body only through its exact `gradient(x1, x2)`
  (BodyEvaluator: from the hull geometry) and its declared seams.  It
  never touches the 1-D machinery, so agreement between the two is a real
  consistency check, not a tautology.

Profile/solution arguments are duck-typed: a curve exposes p0 and
eval(p) -> (v, v', v''), and r when it has a flat piece; J_unscaled and
gamma_form_J read nothing else, on a fixed Gauss-Legendre rule.  The one
solver use is the Lobatto rule of `singular_ode` at its N_ARC when called,
for J_scaled, the one route here that reads the solver's movable frame
(`profile.nu.base`).

Every rule here is a fixed numpy rule: Gauss-Legendre panels
(`_panel_rule`, which the switching integral I_of reads too) or
Clenshaw-Curtis, so the package runs on numpy alone.
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
    reads the stats record of ROADMAP item 3, which deletes it."""
    raise NotImplementedError("functional integrates on fixed rules; it has no adaptive quadrature")


# J_unscaled and gamma_form_J divide by (1 + v^2)^2, v <= p0: overflow past
# 1.16e77; `_curve_rule`, which both integrate on, refuses p0 > P0_MAX
P0_MAX = 1e76
N_GL = 64  # Gauss-Legendre nodes per smooth piece of the curve
GRADIENT_POINTS = 10_000  # points per body.gradient call of the 2-D oracle
N_MAX = 1024  # the 2-D oracle's largest n: leggauss(n) builds an n x n matrix


def thread_count():
    """Worker cap for a caller's own pool: min(cpu, 8).  The package itself
    starts no threads."""
    return max(1, min(os.cpu_count() or 1, 8))


# ---------------------------------------------------------------------------
# pointwise Lagrangian family
# ---------------------------------------------------------------------------

def _refusing(name):
    """np.errstate under which an overflow, invalid operation or division by
    zero raises DomainError naming name, instead of a NaN, inf or lost 0."""
    def call(err, flag):
        raise DomainError(f"{name} leaves the doubles: {err}")
    return np.errstate(over="call", invalid="call", divide="call", call=call)


@_refusing("lagrangian_value")
def lagrangian_value(q, y, yp, c):
    """L(q, y, y', c); raises DomainError unless y > q >= 0 pointwise, y and y'
    are finite and 0 <= c < inf."""
    q, y, yp = (np.asarray(v, float) for v in (q, y, yp))
    if not 0.0 <= c < np.inf:
        raise DomainError(f"c must be finite and >= 0, got {c}")
    s2 = y * y - q * q
    if not np.all((s2 > 0.0) & (y > 0.0) & (q >= 0.0) & np.isfinite(y) & np.isfinite(yp)):
        raise DomainError("lagrangian_value needs y > q >= 0 and finite y and y'")
    s, d = np.sqrt(s2), y * y + c
    out = 2.0 * s * yp * yp / (d * d) - (q * yp - y) / (y * d * s)
    return float(out) if out.ndim == 0 else out


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
    s, _, int1, _ = singular_ode._lobatto_integrals(singular_ode.N_ARC, 1.0)
    w = -0.5 * int1[-1]  # weights of [0, 1] at the nodes (s + 1)/2

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

def resistance_direct(body, n=48):
    """2-D resistance: the integral of s = 1/(1+|grad u|^2) over the unit
    disk, read from the exact body.gradient(x1, x2) (a body without one is
    a DomainError) at most GRADIENT_POINTS points per call.  n x n
    Gauss-Legendre nodes per piece in polar coordinates (rho, psi) about an
    apex (a, 0), t = rho/L on [0, 1] along a ray of length L, weight L^2 t,
    so no node lies on x2 = 0 or on a seam; 8 <= n <= N_MAX.  The pieces
    are what the body declares:

    * a mirror_symmetric body is summed over the quadrant x1, x2 >= 0,
      times 4, any other over the disk about the origin;
    * its seams = (a, psis), if any, break psi at the rays from (a, 0) at
      psis and at psi_keel = atan2(1, -a), to the corner (0, 1): rays end
      on the rim before psi_keel and on x1 = 0 past it;
    * radial_breaks break every ray at those t (about the origin, radii).
    """
    if not callable(getattr(body, "gradient", None)):
        raise DomainError(f"resistance_direct: {type(body).__name__} has no gradient(x1, x2) method")
    if not float(n).is_integer():   # also nan and inf
        raise DomainError(f"n must be a finite integer, got {n!r}")
    n = int(n)
    if not 8 <= n <= N_MAX:
        raise DomainError(f"n must be in [8, {N_MAX}], got {n}")
    if getattr(body, "mirror_symmetric", False):
        a, seams = getattr(body, "seams", (0.0, ()))
        keel = np.arctan2(1.0, -a)
        ends, fold = [0.0, *seams, keel] + ([np.pi] if a else []), 4.0
    else:
        a, keel, ends, fold = 0.0, 2.0 * np.pi, [0.0, 2.0 * np.pi], 1.0
    psi, w_psi = _panel_rule(ends, n)
    t, w_t = _panel_rule([0.0, *getattr(body, "radial_breaks", ()), 1.0], n)
    cos_p, sin_p = np.cos(psi), np.sin(psi)
    ray = np.sqrt(1.0 - (a * sin_p) ** 2) - a * cos_p   # to the rim
    past = psi > keel
    ray[past] = -a / cos_p[past]                        # to x1 = 0

    s = np.empty((len(psi), len(t)))
    flat = s.reshape(-1)
    for j in range(0, flat.size, GRADIENT_POINTS):
        i, k = np.divmod(np.arange(j, min(j + GRADIENT_POINTS, flat.size)), len(t))
        rho = ray[i] * t[k]
        ux, uy = body.gradient(a + rho * cos_p[i], rho * sin_p[i])
        flat[j:j + len(i)] = 1.0 / (1.0 + ux * ux + uy * uy)
    return fold * float(np.sum(w_psi * ray * ray * np.sum(s * (w_t * t), axis=1)))
