"""Synthesis and optimality checks for the extremal profile.

The profile lives in two frames:

* scaled: nu(q) on [0,1] solves

      nu'' = -1/4 (nu'-1)^2/(nu-q) - 1/4 (nu'+1)^2/(nu+q) + 2 nu nu'^2/(nu^2+alpha)

  with nu(1) = nu'(1) = 1, integrated in the movable frame x = nu - q,
  t = q - 1 (so the singular endpoint sits at t=0 and singular_ode applies
  with lam = -1/4);

* unscaled: v(p) on [0, p0] with v = p0 * kappa(p/p0), alpha = 1/p0^2,
  where kappa is the assembled profile (affine on [0, rho], arc beyond).

The switching radius rho is the zero of the switching integral I(rho):
the first-order cost of replacing the arc by its tangent continuation on
[0, rho].  Everything downstream (adjoint certificate, conjugate-point
check, embedding-field Jacobian sign) certifies that the assembled kappa is
a genuine local minimizer, not just a stationary point.
"""

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev as cheb

from .errors import DomainError, InconsistentScale, NoRoot, SignChange
from .functional import J_scaled, _panel_rule
# unused here: perfbench/spans.py wraps this module binding by name
from .functional import quad_value  # noqa: F401
from . import singular_ode
from .singular_ode import (MappedSolution, SingularIVP, integrate, integrate_variational,
                           VariationalCoeffs)

LAM = -0.25
ALPHA_MAX = 1.0 / 3.0
# the flat height is below _H0_HI on the validity range and above _H0_LO for
# p0 >= 2.43 only (it falls to about 0.05 as alpha -> 1/3): see solve_for_height
_H0_LO, _H0_HI = 0.20, 0.3158
# past _P0_TOP, alpha = 1/p0^2 leaves the normal doubles; the height there,
# p0 * height0, is 2.116663e153 (measured), so _M_TOP is the largest height
_P0_TOP, _M_TOP = 1.0 / np.sqrt(np.finfo(float).tiny), 2.1166e153
_VALIDITY_MSG = ("alpha = {!r} is outside [0, 1/3): the switching-integral "
                 "uniqueness hypothesis fails there (endpoint weight changes sign at 1/3)")
# Gauss-Legendre nodes per panel of I_of's graded rule
N_PANEL = 16
# the height root raises NoRoot after this many iterations
_HEIGHT_MAXITER = 100
# the limit flat height limit_constants().M_hat: the start of the height root
_M_HAT = 0.31574


def brentq(*args, **kwargs):
    """Placeholder that nothing here calls: perfbench/spans.py wraps this
    module binding by name until the bench reads the stats record of
    ROADMAP item 1b, which deletes it."""
    raise NotImplementedError("extremal finds its roots without Brent's method")


def nu_derivatives_at_one(alpha):
    """[nu(1), nu'(1), nu''(1), nu'''(1)].

    Closed forms from the Taylor balance of the arc equation at q=1:
    nu''(1) = (3-alpha)/(3(1+alpha)), nu'''(1) = (3+2a+a^2)/(2(1+a)^2).
    """
    alpha = float(alpha)
    if not alpha >= 0.0:
        raise DomainError(f"alpha must be >= 0, got {alpha}")
    return [1.0, 1.0,
            (3.0 - alpha) / (3.0 * (1.0 + alpha)),
            (3.0 + 2.0 * alpha + alpha * alpha) / (2.0 * (1.0 + alpha) ** 2)]


def scaled_arc_ivp(alpha):
    """SingularIVP for the scaled arc in the movable frame (t=q-1, x=nu-q)."""
    alpha = float(alpha)
    if not alpha >= 0.0:
        raise DomainError(f"alpha must be >= 0, got {alpha}")

    def g(t, x, xd):
        w = x + t + 1.0
        return (-0.25 * (xd + 2.0) ** 2 / (x + 2.0 * t + 2.0)
                + 2.0 * w * (xd + 1.0) ** 2 / (w * w + alpha))

    def g_x(t, x, xd):
        w = x + t + 1.0
        d = w * w + alpha
        return (0.25 * (xd + 2.0) ** 2 / (x + 2.0 * t + 2.0) ** 2
                + 2.0 * (xd + 1.0) ** 2 * (alpha - w * w) / (d * d))

    def g_xdot(t, x, xd):
        w = x + t + 1.0
        return (-0.5 * (xd + 2.0) / (x + 2.0 * t + 2.0)
                + 4.0 * w * (xd + 1.0) / (w * w + alpha))

    g0 = (3.0 - alpha) / (2.0 * (1.0 + alpha))
    return SingularIVP(LAM, g, g_x, g_xdot, g0)


def solve_nu(alpha):
    """Arc solution nu(q) on [0,1] with nu(1)=nu'(1)=1, solved afresh on
    every call (assemble_profile is the cache).

    Returned as a view over the movable-frame solution, so downstream code
    can read x = nu - q directly from .base without cancellation.
    """
    return MappedSolution(integrate(scaled_arc_ivp(alpha), -1.0), offset=-1.0, add1=1.0)


# ---------------------------------------------------------------------------
# switching integral
# ---------------------------------------------------------------------------

def _switch_kernel(q, a, b, alpha, weight):
    """weight * sqrt(eta^2-q^2)/(eta^2+alpha)^2 * R(q, eta, eta') along
    eta = a*q + b, R the right side of the arc equation: with weight q the
    switching integrand, with weight 1 the G/4 of adjoint_omega."""
    e = a * q + b
    rhs = (-0.25 * (a - 1.0) ** 2 / (e - q) - 0.25 * (a + 1.0) ** 2 / (e + q)
           + 2.0 * e * a * a / (e * e + alpha))
    return weight * np.sqrt(e * e - q * q) / (e * e + alpha) ** 2 * rhs


def _graded_ends(rho, a, b, nr):
    """Panel ends on [0, rho]: 0.5*rho, and breaks that double away from
    the integrand's singular points on the real line, at distance
    d = b/(1+a) below 0 if a > -1 and (nr-rho)/(1-a) above rho if a < 1:
    at d, 3d, 7d, ... from 0 (resp. rho), i.e. 2d, 4d, 8d, ... from the
    point, inside [0, rho].  For I_of these are where eta = a*q + b meets
    eta = -q and eta = q; endpoint_weight_quadrature (a = 0, nr = inf)
    grades toward 0 alone, from the width of its peak there."""
    ends = [0.0, 0.5 * rho, rho]
    for d, origin, sign in ((b / (1.0 + a) if a > -1.0 else np.inf, 0.0, 1.0),
                            ((nr - rho) / (1.0 - a) if a < 1.0 else np.inf, rho, -1.0)):
        k = d
        while k < 0.5 * rho:
            ends.append(origin + sign * k)
            k = 2.0 * k + d
    return np.unique(ends)


def I_of(rho, alpha, nu):
    """Switching integral I(rho): first-variation cost of the tangent cut.

    Equals 1/4 int_0^rho q*(g_eta - g_{q eta'} - g_{eta eta'} eta') dq along
    the affine continuation eta(q) = nu(rho) + nu'(rho)(q - rho); computed
    through the exact identity with the arc operator,

        I(rho) = int_0^rho q * sqrt(eta^2-q^2)/(eta^2+alpha)^2 * R(q,eta,eta') dq,

    on N_PANEL-point Gauss-Legendre panels graded toward the integrand's
    branch points (_graded_ends): each panel is as long as its distance to
    the nearer one.  As rho -> 1 the point eta = q closes in on rho at
    about (1-rho)/2, which one fixed rule on [0, rho] does not resolve.
    Independent of _switch_rule's Clenshaw-Curtis nodes, so it verifies
    find_switch's root.

    Raises DomainError if the continuation touches eta <= q on [0, rho].
    """
    rho = float(rho)
    if not 0.0 < rho < 1.0:
        raise DomainError(f"rho must be in (0,1), got {rho}")
    nr, a, _ = nu.eval(rho)
    b = nr - rho * a
    # eta - q is affine; positivity at both ends covers the whole interval
    if b <= 0.0 or nr - rho <= 0.0:
        raise DomainError("tangent continuation leaves the admissible region eta > q")
    q, w = _panel_rule(_graded_ends(rho, a, b, nr), N_PANEL)
    return float(w @ _switch_kernel(q, a, b, alpha, q))


def I_closed_form_alpha0(rho, nu_hat):
    """Closed form of I(rho, alpha=0) along the tangent continuation."""
    rho = float(rho)
    if not 0.0 < rho < 1.0:
        raise DomainError(f"rho must be in (0,1), got {rho}")
    nr, a, _ = nu_hat.eval(rho)
    b = nr - rho * a
    if b <= 0.0:
        raise DomainError("degenerate continuation: nu - rho*nu' <= 0")
    u1 = rho / nr
    s = np.sqrt(1.0 - u1 * u1)
    bracket = (3.0 * a * np.arcsin(u1) - 2.0 - 2.0 * a * a
               + s * (2.0 - 3.0 * a * u1 + 2.0 * a * a
                      + 4.0 * a * a * u1 * u1 - 2.0 * a ** 3 * u1 ** 3))
    return bracket / (4.0 * b * b)


def _switch_rule(rho, a, b, alpha):
    """I(rho) along eta = a*q + b, Clenshaw-Curtis on the N_ARC Lobatto nodes
    of each [0, rho]; the arguments broadcast to one 1-D array."""
    s, _, int1, _ = singular_ode._lobatto_integrals(singular_ode.N_ARC, -1.0)
    rho, a, b, alpha = (v[:, None] for v in np.broadcast_arrays(*np.atleast_1d(rho, a, b, alpha)))
    q = 0.5 * rho * (s + 1.0)
    return 0.5 * rho[:, 0] * (_switch_kernel(q, a, b, alpha, q) @ int1[0])


def find_switch(alpha, nu):
    """Zero of I(., alpha, nu): the switching radius of the arc nu = solve_nu(alpha).

    I is read through nu.eval on the fixed rule of _switch_rule.  Scans
    rho = 0.015, 0.035, ... for the first sign change (I < 0 below the
    root, > 0 above), all 49 points in one pass.  On that bracket I is
    smooth, so one more pass at the 16 first-kind Chebyshev points gives
    its degree-15 interpolant, whose one real root in the bracket, an
    eigenvalue of the colleague matrix (chebroots), is rho; any other count
    is NoRoot.  One call of I_of, whose graded Gauss-Legendre panels are an
    independent quadrature, verifies |I(rho)| < 1e-12.  No warm start:
    assemble_profile's cache calls this once per alpha.
    """
    alpha = float(alpha)
    if not 0.0 <= alpha < ALPHA_MAX:
        raise NoRoot(_VALIDITY_MSG.format(alpha))

    def I(rho):
        nr, a, _ = nu.eval(rho)
        return _switch_rule(rho, a, nr - rho * a, alpha)

    grid = np.arange(0.015, 0.985, 0.02)
    scan = I(grid)
    if scan[0] > 0.0:
        raise NoRoot(f"I already positive at rho={grid[0]:.3f}; no bracket found")
    ups = np.flatnonzero((scan[:-1] < 0.0) & (scan[1:] >= 0.0))
    if not ups.size:
        raise NoRoot(f"switching integral has no sign change on [{grid[0]}, {grid[-1]}]")
    lo, hi = grid[ups[0]], grid[ups[0] + 1]

    def rho_at(x):  # [-1, 1] onto the bracket
        return 0.5 * (1.0 - x) * lo + 0.5 * (1.0 + x) * hi

    # degree 15: the interpolant through the 16 first-kind Chebyshev points
    xs = cheb.chebroots(cheb.chebinterpolate(lambda x: I(rho_at(x)), 15))
    xs = xs[(xs.imag == 0.0) & (np.abs(xs.real) <= 1.0)].real
    if xs.size != 1:
        raise NoRoot(f"the switching integral's interpolant has {xs.size} roots "
                     f"on [{lo:.3f}, {hi:.3f}]")
    root = rho_at(xs[0])
    resid = I_of(root, alpha, nu)
    if not abs(resid) < 1e-12:
        raise NoRoot(f"refined switching point is not a clean zero: I={resid:.3e}")
    return float(root)


# ---------------------------------------------------------------------------
# assembled profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScaledProfile:
    """Assembled scaled profile: affine on [0, rho], arc on [rho, 1].

    kappa(q) = height0 + slope*q below rho and nu(q) above; at_switch matches
    value and slope at rho, so kappa is C^1 and convex.  eval is the one
    reader: it returns (kappa, kappa', kappa'') from one read of the arc.
    """
    alpha: float
    rho: float
    nu: object
    slope: float
    height0: float

    @classmethod
    def at_switch(cls, alpha, nu, rho):
        """The profile that leaves the arc nu along its tangent at rho."""
        value, slope, _ = nu.eval(rho)
        return cls(alpha=alpha, rho=rho, nu=nu, slope=slope, height0=value - rho * slope)

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise DomainError(f"rho out of range: {self.rho}")
        if not 0.0 < self.slope < 1.0:
            raise DomainError(f"switch slope out of range: {self.slope}")
        if self.height0 <= 0.0:
            raise DomainError(f"flat height must be positive: {self.height0}")
        qs = np.linspace(self.rho, 0.999, 64)
        val, slope, second = self.nu.eval(np.append(qs, 1.0))
        if abs(val[-1] - 1.0) > 1e-8 or abs(slope[-1] - 1.0) > 1e-8:
            raise DomainError("arc does not satisfy nu(1) = nu'(1) = 1")
        if np.any(val[:-1] - qs <= 0.0) or np.any(second[:-1] <= 0.0):
            raise DomainError("arc violates nu > q or convexity on [rho, 1)")

    def eval(self, q):
        """(kappa, kappa', kappa'') at q in [0, 1]."""
        q = np.asarray(q, float)
        if not np.all((q >= -1e-12) & (q <= 1.0 + 1e-12)):
            raise DomainError("kappa evaluated outside [0, 1]")
        on_arc = q >= self.rho
        q = np.clip(q, 0.0, 1.0)
        out = np.array([self.height0 + self.slope * q, np.full_like(q, self.slope),
                        np.zeros_like(q)])
        if np.any(on_arc):
            out = np.where(on_arc, self.nu.eval(np.where(on_arc, q, 1.0)), out)
        return tuple(map(float, out)) if q.ndim == 0 else tuple(out)


@lru_cache(maxsize=64)
def _assemble_cached(alpha):
    nu = solve_nu(alpha)
    return ScaledProfile.at_switch(alpha, nu, find_switch(alpha, nu))


def assemble_profile(alpha):
    """Solve the arc, locate the switching radius, return the C^1 profile."""
    alpha = float(alpha)
    if not 0.0 <= alpha < ALPHA_MAX:
        raise NoRoot(_VALIDITY_MSG.format(alpha))
    return _assemble_cached(alpha)


# ---------------------------------------------------------------------------
# optimality certificates
# ---------------------------------------------------------------------------

# sampled adjoint deficiency omega on [0, rho]; omega(rho) = omega'(rho) = 0
AdjointProfile = namedtuple("AdjointProfile", ["q", "omega"])


def adjoint_omega(profile):
    """Adjoint certificate omega(qt) = 1/4 int_qt^rho (qt-q) G(q) dq, at 201
    points qt evenly spaced on [0, rho].

    G = L_{eta' eta'} * R along the affine continuation; omega(0) = -I(rho),
    and local optimality of the flat cut needs omega < 0 on (0, rho).
    omega'' = -G/4 with omega(rho) = omega'(rho) = 0: one series segment on
    [0, rho] from -G/4 at the N_ARC Lobatto nodes, anchored at rho, where
    its node holds omega = 0 exactly.
    """
    rho = profile.rho
    s, fit, _, _ = singular_ode._lobatto_integrals(singular_ode.N_ARC, 1.0)
    kern = _switch_kernel(0.5 * rho * (s + 1.0), profile.slope, profile.height0,
                          profile.alpha, 1.0)
    qt = np.linspace(0.0, rho, 201)
    seg = singular_ode._ChebSegment(0.5 * rho, 0.5 * rho, -(fit @ kern), 1.0)
    return AdjointProfile(qt, seg.eval(qt)[0])


def variational_coeffs_along(profile):
    """Linearization of the arc equation along the assembled kappa.

    Written in the frame t = q-1, x = kappa - q; the coefficient function
    takes an array of t, reads the state (x, x') once, and returns
    (alpha, beta, 0) in the cancellation-free forms

        alpha = lam (2x - t x')(2x + t x')/(t x^2) + t g_x,
        beta  = 2 lam (t x' - 2x)/(t x) + g_xdot,

    finite at t=0 with limits -(4/3) lam nu'''/nu'' and
    (2/3) lam nu'''/nu'' + g_xdot(0,0,0), returned at t=0 itself.  On the
    arc x is read from the movable-frame series (profile.nu.base), free of
    the cancellation in kappa - q.  Below the switching point the same
    formulas are evaluated along the affine branch (kappa is not an arc
    solution there; that is intentional: the check certifies the assembled
    composite, not the arc alone).  The coefficients are only continuous
    at the switching point t = rho - 1, which is declared as a break.
    """
    alpha = profile.alpha
    ivp = scaled_arc_ivp(alpha)
    base = profile.nu.base
    t_arc_min = profile.rho - 1.0
    _, _, xdd0, x3 = nu_derivatives_at_one(alpha)
    a_lim = -(4.0 / 3.0) * LAM * x3 / xdd0
    b_lim = (2.0 / 3.0) * LAM * x3 / xdd0 + ivp.g_xdot(0.0, 0.0, 0.0)

    def fn(t):
        t = np.asarray(t, float)
        a, b = np.full(t.shape, a_lim), np.full(t.shape, b_lim)
        off = t != 0.0
        t = t[off]
        on_arc = t >= t_arc_min
        x, xd, _ = base.eval(np.where(on_arc, t, 0.0))
        x = np.where(on_arc, x, profile.height0 + (profile.slope - 1.0) * (t + 1.0))
        xd = np.where(on_arc, xd, profile.slope - 1.0)
        a[off] = (LAM * (2.0 * x - t * xd) * (2.0 * x + t * xd) / (t * x * x)
                  + t * ivp.g_x(t, x, xd))
        b[off] = 2.0 * LAM * (t * xd - 2.0 * x) / (t * x) + ivp.g_xdot(t, x, xd)
        return a, b, 0.0

    return VariationalCoeffs(fn, LAM, breaks=(t_arc_min,))


def _jacobi_field(profile):
    """Jacobi field zeta(1)=0, zeta'(1)=1 along the profile, by a fixed linear collocation."""
    return MappedSolution(integrate_variational(variational_coeffs_along(profile), 1.0, -1.0),
                          offset=-1.0)


def jacobi_check(profile):
    """Conjugate-point scan: report (min |zeta| on [0, 0.999], zeta) for the
    Jacobi field zeta = _jacobi_field(profile), sampled at 2000 evenly
    spaced points.

    A zero of zeta inside [0, 1) would be a conjugate point and kill local
    optimality; min_abs = 0.0 is returned if a sign change is detected.
    The field bracket reads the same zeta: pass it to field_jacobian_check.
    """
    zeta = _jacobi_field(profile)
    qs = np.linspace(0.0, 0.999, 2000)
    vals = zeta.eval(qs)[0]
    if np.any(vals[:-1] * vals[1:] < 0.0):
        return 0.0, zeta
    return float(np.min(np.abs(vals))), zeta


def _field_bracket(profile, zeta, q):
    """B = q*kappa' - kappa + 2*alpha*dkappa/dalpha at q, from zeta = jacobi_check(profile)[1].

    B = -dv/dp0 of the unscaled family is a Jacobi field with zeta's data
    at the rim, so B = nu''(1)*zeta on [rho, 1].  On [0, rho] it is affine
    with slope Y'(rho) + nu''(rho)*2*alpha*rho', Y = 2*alpha*dnu/dalpha =
    B - q*nu' + nu.  2*alpha*rho' = -D_alpha/D_rho: central differences
    (eps = 1e-6) of _switch_rule along the tangent of nu + eps*Y at
    alpha*(1 + 2*eps) and along the tangent at rho + eps.  No arc and no
    Jacobi field is solved here, and nothing is divided by alpha.
    """
    alpha, rho, s, h0 = profile.alpha, profile.rho, profile.slope, profile.height0
    nu2 = nu_derivatives_at_one(alpha)[2]
    z, zd, _ = zeta.eval(np.append(q, rho))
    n2 = profile.nu.eval(rho)[2]
    y0, y1 = nu2 * z[-1] + h0, nu2 * zd[-1] - rho * n2  # Y(rho), Y'(rho)
    ea, er = np.array([[1e-6, -1e-6, 0.0, 0.0], [0.0, 0.0, 1e-6, -1e-6]])
    d = _switch_rule(rho + er, s + ea * y1 + er * n2,
                     h0 + ea * (y0 - rho * y1) - er * rho * n2, alpha * (1.0 + 2.0 * ea))
    slope = y1 - n2 * (d[0] - d[1]) / (d[2] - d[3])
    return np.where(q >= rho, nu2 * z[:-1], nu2 * z[-1] + slope * (q - rho))


def field_jacobian_check(profile, zeta):
    """Sign of the field bracket (_field_bracket) on [0, 0.99]; zeta = jacobi_check(profile)[1].

    Constant sign means the one-parameter family of profiles fans out into
    a proper field around this member; raises SignChange if it varies.
    """
    bracket = _field_bracket(profile, zeta, np.linspace(0.0, 0.99, 241))
    scale = np.max(np.abs(bracket))
    signs = np.sign(bracket[np.abs(bracket) > 1e-12 * scale])
    if signs.size == 0 or np.any(signs != signs[0]):
        raise SignChange(f"field Jacobian bracket changes sign at alpha={profile.alpha}")
    return int(signs[0])


def abel_residual(nu_hat, q):
    """Residual of the alpha=0 first-order reduction at radius q.

    In the variables t = nu/q, x = nu' - nu/q the alpha=0 arc equation
    collapses to dx/dt = 2 + (3/2)(x/t + t/x) - x/(2 t (t^2-1)); the
    residual of the solved nu against this form should vanish.
    """
    q = float(q)
    if not 0.0 < q < 1.0:
        raise DomainError(f"q must be in (0,1), got {q}")
    nv, npv, npp = nu_hat.eval(q)
    t = nv / q
    x = (q * npv - nv) / q
    if abs(x) < 1e-13 or abs(t * t - 1.0) < 1e-10:
        raise DomainError("reduction variables degenerate (x=0 or t=+-1)")
    dxdt = npp * q / x - 1.0
    rhs = 2.0 + 1.5 * (x / t + t / x) - x / (2.0 * t * (t * t - 1.0))
    return dxdt - rhs


# ---------------------------------------------------------------------------
# endpoint weight (validity-range certificate)
# ---------------------------------------------------------------------------

def endpoint_weight_quadrature(alpha):
    """int_0^1 sqrt(q)(1-2q) / ((q^2+alpha)^2 sqrt(1-q)) dq, via q = sin^2(phi).

    The substitution leaves 2*s2*(1-2*s2)/(s2^2+alpha)^2, s2 = sin^2(phi),
    analytic on [0, pi/2]; its peak at phi = 0 has a width of about
    alpha^(1/4), toward which the N_PANEL-point Gauss-Legendre panels of
    _graded_ends are graded.  Raises DomainError where the denominator
    (s2^2+alpha)^2 overflows or underflows to 0: alpha = inf, above about
    1.3e154 and below about 1.6e-162.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < np.inf:
        raise DomainError(f"alpha must be positive and finite, got {alpha}")
    phi, w = _panel_rule(_graded_ends(0.5 * np.pi, 0.0, 0.5 * alpha ** 0.25, np.inf), N_PANEL)
    s2 = np.sin(phi) ** 2
    with np.errstate(over="ignore"):
        den = (s2 * s2 + alpha) ** 2
    if not np.all((0.0 < den) & (den < np.inf)):
        raise DomainError(f"alpha = {alpha!r}: the integrand's denominator leaves the doubles")
    return float(w @ (2.0 * s2 * (1.0 - 2.0 * s2) / den))


def endpoint_weight_closed_form(alpha):
    """Closed form of the endpoint weight; zero exactly at alpha = 1/3.  Raises
    DomainError where it overflows: alpha below about 1e-247 or above 5e102."""
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


# ---------------------------------------------------------------------------
# unscaling and top-level solves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtremalSolution:
    """Unscaled solution: curve v(p) on [0, p0], with derived quantities.

    v(p) = p0 * kappa(p / p0); flat on [0, r], arc on [r, p0]; J is the
    value of the reduced functional (the body's resistance is 2*J).  eval
    is the one reader of the curve: (v, v', v'') from one read of the
    profile.
    """
    p0: float
    M: float
    r: float
    slope0: float
    J: float
    profile: ScaledProfile

    def __post_init__(self):
        ps = np.linspace(0.0, self.p0, 33)
        vs = self.eval(ps)[0]
        if np.any(vs < ps - 1e-9) or np.any(vs > ps + self.M + 1e-9):
            raise DomainError("curve violates p <= v <= p + M")

    def eval(self, p):
        """(v, v', v'') at p in [0, p0]."""
        k, kp, kpp = self.profile.eval(np.asarray(p, float) / self.p0)
        return self.p0 * k, kp, kpp / self.p0


def unscale(profile, p0):
    """Map a scaled profile to the unscaled frame; requires p0 = 1/sqrt(alpha) <= _P0_TOP."""
    p0 = float(p0)
    if _P0_TOP < p0 < np.inf:
        raise NoRoot(f"p0={p0!r} above the reachable range (max p0 {_P0_TOP:.5g}, "
                     f"where 1/p0^2 reaches the smallest normal double)")
    if profile.alpha <= 0.0:
        raise InconsistentScale("alpha = 0 profile has no finite p0 (it is the scale-out limit)")
    if not np.isfinite(p0) or abs(p0 - 1.0 / np.sqrt(profile.alpha)) > 1e-12 * p0:
        raise InconsistentScale(
            f"p0={p0!r} inconsistent with alpha={profile.alpha!r} (need p0 = 1/sqrt(alpha))")
    J = profile.alpha * J_scaled(profile)
    return ExtremalSolution(p0=p0, M=p0 * profile.height0, r=p0 * profile.rho,
                            slope0=profile.slope, J=J, profile=profile)


def solve_for_height(M):
    """Synthesize the extremal solution with prescribed height M.

    Newton's method on h(p0) = p0 * height0(1/p0^2) - M through
    assemble_profile's cache, with the exact slope h' = -B(0), the field
    bracket at q = 0, from the root of the flat-height asymptote
    M = _M_HAT*p0 - 0.65/p0 (within 1.1e-3 relative for M >= 0.5).  h
    increases with p0, from about 0.0869 at the validity edge p0 = sqrt(3)
    to _M_TOP at _P0_TOP, where 1/p0^2 is the smallest normal double;
    larger M is refused up front.  height0 < _H0_HI bounds the root below,
    and hi = max(M/_H0_LO, lo) + 1 >= 2.73, capped at _P0_TOP, bounds it
    above, as height0 > _H0_LO there.  Each h shrinks [lo, hi] by its
    sign; a step that leaves it evaluates the end it crosses, or bisects
    if that end is known.  The root is the first iterate that the previous
    slope puts within 1e-10 + 1e-13*p0 of the next, so the last arc needs
    no Jacobi field.
    """
    M = float(M)
    if not 0.0 < M < np.inf:
        raise NoRoot(f"height must be positive and finite, got M={M}")
    if M > _M_TOP:
        raise NoRoot(f"M={M} above the reachable range (max height {_M_TOP:.5g}, "
                     f"where 1/p0^2 reaches the smallest normal double)")

    lo = max(np.sqrt(3.0) * (1.0 + 1e-6) + 1e-9, M / _H0_HI)
    hi = min(max(M / _H0_LO, lo) + 1.0, _P0_TOP)
    a, b, unseen = lo, hi, {lo, hi}
    p = min(max((M + np.sqrt(M * M + 2.6 * _M_HAT)) / (2.0 * _M_HAT), lo), hi)
    slope = None
    for _ in range(_HEIGHT_MAXITER):
        profile = assemble_profile(1.0 / (p * p))
        hp = p * profile.height0 - M
        if p == lo and hp >= 0.0:
            raise NoRoot(f"M={M} below the reachable range (min height "
                         f"{hp + M:.4g} at the validity edge)")
        if p == hi and hp <= 0.0:
            raise NoRoot(f"could not bracket p0 for M={M}")
        unseen.discard(p)
        if hp == 0.0 or (slope is not None and abs(hp / slope) <= 1e-10 + 1e-13 * p):
            return unscale(profile, p)
        a, b = (p, b) if hp < 0.0 else (a, p)
        slope = -float(_field_bracket(profile, _jacobi_field(profile), np.zeros(1))[0])
        p = p - hp / slope
        if not a < p < b:
            end = a if hp > 0.0 else b
            p = end if end in unseen else 0.5 * (a + b)
    raise NoRoot(f"height root: no convergence in {_HEIGHT_MAXITER} iterations for M={M}")


LimitConstants = namedtuple("LimitConstants", ["r_hat", "M_hat", "slope_hat", "J_hat"])


def limit_constants():
    """Scale-out (alpha=0) constants: switching radius, flat height,
    switch slope, and the limit functional value."""
    prof = assemble_profile(0.0)
    return LimitConstants(r_hat=prof.rho, M_hat=prof.height0,
                          slope_hat=prof.slope, J_hat=J_scaled(prof))
