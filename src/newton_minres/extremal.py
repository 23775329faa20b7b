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
a genuine local minimizer, not just a stationary point; certify runs them all.
"""

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np
from numpy.polynomial import chebyshev as cheb

from .errors import DomainError, InconsistentScale, NoRoot, SignChange
from .functional import J_scaled, _panel_rule
# unused here: perfbench/spans.py wraps this module binding by name
from .functional import quad_value  # noqa: F401
from . import functional, singular_ode
from .singular_ode import (MappedSolution, SingularIVP, integrate, integrate_variational,
                           linearized)

LAM = -0.25
ALPHA_MAX = 1.0 / 3.0
# the flat height is below _H0_HI on the validity range, so M/_H0_HI bounds
# the height root below: see solve_for_height
_H0_HI = 0.3158
# past _P0_TOP, alpha = 1/p0^2 leaves the normal doubles; the height there,
# p0 * height0, is 2.116663e153 (measured), so _M_TOP is the largest height
_P0_TOP, _M_TOP = 1.0 / np.sqrt(np.finfo(float).tiny), 2.1166e153
_VALIDITY_MSG = ("alpha = {!r} is outside [0, 1/3): the switching-integral "
                 "uniqueness hypothesis fails there (endpoint weight changes sign at 1/3)")
_P0_TOP_MSG = (f"p0={{!r}} above the reachable range (max p0 {_P0_TOP:.5g}, where 1/p0^2 "
               "reaches the smallest normal double)")
# Gauss-Legendre nodes per panel of I_of's graded rule
N_PANEL = 16
# the height root's Newton on the series takes at most this many steps
_HEIGHT_MAXITER = 100
# height0 over the whole validity range as one degree-48 Chebyshev series in
# x = 2*s/sqrt(1/3) - 1, s = sqrt(1/3 - alpha), which takes the square-root
# branch point at alpha = 1/3 out of the interpolant: the interpolant of
# assemble_profile(alpha).height0 at the 49 first-kind Chebyshev points, all
# inside (0, 1/3), within 7.3e-14 relative between them (the tests recompute both)
_H0_SERIES = (0.1624697953751606, 0.13474842150940108, 0.018572184815788793,
              -0.0014284589284898144, 0.0016699399628068406, -0.000492115588299188,
              0.00023125787851194956, -5.09936410371629e-05, 9.523650565694535e-06,
              1.0339922415514077e-05, -8.141450203125006e-06, 5.943647923389761e-06,
              -2.6662763084997387e-06, 1.0698573780086828e-06, -1.7846784159620374e-07,
              -1.0187884452900038e-07, 1.4913862177274718e-07, -1.1084265506308424e-07,
              5.892600421624381e-08, -2.5472723952942602e-08, 5.485267458352895e-09,
              1.333942716470981e-09, -3.452467887435857e-09, 2.5601470013827804e-09,
              -1.606329489866634e-09, 6.62046910005815e-10, -2.1012467836306357e-10,
              -3.147010367576732e-11, 7.67494193495125e-11, -7.41301687432505e-11,
              4.307167175307547e-11, -2.16333685288467e-11, 6.229968396406277e-12,
              -1.0499808784913982e-13, -2.2437783941497973e-12, 2.0103718247685646e-12,
              -1.3719470177729962e-12, 6.526078243862307e-13, -2.373552647161052e-13,
              1.1514919127773422e-14, 5.6307817521353645e-14, -6.299366932429484e-14,
              4.2362361317929675e-14, -2.2386323391798452e-14, 8.084194430413432e-15,
              -1.043687669564668e-15, -1.4661151117836133e-15, 1.6781925543270242e-15,
              -1.2414298231291611e-15)


def _series_height(p):
    """(H, dH/dp) of H(p) = p*h(1/p^2), h the _H0_SERIES interpolant of height0,
    in floats: the Chebyshev recurrences for T_k(x) and T_k'(x); p > sqrt(3)."""
    p = float(p)
    alpha = 1.0 / (p * p)
    s = math.sqrt(ALPHA_MAX - alpha)
    x = 2.0 * math.sqrt(3.0) * s - 1.0
    t, t_prev, d, d_prev = x, 1.0, 1.0, 0.0
    h, dh = _H0_SERIES[0] + _H0_SERIES[1] * x, _H0_SERIES[1]
    for c in _H0_SERIES[2:]:
        t, t_prev, d, d_prev = 2.0 * x * t - t_prev, t, 2.0 * t + 2.0 * x * d - d_prev, d
        h, dh = h + c * t, dh + c * d
    # dh/dalpha = -sqrt(3)/s * dh/dx, and dH/dp = h - 2*alpha*dh/dalpha
    return p * h, h + 2.0 * math.sqrt(3.0) * alpha / s * dh


def brentq(*args, **kwargs):
    """Placeholder that nothing here calls: perfbench/spans.py wraps this
    module binding by name until the bench reads a stats record instead."""
    raise NotImplementedError("extremal finds its roots without Brent's method")


def nu_derivatives_at_one(alpha):
    """[nu(1), nu'(1), nu''(1), nu'''(1)].

    Closed forms from the Taylor balance of the arc equation at q=1:
    nu''(1) = (3-alpha)/(3(1+alpha)), nu'''(1) = (3+2a+a^2)/(2(1+a)^2).
    """
    alpha = float(alpha)
    if not 0.0 <= alpha < np.inf:
        raise DomainError(f"alpha must be finite and >= 0, got {alpha}")
    return [1.0, 1.0,
            (3.0 - alpha) / (3.0 * (1.0 + alpha)),
            (3.0 + 2.0 * alpha + alpha * alpha) / (2.0 * (1.0 + alpha) ** 2)]


def scaled_arc_ivp(alpha):
    """SingularIVP for the scaled arc in the movable frame (t=q-1, x=nu-q)."""
    alpha = float(alpha)
    if not 0.0 <= alpha < np.inf:
        raise DomainError(f"alpha must be finite and >= 0, got {alpha}")

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
    """Arc solution nu(q) on [0,1] with nu(1)=nu'(1)=1, solved afresh from the
    osculating parabola on every call (only solve_for_height caches its
    result).  Returned as a view over the movable-frame solution, so
    downstream code can read x = nu - q directly from .base without
    cancellation.
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
    point, inside [0, rho]: where eta = a*q + b meets eta = -q and eta = q.
    DomainError if a d is 0 (an underflow; k would never grow) or inf."""
    ends = [0.0, 0.5 * rho, rho]
    for gap, rate, origin, sign in ((b, 1.0 + a, 0.0, 1.0), (nr - rho, 1.0 - a, rho, -1.0)):
        if not rate > 0.0:  # a <= -1, resp. a >= 1: no point on this side
            continue
        d = gap / rate
        if not 0.0 < d < np.inf:
            raise DomainError(f"degenerate continuation: a branch point of the switching "
                              f"integrand lies {d!r} from [0, rho]")
        k = d
        while k < 0.5 * rho:
            ends.append(origin + sign * k)
            k = 2.0 * k + d
    return np.array(sorted(set(ends)))  # np.unique would import numpy.ma


def _tangent(rho, nu):
    """(a, b, nu(rho)) of nu's tangent eta = a*q + b at rho; DomainError unless
    0 < rho < 1, b is finite and eta - q, affine, is > 0 at 0 and rho (NaN fails)."""
    if not 0.0 < rho < 1.0:
        raise DomainError(f"rho must be in (0,1), got {rho}")
    nr, a, _ = map(float, nu.eval(rho))
    b = nr - rho * a
    if not (0.0 < b < np.inf and nr - rho > 0.0):
        raise DomainError("degenerate continuation: tangent leaves the admissible region eta > q")
    return a, b, nr


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
    a, b, nr = _tangent(rho, nu)
    q, w = _panel_rule(_graded_ends(rho, a, b, nr), N_PANEL)
    return float(w @ _switch_kernel(q, a, b, alpha, q))


def I_closed_form_alpha0(rho, nu_hat):
    """Closed form of I(rho, alpha=0) along the tangent continuation."""
    rho = float(rho)
    a, b, nr = _tangent(rho, nu_hat)
    u1 = rho / nr
    s = np.sqrt(1.0 - u1 * u1)
    bracket = (3.0 * a * np.arcsin(u1) - 2.0 - 2.0 * a * a
               + s * (2.0 - 3.0 * a * u1 + 2.0 * a * a
                      + 4.0 * a * a * u1 * u1 - 2.0 * a ** 3 * u1 ** 3))
    return bracket / (4.0 * b * b)


def _switch_rule(rho, a, b, alpha):
    """I(rho) along eta = a*q + b, Clenshaw-Curtis on the N_ARC Lobatto nodes
    of each [0, rho]; the arguments broadcast to one 1-D array."""
    s, _, int1, _ = singular_ode._lobatto_integrals(singular_ode.N_ARC, 1.0)
    rho, a, b, alpha = (v[:, None] for v in np.broadcast_arrays(*np.atleast_1d(rho, a, b, alpha)))
    q = 0.5 * rho * (s + 1.0)
    return -0.5 * rho[:, 0] * (_switch_kernel(q, a, b, alpha, q) @ int1[-1])


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
    assemble_profile and the height root call this once per arc they solve.
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
        raise NoRoot(f"switching integral has no sign change on [{grid[0]:.3f}, {grid[-1]:.3f}]")
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
    reader: (kappa, kappa', kappa'') from one read of the arc at q >= rho.
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
            out[:, on_arc] = self.nu.eval(q[on_arc])
        return tuple(map(float, out)) if q.ndim == 0 else tuple(out)


def assemble_profile(alpha):
    """Solve the arc from the osculating parabola, locate the switching
    radius, return the C^1 profile; every call solves its own arc."""
    alpha = float(alpha)
    if not 0.0 <= alpha < ALPHA_MAX:
        raise NoRoot(_VALIDITY_MSG.format(alpha))
    nu = solve_nu(alpha)
    return ScaledProfile.at_switch(alpha, nu, find_switch(alpha, nu))


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


def _jacobi_field(profile):
    """Jacobi field zeta(1)=0, zeta'(1)=1 along the profile on [0, 1], by a
    fixed linear collocation: one piece on the arc, one on the flat.

    Its coefficients are `linearized` along kappa in the frame t = q-1,
    x = kappa - q: on the arc from the movable-frame series
    (profile.nu.base, read at those nodes only), free of the cancellation
    in kappa - q, and below the switching point along the affine branch
    (kappa is not an arc solution there; that is intentional: the check
    certifies the assembled composite, not the arc alone).  They are only
    continuous at the switching point t = rho - 1, declared as a break.  zeta''(1)
    is the t->0 balance (g_xdot(0,0,0) - (2/3) lam nu'''/nu'') / (1 - 2 lam).
    """
    ivp = scaled_arc_ivp(profile.alpha)
    t_arc_min = profile.rho - 1.0

    def fn(t):
        on_arc = t >= t_arc_min
        x = profile.height0 + (profile.slope - 1.0) * (t + 1.0)
        xd = np.full_like(t, profile.slope - 1.0)
        x[on_arc], xd[on_arc], _ = profile.nu.base.eval(t[on_arc])
        return (*linearized(ivp, t, x, xd), 0.0)

    _, _, nu2, nu3 = nu_derivatives_at_one(profile.alpha)
    zdd1 = (ivp.g_xdot(0.0, 0.0, 0.0) - (2.0 / 3.0) * LAM * nu3 / nu2) / (1.0 - 2.0 * LAM)
    return MappedSolution(integrate_variational(fn, zdd1, 1.0, -1.0, breaks=(t_arc_min,)),
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
    """B = q*kappa' - kappa + 2*alpha*dkappa/dalpha at q, from any Jacobi field zeta
    of the profile that covers [rho, 1], such as jacobi_check's.

    B = -dv/dp0 of the unscaled family is a Jacobi field with zeta's data
    at the rim, so B = nu''(1)*zeta on [rho, 1].  On [0, rho] it is affine
    with slope Y'(rho) + nu''(rho)*2*alpha*rho', Y = 2*alpha*dnu/dalpha =
    B - q*nu' + nu, so zeta is read only on [rho, 1].  2*alpha*rho' =
    -D_alpha/D_rho: central differences (eps = 1e-6) of _switch_rule along
    the tangent of nu + eps*Y at alpha*(1 + 2*eps) and along the tangent
    at rho + eps.  No arc and no Jacobi field is solved here, and nothing
    is divided by alpha.
    """
    alpha, rho, s, h0 = profile.alpha, profile.rho, profile.slope, profile.height0
    nu2 = nu_derivatives_at_one(alpha)[2]
    z, zd, _ = zeta.eval(np.maximum(np.append(q, rho), rho))
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
    if not (1e-13 <= abs(x) < np.inf and abs(t * t - 1.0) >= 1e-10):
        raise DomainError("reduction variables degenerate (x = 0 or infinite, or t = +-1)")
    dxdt = npp * q / x - 1.0
    rhs = 2.0 + 1.5 * (x / t + t / x) - x / (2.0 * t * (t * t - 1.0))
    return dxdt - rhs


def certify(profile):
    """The optimality battery on one profile: (I(rho), verdicts), a dict of
    bools in a fixed order; a solver failure other than the field bracket's
    SignChange propagates.  nu'''(1) is the one-sided five-point difference
    of nu'' at q = 1 - k*0.005, k = 0..4 (a spectral x''' loses digits like
    N^2 at the end).  Past functional.P0_MAX J_unscaled would overflow; the
    profile is alpha = 0's bit for bit, and its identities certify instead."""
    alpha, rho, nu = profile.alpha, profile.rho, profile.nu
    verdicts = {}
    switch_val = I_of(rho, alpha, nu)
    verdicts["switching_zero"] = abs(switch_val) < 1e-10

    adj = adjoint_omega(profile)
    interior = (adj.q > 0.01) & (adj.q < rho - 0.01)
    # omega(0) = -I(rho); with the switching condition satisfied it vanishes
    verdicts["adjoint_negative"] = (np.all(adj.omega[interior] < 0.0)
                                    and abs(adj.omega[0]) < 1e-8)

    min_abs, zeta = jacobi_check(profile)
    verdicts["no_conjugate_point"] = min_abs > 0.0
    try:
        field_jacobian_check(profile, zeta)
        verdicts["field_sign_constant"] = True
    except SignChange:
        verdicts["field_sign_constant"] = False

    x2, x3 = nu_derivatives_at_one(alpha)[2:]
    delta = 5e-3
    n2 = nu.eval(1.0 - delta * np.arange(5))[2]
    n3 = np.dot([25.0, -48.0, 36.0, -16.0, 3.0], n2) / (12.0 * delta)
    verdicts["endpoint_taylor"] = abs(n2[0] - x2) < 1e-6 and abs(n3 - x3) < 1e-6

    p0 = 1.0 / np.sqrt(alpha) if alpha > 0.0 else math.inf
    if p0 > functional.P0_MAX:
        closed = I_closed_form_alpha0(rho, nu)
        verdicts["switching_closed_form"] = abs(switch_val - closed) < 1e-8
        resid = max(abs(abel_residual(nu, q)) for q in (0.3, 0.5, 0.9))
        verdicts["abel_reduction"] = resid < 1e-6
    else:
        sol = unscale(profile, p0)
        ju = functional.J_unscaled(sol)
        verdicts["scaling_identity"] = abs(ju - sol.J) < 1e-8 * abs(sol.J)
    return switch_val, {k: bool(v) for k, v in verdicts.items()}


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
        raise NoRoot(_P0_TOP_MSG.format(p0))
    if profile.alpha <= 0.0:
        raise InconsistentScale("alpha = 0 profile has no finite p0 (it is the scale-out limit)")
    if not np.isfinite(p0) or abs(p0 - 1.0 / np.sqrt(profile.alpha)) > 1e-12 * p0:
        raise InconsistentScale(
            f"p0={p0!r} inconsistent with alpha={profile.alpha!r} (need p0 = 1/sqrt(alpha))")
    J = profile.alpha * J_scaled(profile)
    return ExtremalSolution(p0=p0, M=p0 * profile.height0, r=p0 * profile.rho,
                            slope0=profile.slope, J=J, profile=profile)


def _height_root_start(M, lo, hi):
    """The float root of H(p) = M on the series (_series_height): Newton from
    lo, each iterate clamped into [lo, hi], until a step no longer moves p
    up.  H is increasing and concave (its slope falls from 1.62 at the
    validity edge to M_hat), so from lo the iterates rise to the root; a
    start at lo means M is at or below H(lo)."""
    p = lo
    for _ in range(_HEIGHT_MAXITER):
        H, dH = _series_height(p)
        p_next = min(max(p - (H - M) / dH, lo), hi)
        if not p_next > p:
            break
        p = p_next
    return p


@lru_cache(maxsize=64)
def solve_for_height(M):
    """Synthesize the extremal solution with prescribed height M.

    h(p0) = p0 * height0(1/p0^2) - M is solved in p0.  p0 is the float
    root of H(p0) = M on the stored series of height0 (_height_root_start,
    Newton from the lower bound M/_H0_HI, clamped at _P0_TOP), within
    3.1e-11 relative of the solver's root.  assemble_profile(1/p0^2), one
    cold arc and its switching root, checks it by the stop rule
    |h/H'(p0)| <= 1e-10 + 1e-13*p0, with the series slope H'.  A miss is
    NoRoot naming p0, M and h; there is no second root finder.  So every
    height solves one arc, one Picard seed and no Jacobi field, refusals
    included.  The package's one solve cache, by M, a number (an array
    raises TypeError): a repeated M (mesh after resistance at one height,
    in one process) solves nothing and returns the same ExtremalSolution.
    h increases with p0, from about 0.0869 at the validity edge
    p0 = sqrt(3) to _M_TOP at _P0_TOP, where 1/p0^2 is the smallest normal
    double; larger M is refused up front, smaller M by the arc at the edge.
    """
    M = float(M)
    if not 0.0 < M < np.inf:
        raise NoRoot(f"height must be positive and finite, got M={M}")
    if M > _M_TOP:
        raise NoRoot(f"M={M} above the reachable range (max height {_M_TOP:.5g}, "
                     f"where 1/p0^2 reaches the smallest normal double)")

    lo = max(np.sqrt(3.0) * (1.0 + 1e-6) + 1e-9, M / _H0_HI)
    p = _height_root_start(M, lo, _P0_TOP)
    profile = assemble_profile(1.0 / (p * p))
    hp = p * profile.height0 - M
    if p == lo and hp >= 0.0:
        raise NoRoot(f"M={M} below the reachable range (min height "
                     f"{hp + M:.7g} at the validity edge)")
    tol = 1e-10 + 1e-13 * p
    if not abs(hp / _series_height(p)[1]) <= tol:
        raise NoRoot(f"height root: the arc at the series root p0={p:.17g} misses M={M} "
                     f"by h={hp:.3e} (|h/H'| above {tol:.3e})")
    return unscale(profile, p)


def solve_for_edge_slope(p0):
    """The twin of solve_for_height for a prescribed edge slope p0, at
    alpha = 1/p0^2: p0 outside (sqrt(3), _P0_TOP] is a NoRoot that starts
    with p0, raised before any arc is solved."""
    p0 = float(p0)
    if p0 > _P0_TOP:   # also inf
        raise NoRoot(_P0_TOP_MSG.format(p0))
    if not p0 > np.sqrt(3.0):   # also nan; in doubles, 1/p0^2 < 1/3 exactly when p0 > sqrt(3)
        raise NoRoot(f"p0={p0!r} is not above sqrt(3)" + (
            ": " + _VALIDITY_MSG.format(1.0 / (p0 * p0)) if p0 > 0.0 and p0 * p0 > 0.0 else ""))
    return unscale(assemble_profile(1.0 / (p0 * p0)), p0)


LimitConstants = namedtuple("LimitConstants", ["r_hat", "M_hat", "slope_hat", "J_hat",
                                               "arc_value0", "arc_slope0"])


def limit_constants():
    """Scale-out (alpha=0) constants: switching radius, flat height,
    switch slope, the limit functional value, and the arc's value and slope
    at q = 0, all from one solved arc."""
    prof = assemble_profile(0.0)
    nu0, nup0, _ = prof.nu.eval(0.0)
    return LimitConstants(r_hat=prof.rho, M_hat=prof.height0, slope_hat=prof.slope,
                          J_hat=J_scaled(prof), arc_value0=nu0, arc_slope0=nup0)
