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
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq

from .errors import DomainError, InconsistentScale, NoRoot, SignChange
from .functional import J_scaled, lagrangian_value, quad_value
from .singular_ode import (MappedSolution, SingularIVP, integrate,
                           integrate_variational, VariationalCoeffs)

LAM = -0.25
ALPHA_MAX = 1.0 / 3.0
# global bounds on the flat height over the validity range, used to bracket p0
_H0_LO, _H0_HI = 0.20, 0.3158
_VALIDITY_MSG = ("alpha = {:.6g} is outside [0, 1/3): the switching-integral "
                 "uniqueness hypothesis fails there (endpoint weight changes sign at 1/3)")


def nu_derivatives_at_one(alpha, order=3):
    """[nu(1), nu'(1), nu''(1), nu'''(1)] truncated to `order`.

    Closed forms from the Taylor balance of the arc equation at q=1:
    nu''(1) = (3-alpha)/(3(1+alpha)), nu'''(1) = (3+2a+a^2)/(2(1+a)^2).
    """
    alpha = float(alpha)
    if alpha < 0.0:
        raise DomainError(f"alpha must be >= 0, got {alpha}")
    if not 0 <= order <= 3:
        raise DomainError(f"order must be in 0..3, got {order}")
    vals = [1.0, 1.0,
            (3.0 - alpha) / (3.0 * (1.0 + alpha)),
            (3.0 + 2.0 * alpha + alpha * alpha) / (2.0 * (1.0 + alpha) ** 2)]
    return vals[:order + 1]


def scaled_arc_ivp(alpha):
    """SingularIVP for the scaled arc in the movable frame (t=q-1, x=nu-q)."""
    alpha = float(alpha)
    if alpha < 0.0:
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


@lru_cache(maxsize=64)
def _solve_nu_base(alpha, tol):
    return integrate(scaled_arc_ivp(alpha), -1.0, tol=tol)


def solve_nu(alpha, tol=1e-10):
    """Arc solution nu(q) on [0,1] with nu(1)=nu'(1)=1.

    Returned as a view over the movable-frame solution, so downstream code
    can read x = nu - q directly from .base without cancellation.
    """
    base = _solve_nu_base(float(alpha), float(tol))
    return MappedSolution(base, offset=-1.0, add0=0.0, add1=1.0)


def scaled_lagrangian(q, eta, etap, alpha):
    """Scaled integrand g(q, eta, eta'): the c=alpha member of the family."""
    return lagrangian_value(q, eta, etap, alpha)


# ---------------------------------------------------------------------------
# switching integral
# ---------------------------------------------------------------------------

def _arc_rhs(q, e, a, alpha):
    """Right side of the arc equation evaluated at (q, eta=e, eta'=a)."""
    return (-0.25 * (a - 1.0) ** 2 / (e - q) - 0.25 * (a + 1.0) ** 2 / (e + q)
            + 2.0 * e * a * a / (e * e + alpha))


def I_of(rho, alpha, nu):
    """Switching integral I(rho): first-variation cost of the tangent cut.

    Equals 1/4 int_0^rho q*(g_eta - g_{q eta'} - g_{eta eta'} eta') dq along
    the affine continuation eta(q) = nu(rho) + nu'(rho)(q - rho); computed
    through the exact identity with the arc operator,

        I(rho) = int_0^rho q * sqrt(eta^2-q^2)/(eta^2+alpha)^2 * R(q,eta,eta') dq.

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

    def kern(q):
        e = a * q + b
        return q * np.sqrt(e * e - q * q) / (e * e + alpha) ** 2 * _arc_rhs(q, e, a, alpha)

    return quad_value(kern, 0.0, rho)


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


def find_switch(alpha, nu=None, hint=None, tol=1e-12):
    """Zero of I(., alpha, nu): the switching radius rho.

    Scans upward from small rho for the first sign change (I < 0 below the
    root, > 0 above), then refines with brentq and verifies |I(rho)| < 1e-12.
    """
    alpha = float(alpha)
    if not 0.0 <= alpha < ALPHA_MAX:
        raise NoRoot(_VALIDITY_MSG.format(alpha))
    if nu is None:
        nu = solve_nu(alpha)

    def f(r):
        return I_of(r, alpha, nu)

    lo = hi = None
    if hint is not None and 0.02 < hint < 0.95:
        a0, b0 = max(0.01, hint - 0.05), min(0.985, hint + 0.05)
        fa, fb = f(a0), f(b0)
        if fa < 0.0 < fb:
            lo, hi = a0, b0
    if lo is None:
        grid = np.arange(0.015, 0.985, 0.02)
        fprev = f(grid[0])
        if fprev > 0.0:
            raise NoRoot(f"I already positive at rho={grid[0]:.3f}; no bracket found")
        for qa, qb in zip(grid[:-1], grid[1:]):
            fnext = f(qb)
            if fprev < 0.0 <= fnext:
                lo, hi = qa, qb
                break
            fprev = fnext
        else:
            raise NoRoot(f"switching integral has no sign change on [{grid[0]}, {grid[-1]}]")

    root = brentq(f, lo, hi, xtol=max(tol, 1e-13), rtol=4.0 * np.finfo(float).eps)
    if abs(f(root)) > 1e-12:
        raise NoRoot(f"refined switching point is not a clean zero: I={f(root):.3e}")
    return float(root)


# ---------------------------------------------------------------------------
# assembled profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScaledProfile:
    """Assembled scaled profile: affine on [0, rho], arc on [rho, 1].

    kappa(q) = height0 + slope*q below rho and nu(q) above; by construction
    value and slope match at rho, so kappa is C^1 and convex.
    """
    alpha: float
    rho: float
    nu: object
    slope: float
    height0: float
    q_min: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise DomainError(f"rho out of range: {self.rho}")
        if not 0.0 < self.slope < 1.0:
            raise DomainError(f"switch slope out of range: {self.slope}")
        if self.height0 <= 0.0:
            raise DomainError(f"flat height must be positive: {self.height0}")
        if abs(self.nu(1.0) - 1.0) > 1e-8 or abs(self.nu.derivative(1.0) - 1.0) > 1e-8:
            raise DomainError("arc does not satisfy nu(1) = nu'(1) = 1")
        qs = np.linspace(self.rho, 0.999, 64)
        val, _, second = self.nu.eval(qs)
        if np.any(val - qs <= 0.0) or np.any(second <= 0.0):
            raise DomainError("arc violates nu > q or convexity on [rho, 1)")

    def _split(self, q):
        q = np.asarray(q, float)
        if np.any(q < -1e-12) or np.any(q > 1.0 + 1e-12):
            raise DomainError("kappa evaluated outside [0, 1]")
        return np.clip(q, 0.0, 1.0), q >= self.rho

    def kappa(self, q):
        qc, on_arc = self._split(q)
        out = self.height0 + self.slope * qc
        if np.any(on_arc):
            out = np.where(on_arc, self.nu(np.where(on_arc, qc, 1.0)), out)
        return float(out) if out.ndim == 0 else out

    def kappa_deriv(self, q):
        qc, on_arc = self._split(q)
        out = np.full_like(qc, self.slope)
        if np.any(on_arc):
            out = np.where(on_arc, self.nu.derivative(np.where(on_arc, qc, 1.0)), out)
        return float(out) if out.ndim == 0 else out

    def kappa_second(self, q):
        qc, on_arc = self._split(q)
        out = np.zeros_like(qc)
        if np.any(on_arc):
            out = np.where(on_arc, self.nu.second(np.where(on_arc, qc, 1.0)), out)
        return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=64)
def _assemble_cached(alpha, tol):
    nu = solve_nu(alpha, tol)
    rho = find_switch(alpha, nu)
    value, slope, _ = nu.eval(rho)
    height0 = value - rho * slope
    return ScaledProfile(alpha=alpha, rho=rho, nu=nu, slope=slope, height0=height0)


def assemble_profile(alpha, tol=1e-10):
    """Solve the arc, locate the switching radius, return the C^1 profile."""
    alpha = float(alpha)
    if not 0.0 <= alpha < ALPHA_MAX:
        raise NoRoot(_VALIDITY_MSG.format(alpha))
    return _assemble_cached(alpha, float(tol))


# ---------------------------------------------------------------------------
# optimality certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdjointProfile:
    """Sampled adjoint deficiency omega on [0, rho]; omega(rho)=omega'(rho)=0."""
    samples: np.ndarray  # shape (n, 2): columns (q, omega)

    @property
    def q(self):
        return self.samples[:, 0]

    @property
    def omega(self):
        return self.samples[:, 1]


def adjoint_omega(profile, n=201):
    """Adjoint certificate omega(qt) = 1/4 int_qt^rho (qt-q) G(q) dq.

    G = L_{eta' eta'} * R along the affine continuation; omega(0) = -I(rho),
    and local optimality of the flat cut needs omega < 0 on (0, rho).
    """
    rho = profile.rho
    a = profile.slope
    b = profile.height0
    alpha = profile.alpha

    def kern(q):
        e = a * q + b
        return np.sqrt(e * e - q * q) / (e * e + alpha) ** 2 * _arc_rhs(q, e, a, alpha)

    qt = np.linspace(0.0, rho, int(n))
    om = np.empty_like(qt)
    for i, q0 in enumerate(qt):
        if q0 >= rho:
            om[i] = 0.0
        else:
            om[i] = quad_value(lambda q: (q0 - q) * kern(q), q0, rho)
    return AdjointProfile(np.column_stack([qt, om]))


def variational_coeffs_along(profile):
    """Linearization of the arc equation along the assembled kappa.

    Written in the frame t = q-1, x = kappa - q; the coefficient functions
    take arrays of t and use the cancellation-free forms

        alpha_fn = lam (2x - t x')(2x + t x')/(t x^2) + t g_x,
        beta_fn  = 2 lam (t x' - 2x)/(t x) + g_xdot,

    finite at t=0 with limits -(4/3) lam nu'''/nu'' and
    (2/3) lam nu'''/nu'' + g_xdot(0,0,0), returned at t=0 itself.  Below
    the switching point the same formulas are evaluated along the affine
    branch (kappa is not an arc solution there; that is intentional: the
    check certifies the assembled composite, not the arc alone).  The
    coefficients are only continuous at the switching point t = rho - 1,
    which is declared as a break.
    """
    alpha = profile.alpha
    ivp = scaled_arc_ivp(alpha)
    base = profile.nu.base
    t_arc_min = profile.rho - 1.0
    _, _, xdd0, x3 = nu_derivatives_at_one(alpha)
    a_lim = -(4.0 / 3.0) * LAM * x3 / xdd0
    b_lim = (2.0 / 3.0) * LAM * x3 / xdd0 + ivp.g_xdot(0.0, 0.0, 0.0)

    def state(t):
        on_arc = t >= t_arc_min
        x, xd, _ = base.eval(np.where(on_arc, t, 0.0))
        x_aff = profile.height0 + (profile.slope - 1.0) * (t + 1.0)
        return np.where(on_arc, x, x_aff), np.where(on_arc, xd, profile.slope - 1.0)

    def off_rim(limit, formula):
        """Array coefficient: formula(t, x, x') for t != 0, limit at t = 0."""
        def fn(t):
            t = np.asarray(t, float)
            out = np.full(t.shape, limit)
            off = t != 0.0
            out[off] = formula(t[off], *state(t[off]))
            return out
        return fn

    alpha_fn = off_rim(a_lim, lambda t, x, xd: (
        LAM * (2.0 * x - t * xd) * (2.0 * x + t * xd) / (t * x * x) + t * ivp.g_x(t, x, xd)))
    beta_fn = off_rim(b_lim, lambda t, x, xd: (
        2.0 * LAM * (t * xd - 2.0 * x) / (t * x) + ivp.g_xdot(t, x, xd)))
    return VariationalCoeffs(alpha_fn, beta_fn, lambda t: 0.0, LAM, breaks=(t_arc_min,))


def jacobi_check(profile, eps=1e-3, n_grid=2000):
    """Conjugate-point scan: solve the linearized equation with
    zeta(1)=0, zeta'(1)=1 and report (min |zeta| on [0, 1-eps], zeta).

    The solve is a fixed linear collocation that no tolerance steers.  A
    zero of zeta inside [0, 1) would be a conjugate point and kill local
    optimality; min_abs = 0.0 is returned if a sign change is detected.
    """
    coeffs = variational_coeffs_along(profile)
    y = integrate_variational(coeffs, 1.0, -1.0)
    zeta = MappedSolution(y, offset=-1.0)
    qs = np.linspace(0.0, 1.0 - eps, int(n_grid))
    vals = zeta(qs)
    if np.any(vals[:-1] * vals[1:] < 0.0):
        return 0.0, zeta
    return float(np.min(np.abs(vals))), zeta


def field_jacobian_check(alpha, delta_alpha=None):
    """Sign of the embedding-field Jacobian bracket q*kappa' - kappa + 2*alpha*dkappa/dalpha.

    Constant sign on [0, 1-0.01] means the one-parameter family of profiles
    fans out into a proper field around this member.  Central difference in
    alpha (forward at alpha=0, where the 2*alpha factor kills the term
    anyway).  Raises SignChange if the sign is not constant.
    """
    alpha = float(alpha)
    if not 0.0 <= alpha < ALPHA_MAX:
        raise NoRoot(_VALIDITY_MSG.format(alpha))
    da = delta_alpha if delta_alpha is not None else max(1e-3 * alpha, 1e-5)
    if alpha + da >= ALPHA_MAX:
        da = 0.5 * (ALPHA_MAX - alpha)

    qs = np.linspace(0.0, 0.99, 241)
    prof = assemble_profile(alpha)
    kap = prof.kappa(qs)
    kp = prof.kappa_deriv(qs)
    kap_hi = assemble_profile(alpha + da).kappa(qs)
    if alpha - da >= 0.0:
        kap_lo = assemble_profile(alpha - da).kappa(qs)
        dk = (kap_hi - kap_lo) / (2.0 * da)
    else:
        dk = (kap_hi - kap) / da

    bracket = qs * kp - kap + 2.0 * alpha * dk
    scale = np.max(np.abs(bracket))
    signs = np.sign(bracket[np.abs(bracket) > 1e-12 * scale])
    if signs.size == 0 or np.any(signs != signs[0]):
        raise SignChange(f"field Jacobian bracket changes sign at alpha={alpha}")
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
    """int_0^1 sqrt(q)(1-2q) / ((q^2+alpha)^2 sqrt(1-q)) dq, via q = 1-s^2."""
    alpha = float(alpha)
    if alpha <= 0.0:
        raise DomainError(f"alpha must be positive, got {alpha}")

    def f(s):
        # dq = -2s ds cancels the 1/sqrt(1-q) = 1/s endpoint singularity
        return (2.0 * np.sqrt(1.0 - s * s) * (2.0 * s * s - 1.0)
                / (((1.0 - s * s) ** 2 + alpha) ** 2))

    return quad_value(f, 0.0, 1.0)


def endpoint_weight_closed_form(alpha):
    """Closed form of the endpoint weight; zero exactly at alpha = 1/3."""
    alpha = float(alpha)
    if alpha <= 0.0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    sa = np.sqrt(alpha)
    s1 = np.sqrt(1.0 + alpha)
    return (np.pi * np.sqrt(2.0) / 8.0 * (1.0 - alpha - sa * s1)
            / (alpha ** 1.25 * (1.0 + alpha) ** 1.5 * np.sqrt(sa + s1)))


# ---------------------------------------------------------------------------
# unscaling and top-level solves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtremalSolution:
    """Unscaled solution: curve v(p) on [0, p0], with derived quantities.

    v(p) = p0 * kappa(p / p0); flat on [0, r], arc on [r, p0]; J is the
    value of the reduced functional (the body's resistance is 2*J).
    """
    p0: float
    M: float
    r: float
    slope0: float
    J: float
    profile: ScaledProfile

    def __post_init__(self):
        ps = np.linspace(0.0, self.p0, 33)
        vs = self.v(ps)
        if np.any(vs < ps - 1e-9) or np.any(vs > ps + self.M + 1e-9):
            raise DomainError("curve violates p <= v <= p + M")

    def v(self, p):
        return self.p0 * self.profile.kappa(np.asarray(p, float) / self.p0)

    def v_deriv(self, p):
        return self.profile.kappa_deriv(np.asarray(p, float) / self.p0)

    def v_second(self, p):
        return self.profile.kappa_second(np.asarray(p, float) / self.p0) / self.p0


def unscale(profile, p0):
    """Map a scaled profile to the unscaled frame; requires p0 = 1/sqrt(alpha)."""
    p0 = float(p0)
    if profile.alpha <= 0.0:
        raise InconsistentScale("alpha = 0 profile has no finite p0 (it is the scale-out limit)")
    if abs(p0 - 1.0 / np.sqrt(profile.alpha)) > 1e-12 * p0:
        raise InconsistentScale(
            f"p0={p0!r} inconsistent with alpha={profile.alpha!r} (need p0 = 1/sqrt(alpha))")
    J = profile.alpha * J_scaled(profile)
    return ExtremalSolution(p0=p0, M=p0 * profile.height0, r=p0 * profile.rho,
                            slope0=profile.slope, J=J, profile=profile)


def solve_for_height(M, tol=1e-10):
    """Synthesize the extremal solution with prescribed height M.

    Matches p0 * height0(1/p0^2) = M by bracketed root-finding over p0;
    p0 * height0 is increasing in p0, and height0 is bounded in
    [0.2055, 0.31576] over the validity range, which gives the bracket.
    """
    M = float(M)
    if not M > 0.0:
        raise NoRoot(f"height must be positive, got M={M}")

    last_rho = [None]

    def h(p0):
        alpha = 1.0 / (p0 * p0)
        nu = solve_nu(alpha, tol)
        rho = find_switch(alpha, nu, hint=last_rho[0])
        last_rho[0] = rho
        value, slope, _ = nu.eval(rho)
        return p0 * (value - rho * slope) - M

    lo = max(np.sqrt(3.0) * (1.0 + 1e-6) + 1e-9, M / _H0_HI)
    hi = M / _H0_LO + 1.0
    flo = h(lo)
    if flo >= 0.0:
        raise NoRoot(f"M={M} below the reachable range (min height "
                     f"~ {lo * 0.205:.3f} at the validity edge)")
    fhi = h(hi)
    for _ in range(8):
        if fhi > 0.0:
            break
        hi *= 1.5
        fhi = h(hi)
    else:
        raise NoRoot(f"could not bracket p0 for M={M}")

    p0 = brentq(h, lo, hi, xtol=1e-10, rtol=1e-13)
    profile = assemble_profile(1.0 / (p0 * p0), tol)
    return unscale(profile, p0)


LimitConstants = namedtuple("LimitConstants", ["r_hat", "M_hat", "slope_hat", "J_hat"])


def limit_constants():
    """Scale-out (alpha=0) constants: switching radius, flat height,
    switch slope, and the limit functional value."""
    prof = assemble_profile(0.0)
    return LimitConstants(r_hat=prof.rho, M_hat=prof.height0,
                          slope_hat=prof.slope, J_hat=J_scaled(prof))
