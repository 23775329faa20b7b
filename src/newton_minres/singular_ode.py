"""Second-order IVPs with a movable ``xdd = lam*xd^2/x`` singularity at t=0.

Problems handled here have the form

    x''(t) = lam * x'(t)^2 / x(t) + g(t, x, x'),    x(0) = x'(0) = 0,

with 0 < |lam| < 3/8 and g(0,0,0) != 0.  Classical steppers cannot start at
t=0 because the first term is 0/0 there (the solution leaves the origin like
a parabola, so x'^2/x stays finite).  The strategy:

1. build a small analytic seed on [-tau, tau] by Picard iteration of

       F(x)(t) = int_0^t (t - s) * (lam*x'^2/x + g)(s) ds,

   run in a band of relative half-width eps around the osculating parabola
   x0(t) = xdd0*t^2/2, with xdd0 = g(0,0,0)/(1-2*lam).  The iteration is a
   contraction once eps and tau are small enough; both are shrunk by halving
   until sampled bounds certify a contraction factor rho <= rho_target and
   the band maps into itself;
2. hand the endpoint state to a high-order classical stepper (DOP853) for
   the rest of the interval;
3. rebuild the whole trajectory as one Chebyshev series: x'' at
   Chebyshev-Lobatto nodes (from the seed inside [-tau, tau], from the
   exact right side along the stepper's dense output beyond it), fitted
   once and integrated twice from t=0, so evaluation needs no live
   integrator state and x(0) = x'(0) = 0 hold exactly.

The linearized (variational) equation

    y'' = 4*lam*(t*y' - y)/t^2 + alpha(t)*y/t + beta(t)*y' + sigma(t)

with y(0) = 0 and prescribed y'(0) is linear, so it needs no stepper: the
coefficient 4*lam*(t*y'-y)/t^2 is what the lam*x'^2/x term contributes
after linearization along a seed-built solution.  On each interval where
the coefficients are smooth, y'' at Chebyshev-Lobatto nodes is the
unknown; y' and y are its exact Chebyshev integrals from the piece's inner
end, where they are taken from the data (y(0) = 0, y'(0)) or from the
previous piece at the shared break.  Collocating the equation at the nodes
(y''(0) from the t->0 balance at the origin node) gives one dense linear
system per piece.  The singular term is harmless there: with
y = y'(0)*t + t^2*z it reads z + t*z'.
"""

from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from scipy.integrate import solve_ivp

from .errors import BlowUp, ContractionFailure, DomainError

# Chebyshev-Lobatto points used for the seed (even count: no node at t=0)
N_CHEB = 48
# Chebyshev-Lobatto points for the series across a whole arc (and for
# each smooth piece of a variational solution)
N_ARC = 64
RHO_TARGET_FLOOR = 0.9
PICARD_MAX_ITER = 200
_DOMAIN_SLACK = 1e-11


class SingularIVP:
    """Problem definition for x'' = lam*x'^2/x + g(t, x, x'), x(0)=x'(0)=0.

    g, g_x, g_xdot are callables of (t, x, xdot) that must accept numpy
    arrays (elementwise); a constant may be returned as a scalar.
    g_origin is g(0,0,0).  The partials are only used to size the seed
    interval, so sampled accuracy is enough.
    """

    def __init__(self, lam, g, g_x, g_xdot, g_origin):
        lam = float(lam)
        if not 0.0 < abs(lam) < 0.375:
            raise DomainError(f"need 0 < |lam| < 3/8, got lam={lam}")
        g_origin = float(g_origin)
        if g_origin == 0.0:
            raise DomainError("g(0,0,0) must be nonzero (origin acceleration degenerates)")
        self.lam = lam
        self.g = g
        self.g_x = g_x
        self.g_xdot = g_xdot
        self.g_origin = g_origin


def accel_at_origin(ivp):
    """Initial curvature xdd0 = g(0,0,0) / (1 - 2*lam)."""
    return ivp.g_origin / (1.0 - 2.0 * ivp.lam)


def _call_vec(fn, t, *args):
    """fn on arrays; a constant returned as a scalar is broadcast to t's shape."""
    return np.broadcast_to(np.asarray(fn(t, *args), float), np.shape(t))


# ---------------------------------------------------------------------------
# dense solution container
# ---------------------------------------------------------------------------

class _ChebSegment:
    """Chebyshev series piece: coefficients live on s=(t-mid)/half in [-1,1].

    Stores series for x, x', x'' separately (the first two are exact
    integrals of the third), as the columns of one coefficient array so a
    single Clenshaw pass evaluates all three.
    """

    __slots__ = ("mid", "half", "c", "c3")

    def __init__(self, mid, half, c0, c1, c2):
        self.mid = float(mid)
        self.half = float(half)
        self.c = np.zeros((max(len(c0), len(c1), len(c2)), 3))
        for j, cj in enumerate((c0, c1, c2)):
            self.c[:len(cj), j] = cj
        self.c3 = _cheb.chebder(c2) / self.half

    def eval(self, t):
        """(x, x', x'') stacked along the first axis."""
        return _cheb.chebval((t - self.mid) / self.half, self.c)

    def third(self, t):
        return _cheb.chebval((t - self.mid) / self.half, self.c3)


class DenseSolution:
    """Piecewise-analytic solution: sorted breakpoints + one segment per gap.

    Evaluation outside [breakpoints[0], breakpoints[-1]] raises DomainError.
    `info` carries construction metadata (seed half-width, Picard diff
    history, ...) so convergence claims stay checkable after the fact.
    """

    def __init__(self, breakpoints, segments, info=None):
        bp = np.asarray(breakpoints, float)
        if bp.ndim != 1 or bp.size != len(segments) + 1 or np.any(np.diff(bp) <= 0):
            raise DomainError("breakpoints must be strictly increasing, one segment per gap")
        self.breakpoints = bp
        self.segments = list(segments)
        self.domain = (float(bp[0]), float(bp[-1]))
        self.info = dict(info) if info else {}

    def _on_segments(self, t, method):
        """method(segment, times) with each point on its own segment.

        The leading axes of method's result are kept; the trailing ones
        follow the shape of t.
        """
        lo, hi = self.domain
        slack = _DOMAIN_SLACK * max(1.0, abs(lo), abs(hi))
        t = np.asarray(t, float)
        if np.any(t < lo - slack) or np.any(t > hi + slack):
            raise DomainError(f"evaluation at t outside [{lo}, {hi}]")
        t = np.clip(t, lo, hi)
        if len(self.segments) == 1:
            return method(self.segments[0], t)
        flat = t.ravel()
        idx = np.searchsorted(self.breakpoints[1:-1], flat, side="right")
        out = None
        for k, seg in enumerate(self.segments):
            on = idx == k
            part = method(seg, flat[on])
            if out is None:
                out = np.empty(part.shape[:-1] + flat.shape)
            out[..., on] = part
        return out.reshape(out.shape[:-1] + t.shape)

    def eval(self, t):
        x, xd, xdd = self._on_segments(t, _ChebSegment.eval)
        if np.ndim(t) == 0:
            return float(x), float(xd), float(xdd)
        return x, xd, xdd

    def __call__(self, t):
        return self.eval(t)[0]

    def derivative(self, t):
        return self.eval(t)[1]

    def second(self, t):
        return self.eval(t)[2]

    def third(self, t):
        out = self._on_segments(t, _ChebSegment.third)
        return float(out) if np.ndim(t) == 0 else out

    def to_samples(self, n):
        """(t, x, xdot) on n uniform points across the domain."""
        t = np.linspace(self.domain[0], self.domain[1], int(n))
        x, xd, _ = self.eval(t)
        return t, x, xd


class MappedSolution(DenseSolution):
    """Affine re-parameterization of a base solution.

    value(q) = base(q + offset) + add0 + add1*q, so slope(q) = base' + add1.
    Used to present the arc computed in movable-frame coordinates
    (x = value - q, t = q - q_right) as the profile itself.  The base
    enforces the domain.
    """

    def __init__(self, base, offset, add0=0.0, add1=0.0):
        self.base = base
        self.offset = float(offset)
        self.add0 = float(add0)
        self.add1 = float(add1)
        self.breakpoints = base.breakpoints - self.offset
        self.segments = base.segments
        self.domain = (float(self.breakpoints[0]), float(self.breakpoints[-1]))
        self.info = base.info

    def eval(self, q):
        q = np.asarray(q, float)
        x, xd, xdd = self.base.eval(q + self.offset)
        x = x + self.add0 + self.add1 * q
        xd = xd + self.add1
        if q.ndim == 0:
            return float(x), float(xd), float(xdd)
        return x, xd, xdd

    def third(self, q):
        return self.base.third(np.asarray(q, float) + self.offset)


# ---------------------------------------------------------------------------
# Picard seed
# ---------------------------------------------------------------------------

def _band_norms(ivp, tau, eps, xdd0):
    """Sampled sup of |g_x|, |g_xdot|, |g_t| over the seed band."""
    tt = tau * np.array([-1.0, -0.75, -0.5, -0.25, -0.05, 0.0, 0.05, 0.25, 0.5, 0.75, 1.0])
    scales = np.array([1.0 - eps, 1.0, 1.0 + eps])
    gx = gxd = gt = 0.0
    ht = 1e-6 * max(tau, 1e-3)
    for th_x in scales:
        for th_d in scales:
            x = 0.5 * xdd0 * tt * tt * th_x
            xd = xdd0 * tt * th_d
            gx = max(gx, np.max(np.abs(_call_vec(ivp.g_x, tt, x, xd))))
            gxd = max(gxd, np.max(np.abs(_call_vec(ivp.g_xdot, tt, x, xd))))
            gp = _call_vec(ivp.g, tt + ht, x, xd)
            gm = _call_vec(ivp.g, tt - ht, x, xd)
            gt = max(gt, np.max(np.abs(gp - gm)) / (2.0 * ht))
    return gx, gxd, gt


def picard_seed(ivp, epsilon, tol=1e-10):
    """Analytic seed on [-tau, tau] via contracting Picard iteration.

    Returns (tau, seed) where seed is a DenseSolution whose single segment
    is a Chebyshev series for (x, x', x'').  epsilon is the requested band
    half-width; it is shrunk automatically when the lam-part of the
    contraction bound

        rho(tau, eps) = (8/3)|lam|((1+eps)/(1-eps))^2
                        + (1/2)||g_x|| tau^2 + ||g_xdot|| tau

    leaves no room below the target, and tau is then halved until both
    rho <= rho_target and the self-map bound hold.  Iteration diffs are
    recorded in seed.info['picard_diffs'].
    """
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must be in (0,1), got {epsilon}")
    lam = ivp.lam
    xdd0 = accel_at_origin(ivp)
    base = (8.0 / 3.0) * abs(lam)  # eps -> 0 limit of the lam-term
    rho_target = max(RHO_TARGET_FLOOR, 0.5 * (1.0 + base))
    lam_term = lambda e: base * ((1.0 + e) / (1.0 - e)) ** 2

    eps = float(epsilon)
    # leave half the (rho_target - base) gap for the tau-dependent terms
    while lam_term(eps) > base + 0.5 * (rho_target - base):
        eps *= 0.5
        if eps < 1e-9:
            raise ContractionFailure("cannot make the lam-term contract for this lam")

    tau = 0.5
    ok = False
    for _ in range(60):
        gx, gxd, gt = _band_norms(ivp, tau, eps, xdd0)
        rho = lam_term(eps) + 0.5 * gx * tau * tau + gxd * tau
        # first-iterate drift of xdd away from xdd0: g varies by at most
        # gt*tau + gxd*|xd| + gx*|x| ~ (gt + gxd*|xdd0|)*tau + gx*|xdd0|*tau^2/2
        # over the band, and the contraction then keeps the fixed point within
        # drift/(1-rho); require drift <= (1-rho)*eps*|xdd0|
        a = gt + gxd * abs(xdd0)
        b = 0.5 * gx * abs(xdd0)
        self_map = rho + tau * (a + b * tau) / (eps * abs(xdd0))
        if rho <= rho_target and self_map <= 1.0:
            ok = True
            break
        tau *= 0.5
    if not ok:
        raise ContractionFailure(
            f"no tau gives contraction rho<={rho_target:.3f} with band eps={eps:.2e}")

    # Chebyshev-Lobatto nodes (even count -> none lands exactly on t=0)
    s = np.cos(np.pi * np.arange(N_CHEB) / (N_CHEB - 1))
    t = tau * s
    xdd = np.full(N_CHEB, xdd0)
    diffs = []
    deg = N_CHEB - 1
    converged = False
    for _ in range(PICARD_MAX_ITER):
        c2 = _cheb.chebfit(s, xdd, deg)
        c1 = _cheb.chebint(c2, lbnd=0.0, scl=tau)
        c0 = _cheb.chebint(c1, lbnd=0.0, scl=tau)
        x = _cheb.chebval(s, c0)
        xd = _cheb.chebval(s, c1)
        if np.any(x * np.sign(xdd0) <= 0.0):
            raise ContractionFailure("iterate left the admissible band (x hit 0)")
        new = lam * xd * xd / x + _call_vec(ivp.g, t, x, xd)
        d = float(np.max(np.abs(new - xdd)))
        diffs.append(d)
        xdd = new
        if d < 0.1 * tol:
            converged = True
            break
    if not converged:
        raise ContractionFailure(f"Picard iteration did not reach tol in {PICARD_MAX_ITER} steps")

    band_dev = float(np.max(np.abs(xdd - xdd0))) / abs(xdd0)
    if band_dev > eps * 1.05:
        raise ContractionFailure(
            f"converged iterate leaves the certified band: dev={band_dev:.3e} > eps={eps:.3e}")

    c2 = _cheb.chebfit(s, xdd, deg)
    c1 = _cheb.chebint(c2, lbnd=0.0, scl=tau)
    c0 = _cheb.chebint(c1, lbnd=0.0, scl=tau)
    seg = _ChebSegment(0.0, tau, c0, c1, c2)
    info = {
        "tau": tau,
        "epsilon": eps,
        "epsilon_requested": float(epsilon),
        "rho_target": rho_target,
        "rho_bound": rho,
        "picard_diffs": diffs,
        "band_dev": band_dev,
    }
    seed = DenseSolution([-tau, tau], [seg], info=info)
    return tau, seed


# ---------------------------------------------------------------------------
# full integration
# ---------------------------------------------------------------------------

def integrate(ivp, t_end, tol=1e-10, epsilon=0.1):
    """Solve the singular IVP out to t_end (either sign), t_end != 0.

    Returns a DenseSolution on [t_end, 0] (or [0, t_end]) with a single
    Chebyshev segment.  Raises BlowUp if the trajectory drives x to 0
    before reaching t_end.
    """
    t_end = float(t_end)
    if t_end == 0.0:
        raise DomainError("t_end must be nonzero")
    tau, seed = picard_seed(ivp, epsilon, tol=tol)
    lo, hi = min(t_end, 0.0), max(t_end, 0.0)
    if abs(t_end) <= tau:
        return DenseSolution([lo, hi], seed.segments, info=seed.info)

    d = 1.0 if t_end > 0 else -1.0
    x0, xd0, _ = seed.eval(d * tau)
    sgn = np.sign(accel_at_origin(ivp))

    def fun(t, y):
        return (y[1], ivp.lam * y[1] * y[1] / y[0] + ivp.g(t, y[0], y[1]))

    def hit_zero(t, y):
        return y[0] * sgn

    hit_zero.terminal = True
    res = solve_ivp(fun, (d * tau, t_end), (x0, xd0), method="DOP853",
                    rtol=max(tol, 1e-13), atol=0.01 * tol,
                    events=hit_zero, dense_output=True)
    if res.status == 1:
        raise BlowUp(f"x reached 0 at t={res.t_events[0][0]:.6g} before t_end={t_end}")
    if not res.success:
        raise BlowUp(f"integration failed: {res.message}")

    # x'' at Chebyshev-Lobatto nodes on the whole arc: from the seed inside
    # [-tau, tau] (the node at t=0 is 0/0 for the lam-term) and from the
    # exact RHS along the dense output beyond it.  Only (x, x') are read
    # off the dense output, never differentiated, so its between-step
    # wobble stays at the local-error scale.  Fitting x'' and integrating
    # twice from t=0 keeps x(0) = x'(0) = 0 exact.  With N_ARC nodes the
    # trailing x'' coefficients of the family's arcs stay below 3e-10 for
    # all alpha < 1/3 (below 3e-11 up to alpha = 0.3).
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    s = np.cos(np.pi * np.arange(N_ARC) / (N_ARC - 1))
    t = mid + half * s
    inner = np.abs(t) <= tau
    xdd = np.empty(N_ARC)
    xdd[inner] = seed.second(t[inner])
    xs, xds = res.sol(t[~inner])
    xdd[~inner] = ivp.lam * xds * xds / xs + _call_vec(ivp.g, t[~inner], xs, xds)
    s0 = -mid / half  # t = 0 in s, an endpoint
    c2 = _cheb.chebfit(s, xdd, N_ARC - 1)
    c1 = _cheb.chebint(c2, lbnd=s0, scl=half)
    c0 = _cheb.chebint(c1, lbnd=s0, scl=half)
    return DenseSolution([lo, hi], [_ChebSegment(mid, half, c0, c1, c2)], info=seed.info)


# ---------------------------------------------------------------------------
# variational (linearized) equation
# ---------------------------------------------------------------------------

class VariationalCoeffs:
    """Coefficients of y'' = 4*lam*(t*y'-y)/t^2 + alpha(t)*y/t + beta(t)*y' + sigma(t).

    alpha_fn/beta_fn/sigma_fn are callables of t that must accept numpy
    arrays (elementwise; a constant may be returned as a scalar) and be
    finite at t=0 (stabilized forms); lam must lie in (-1/2, 0) so the
    singular indicial mode decays outward.  `breaks` lists the points where
    the coefficients are continuous but not smooth; the solution gets one
    Chebyshev series per smooth interval between them.
    """

    def __init__(self, alpha_fn, beta_fn, sigma_fn, lam, breaks=()):
        lam = float(lam)
        if not -0.5 < lam < 0.0:
            raise DomainError(f"need -1/2 < lam < 0, got {lam}")
        self.alpha_fn = alpha_fn
        self.beta_fn = beta_fn
        self.sigma_fn = sigma_fn
        self.lam = lam
        self.breaks = tuple(float(b) for b in breaks)


def variational_accel_at_origin(coeffs, ydot0):
    """y''(0) from the t->0 balance of the variational equation."""
    a0, b0, s0 = (float(fn(0.0)) for fn in (coeffs.alpha_fn, coeffs.beta_fn, coeffs.sigma_fn))
    return ((a0 + b0) * ydot0 + s0) / (1.0 - 2.0 * coeffs.lam)


@lru_cache(maxsize=2)
def _lobatto_integrals(d):
    """Lobatto nodes s and the matrices taking values there to their
    interpolant's coefficients (fit) and to its exact first and second
    integrals from s = -d, read at the nodes (int1, int2)."""
    s = np.cos(np.pi * np.arange(N_ARC) / (N_ARC - 1))
    fit = np.linalg.inv(_cheb.chebvander(s, N_ARC - 1))
    c1 = _cheb.chebint(fit, lbnd=-d)
    c2 = _cheb.chebint(c1, lbnd=-d)
    return s, fit, _cheb.chebvander(s, N_ARC) @ c1, _cheb.chebvander(s, N_ARC + 1) @ c2


def integrate_variational(coeffs, ydot0, t_end):
    """Solve the variational equation with y(0)=0, y'(0)=ydot0 out to t_end.

    One linear collocation solve for y'' at the N_ARC Lobatto nodes of each
    smooth interval (0, the coefficient breaks and t_end delimit them);
    returns a DenseSolution of one Chebyshev series per interval.
    """
    t_end = float(t_end)
    if t_end == 0.0:
        raise DomainError("t_end must be nonzero")
    ydd0 = variational_accel_at_origin(coeffs, ydot0)
    d = 1.0 if t_end > 0 else -1.0
    s, fit, int1, int2 = _lobatto_integrals(d)
    ends = [0.0, *sorted({b for b in coeffs.breaks if 0.0 < d * b < d * t_end}, key=abs), t_end]
    y_in, yd_in = 0.0, float(ydot0)
    segs = []
    for t_in, t_out in zip(ends[:-1], ends[1:]):
        mid, half = 0.5 * (t_in + t_out), 0.5 * abs(t_out - t_in)
        t = mid + half * s
        a, b, sig = (_call_vec(fn, t) for fn in (coeffs.alpha_fn, coeffs.beta_fn, coeffs.sigma_fn))
        at0 = t == 0.0  # the origin node of the first piece takes u = ydd0
        tc, ac, bc = np.where(at0, 1.0, t)[:, None], a[:, None], b[:, None]

        def linear(y, yd):  # the right side without sigma, row by row
            return 4.0 * coeffs.lam * (tc * yd - y) / (tc * tc) + ac * y / tc + bc * yd

        # for u = y'' at the nodes: y = y0 + Y @ u and y' = yd_in + Yd @ u
        y0 = y_in + yd_in * (t - t_in)
        Y, Yd = half * half * int2, half * int1
        A = np.eye(N_ARC) - linear(Y, Yd)
        rhs = linear(y0[:, None], yd_in)[:, 0] + sig
        A[at0] = np.eye(N_ARC)[at0]
        rhs[at0] = ydd0
        c2 = fit @ np.linalg.solve(A, rhs)
        c1 = _cheb.chebint(c2, k=yd_in, lbnd=-d, scl=half)  # s = -d at t_in
        c0 = _cheb.chebint(c1, k=y_in, lbnd=-d, scl=half)
        seg = _ChebSegment(mid, half, c0, c1, c2)
        y_in, yd_in, _ = seg.eval(t_out)
        segs.append(seg)
    if d < 0:
        segs.reverse()
    return DenseSolution(sorted(ends), segs, info={"ydd0": ydd0})
