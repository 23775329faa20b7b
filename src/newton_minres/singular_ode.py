"""Second-order IVPs with a movable ``xdd = lam*xd^2/x`` singularity at t=0.

Problems handled here have the form

    x''(t) = lam * x'(t)^2 / x(t) + g(t, x, x'),    x(0) = x'(0) = 0,

with 0 < |lam| < 3/8 and g(0,0,0) != 0.  Classical steppers cannot start at
t=0 because the first term is 0/0 there (the solution leaves the origin like
a parabola, so x'^2/x stays finite).  The strategy:

1. solve for x'' at the Chebyshev-Lobatto nodes of the whole interval by
   Newton collocation: x and x' at the nodes are two fixed matrix products
   with it (the exact integrals of its interpolant from t=0, so x(0) =
   x'(0) = 0 hold exactly), the origin node takes x'' = xdd0 =
   g(0,0,0)/(1-2*lam), and every other node the equation itself.  Newton
   starts from the osculating parabola x0(t) = xdd0*t^2/2, and the result
   is one Chebyshev series for (x, x', x''), checked by its residual on an
   oversampled grid and its trailing coefficients;
2. cross-check it near the origin against a small analytic seed on
   [-tau, tau], built independently by Picard iteration of

       F(x)(t) = int_0^t (t - s) * (lam*x'^2/x + g)(s) ds

   in a band of relative half-width eps around x0, with the same two
   matrix products on the N_ARC Lobatto nodes of [-tau, tau].  The
   iteration is a contraction once eps and tau are small enough: eps is
   halved until the lam-part of the bound leaves room, then tau is the
   largest of 0.5*2^-k, k = 0..59, whose sampled bounds certify a
   contraction factor rho <= rho_target and a band that maps into itself.
   The seed only checks: the arc, however short, must agree with it and
   stay in its band on [-h, h], h = tau, or |t_end|/2 on an arc no longer
   than tau, whose residual is then checked on [h, |t_end|].

Every fit here is a fixed linear map on node values: `_lobatto_integrals`
builds, once per node count and anchor, the inverse Chebyshev Vandermonde
matrix (values to coefficients) and the exact first and second integral
matrices, and the seed, the arc collocation and the variational solve
share it.

The linearized (variational) equation

    y'' = 4*lam*(t*y' - y)/t^2 + alpha(t)*y/t + beta(t)*y' + sigma(t)

with y(0) = 0 and prescribed y'(0) is linear, so it needs no stepper: the
coefficient 4*lam*(t*y'-y)/t^2 is what the lam*x'^2/x term contributes
after linearization along a solved arc.  On each interval where
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

from .errors import BlowUp, ContractionFailure, DomainError

# Chebyshev-Lobatto points for the series across a whole arc, for the
# seed on [-tau, tau] and for each smooth piece of a variational solution;
# even, so that no seed node lands on t=0
N_ARC = 64
RHO_TARGET_FLOOR = 0.9
PICARD_MAX_ITER = 200
# the seed's starting band half-width, halved until the lam-term contracts
PICARD_BAND = 0.1
PICARD_STOP = 0.1 * 1e-10
NEWTON_MAX_ITER = 30
# the arc's Newton stops at max|du| <= NEWTON_STEP_FLOOR*max|u|, a round-off
# floor: at alpha = 0 the increments stall near 1e-15
NEWTON_STEP_FLOOR = 1e-13
# the arc series' residual and its last ARC_TAIL x'' coefficients, relative
# to max|x''|: about 1e-10 on the family's arcs, 2e-8 at alpha = 0.4
ARC_BUDGET = 1e-6
ARC_TAIL = 4
_DOMAIN_SLACK = 1e-11


def solve_ivp(*args, **kwargs):
    """Placeholder that nothing here calls: perfbench/spans.py wraps this
    module binding by name until the bench reads the stats record of
    ROADMAP item 1b, which deletes it."""
    raise NotImplementedError("singular_ode integrates by collocation; it has no stepper")


class SingularIVP:
    """Problem definition for x'' = lam*x'^2/x + g(t, x, x'), x(0)=x'(0)=0.

    g, g_x, g_xdot are callables of (t, x, xdot) that must accept numpy
    arrays (elementwise); a constant may be returned as a scalar.
    g_origin is g(0,0,0).  The partials size the seed interval and make
    the Jacobian of the arc's Newton collocation, so they should be
    exact: a wrong partial slows or stalls Newton (BlowUp); the arc's residual
    check, which reads only g, decides whether the result is kept.
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

    Built from the x'' coefficients c2: x' and x are their exact integrals
    from s = anchor, where they take the values xd0 and x0.  The three
    series are the columns of one coefficient array, so a single Clenshaw
    pass evaluates all three; x''' is differentiated only when read.
    """

    __slots__ = ("mid", "half", "c")

    def __init__(self, mid, half, c2, anchor, x0=0.0, xd0=0.0):
        self.mid = float(mid)
        self.half = float(half)
        c1 = _cheb.chebint(c2, k=xd0, lbnd=anchor, scl=self.half)
        c0 = _cheb.chebint(c1, k=x0, lbnd=anchor, scl=self.half)
        self.c = np.zeros((len(c0), 3))
        for j, cj in enumerate((c0, c1, c2)):
            self.c[:len(cj), j] = cj

    def eval(self, t):
        """(x, x', x'') stacked along the first axis."""
        return _cheb.chebval((t - self.mid) / self.half, self.c)

    def third(self, t):
        xddd = _cheb.chebder(self.c[:, 2]) / self.half
        return _cheb.chebval((t - self.mid) / self.half, xddd)


class DenseSolution:
    """Piecewise-analytic solution: sorted breakpoints + one segment per gap.

    eval(t) is the one reader: it returns (x, x', x'') and raises
    DomainError outside [breakpoints[0], breakpoints[-1]].
    `info` carries construction metadata (seed half-width, Picard diff
    history, ...) so convergence claims stay checkable after the fact.
    """

    def __init__(self, breakpoints, segments, info=None):
        bp = np.asarray(breakpoints, float)
        if (bp.ndim != 1 or bp.size != len(segments) + 1
                or not (np.all(np.isfinite(bp)) and np.all(np.diff(bp) > 0))):
            raise DomainError("breakpoints must be finite and strictly increasing, "
                              "one segment per gap")
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
        if not np.all((t >= lo - slack) & (t <= hi + slack)):
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

    def third(self, t):
        out = self._on_segments(t, _ChebSegment.third)
        return float(out) if np.ndim(t) == 0 else out


class MappedSolution:
    """Affine re-parameterization of a base solution: the one frame view.

    value(q) = base(q + offset) + add1*q, so slope(q) = base' + add1.
    Presents the arc computed in movable-frame coordinates (x = value - q,
    t = q - 1) as nu itself, and the Jacobi field y(t) as zeta(q).  A plain
    view: it reads through base.eval and base.third, and the base enforces
    the domain.
    """

    def __init__(self, base, offset, add1=0.0):
        self.base = base
        self.offset = float(offset)
        self.add1 = float(add1)

    def eval(self, q):
        q = np.asarray(q, float)
        x, xd, xdd = self.base.eval(q + self.offset)
        x = x + self.add1 * q
        xd = xd + self.add1
        if q.ndim == 0:
            return float(x), float(xd), float(xdd)
        return x, xd, xdd

    def third(self, q):
        return self.base.third(np.asarray(q, float) + self.offset)


@lru_cache(maxsize=None)
def _lobatto_integrals(n, anchor):
    """The n Chebyshev-Lobatto nodes s of [-1, 1] and three fixed maps on
    values there: to their interpolant's Chebyshev coefficients (fit, the
    inverse Vandermonde matrix), and to its exact first and second
    integrals from s = anchor, read at the nodes (int1, int2).

    Built on first use, for (N_ARC, 0) and (N_ARC, -1 or 1).  Row 0 of int1
    at anchor -1 is the Clenshaw-Curtis rule on [-1, 1].
    """
    s = np.cos(np.pi * np.arange(n) / (n - 1))
    fit = np.linalg.inv(_cheb.chebvander(s, n - 1))
    c1 = _cheb.chebint(fit, lbnd=anchor)
    c2 = _cheb.chebint(c1, lbnd=anchor)
    return s, fit, _cheb.chebvander(s, n) @ c1, _cheb.chebvander(s, n + 1) @ c2


# ---------------------------------------------------------------------------
# Picard seed
# ---------------------------------------------------------------------------

def _band_norms(ivp, taus, eps, xdd0):
    """Sampled sup of |g_x|, |g_xdot|, |g_t| over the seed band for each tau
    of the 1-D array taus, from one (tau, x scale, x' scale, time) grid."""
    tau = taus[:, None, None, None]
    tt = tau * np.array([-1.0, -0.75, -0.5, -0.25, -0.05, 0.0, 0.05, 0.25, 0.5, 0.75, 1.0])
    scales = np.array([1.0 - eps, 1.0, 1.0 + eps])
    x = 0.5 * xdd0 * tt * tt * scales[:, None, None]
    xd = xdd0 * tt * scales[:, None]
    tt, x, xd = np.broadcast_arrays(tt, x, xd)
    ht = 1e-6 * np.maximum(tau, 1e-3)
    gp = _call_vec(ivp.g, tt + ht, x, xd)
    gm = _call_vec(ivp.g, tt - ht, x, xd)
    sup = lambda v: np.max(np.abs(v), axis=(1, 2, 3))
    return (sup(_call_vec(ivp.g_x, tt, x, xd)), sup(_call_vec(ivp.g_xdot, tt, x, xd)),
            sup(gp - gm) / (2.0 * ht[:, 0, 0, 0]))


def picard_seed(ivp):
    """Analytic seed on [-tau, tau] via contracting Picard iteration.

    Returns (tau, seed) where seed is a DenseSolution whose single segment
    is a Chebyshev series for (x, x', x'').  The band half-width eps starts
    at PICARD_BAND and is halved while the lam-part of the contraction bound

        rho(tau, eps) = (8/3)|lam|((1+eps)/(1-eps))^2
                        + (1/2)||g_x|| tau^2 + ||g_xdot|| tau

    leaves no room below the target; the band used is seed.info['epsilon'].
    tau is then the largest of 0.5*2^-k, k = 0..59, for which both
    rho <= rho_target and the self-map bound hold; the band norms of all
    60 candidates are sampled in one pass.  Each iteration maps x'' at the
    N_ARC Lobatto nodes of [-tau, tau] (the arc's count) to x and x' there
    with the fixed integral matrices of `_lobatto_integrals`, and the seed
    series is the fit of the last iterate, integrated twice from t=0.  The
    iteration stops at the first step that moves x'' by less than
    PICARD_STOP at every node; the diffs are in seed.info['picard_diffs'].
    """
    lam = ivp.lam
    xdd0 = accel_at_origin(ivp)
    base = (8.0 / 3.0) * abs(lam)  # eps -> 0 limit of the lam-term
    rho_target = max(RHO_TARGET_FLOOR, 0.5 * (1.0 + base))
    lam_term = lambda e: base * ((1.0 + e) / (1.0 - e)) ** 2

    eps = PICARD_BAND
    # leave half the (rho_target - base) gap for the tau-dependent terms
    while lam_term(eps) > base + 0.5 * (rho_target - base):
        eps *= 0.5
        if eps < 1e-9:
            raise ContractionFailure("cannot make the lam-term contract for this lam")

    taus = np.ldexp(0.5, -np.arange(60))  # 0.5, 0.25, ..., 2^-60
    gx, gxd, gt = _band_norms(ivp, taus, eps, xdd0)
    rho = lam_term(eps) + 0.5 * gx * taus * taus + gxd * taus
    # first-iterate drift of xdd away from xdd0: g varies by at most
    # gt*tau + gxd*|xd| + gx*|x| ~ (gt + gxd*|xdd0|)*tau + gx*|xdd0|*tau^2/2
    # over the band, and the contraction then keeps the fixed point within
    # drift/(1-rho); require drift <= (1-rho)*eps*|xdd0|
    a = gt + gxd * abs(xdd0)
    b = 0.5 * gx * abs(xdd0)
    self_map = rho + taus * (a + b * taus) / (eps * abs(xdd0))
    ok = np.flatnonzero((rho <= rho_target) & (self_map <= 1.0))
    if ok.size == 0:
        raise ContractionFailure(
            f"no tau gives contraction rho<={rho_target:.3f} with band eps={eps:.2e}")
    tau, rho = float(taus[ok[0]]), float(rho[ok[0]])

    s, fit, int1, int2 = _lobatto_integrals(N_ARC, 0.0)
    t = tau * s
    X, Xd = tau * tau * int2, tau * int1

    xdd = np.full(N_ARC, xdd0)
    diffs = []
    for _ in range(PICARD_MAX_ITER):
        x = X @ xdd
        xd = Xd @ xdd
        if np.any(x * np.sign(xdd0) <= 0.0):
            raise ContractionFailure("iterate left the admissible band (x hit 0)")
        new = lam * xd * xd / x + _call_vec(ivp.g, t, x, xd)
        d = float(np.max(np.abs(new - xdd)))
        diffs.append(d)
        xdd = new
        if d < PICARD_STOP:
            break
    else:
        raise ContractionFailure(
            f"Picard iteration did not reach PICARD_STOP in {PICARD_MAX_ITER} steps")

    band_dev = float(np.max(np.abs(xdd - xdd0))) / abs(xdd0)
    if band_dev > eps * 1.05:
        raise ContractionFailure(
            f"converged iterate leaves the certified band: dev={band_dev:.3e} > eps={eps:.3e}")

    seg = _ChebSegment(0.0, tau, fit @ xdd, 0.0)
    info = {
        "tau": tau,
        "epsilon": eps,
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

def _collocation_matrix(r0, r1, X, Xd):
    """I - diag(r0) @ X - diag(r1) @ Xd: the integral-form collocation
    operator of a linear equation u = r0*y + r1*y' + (data) for u = y'' at
    the nodes, with y = X @ u and y' = Xd @ u plus their initial data.  A
    row with r0 = r1 = 0 is an identity row: it pins u at that node."""
    return np.eye(len(r0)) - r0[:, None] * X - r1[:, None] * Xd


def _arc_system(ivp, t, X, Xd, xdd0, u):
    """Newton residual F(u) and Jacobian of the arc collocation at nodes t:
    u = xdd0 at the origin node and u = lam*x'^2/x + g(t, x, x') at the
    others, where x must keep the sign of xdd0."""
    rest = t != 0.0
    t, x, xd = t[rest], (X @ u)[rest], (Xd @ u)[rest]
    bad = x * np.sign(xdd0) <= 0.0
    if np.any(bad):
        raise BlowUp(f"x reached 0 at t={t[bad][np.argmin(np.abs(t[bad]))]:.6g} "
                     f"on the arc's Newton iterate")
    q = xd / x
    F = u - xdd0
    F[rest] = u[rest] - ivp.lam * xd * q - _call_vec(ivp.g, t, x, xd)
    r0, r1 = np.zeros_like(u), np.zeros_like(u)
    r0[rest] = _call_vec(ivp.g_x, t, x, xd) - ivp.lam * q * q
    r1[rest] = _call_vec(ivp.g_xdot, t, x, xd) + 2.0 * ivp.lam * q
    return F, _collocation_matrix(r0, r1, X, Xd)


def integrate(ivp, t_end):
    """Solve the singular IVP out to a finite t_end (either sign), t_end != 0.

    Returns a DenseSolution on [t_end, 0] (or [0, t_end]) with a single
    Chebyshev segment, solved by Newton collocation (module docstring, step
    1) to the round-off floor NEWTON_STEP_FLOOR, so no tolerance steers it.
    The Picard seed (band PICARD_BAND, stop PICARD_STOP) cross-checks the
    arc on [-h, h], h = tau, or |t_end|/2 when |t_end| <= tau, so that the
    residual keeps the interval [h, |t_end|].

    Raises BlowUp if an iterate has x*sign(xdd0) <= 0 off the origin, if
    Newton takes more than NEWTON_MAX_ITER steps, if the residual beyond
    the seed or the last ARC_TAIL x'' coefficients exceed
    ARC_BUDGET*max|x''|, or if the arc's x'' leaves the seed's certified
    band or differs from the seed's by more than ARC_BUDGET*|xdd0|.  info
    adds newton_iters, residual (the max on 2*N_ARC points in [h, |t_end|])
    and radius_estimate = ||F||*||J^-1|| (max norm, last iterate), a
    Kantorovich-style size of the correction left, not a proof.
    """
    t_end = float(t_end)
    if not np.isfinite(t_end) or t_end == 0.0:
        raise DomainError(f"t_end must be finite and nonzero, got {t_end}")
    tau, seed = picard_seed(ivp)
    lo, hi = min(t_end, 0.0), max(t_end, 0.0)
    d = 1.0 if t_end > 0 else -1.0
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    s0 = -d  # t = 0 in s, an endpoint
    s, fit, int1, int2 = _lobatto_integrals(N_ARC, s0)
    t = mid + half * s
    X, Xd = half * half * int2, half * int1
    xdd0 = accel_at_origin(ivp)

    u = np.full(N_ARC, xdd0)  # the osculating parabola
    for k in range(1, NEWTON_MAX_ITER + 1):
        F, J = _arc_system(ivp, t, X, Xd, xdd0, u)
        try:
            du = np.linalg.solve(J, F)
        except np.linalg.LinAlgError as exc:
            raise BlowUp(f"arc Newton step failed: {exc}") from exc
        u = u - du
        if np.max(np.abs(du)) <= NEWTON_STEP_FLOOR * np.max(np.abs(u)):
            break
    else:
        raise BlowUp(f"arc Newton collocation did not converge in {NEWTON_MAX_ITER} steps")
    F, J = _arc_system(ivp, t, X, Xd, xdd0, u)
    radius = float(np.max(np.abs(F)) * np.linalg.norm(np.linalg.inv(J), np.inf))

    c2 = fit @ u
    seg = _ChebSegment(mid, half, c2, s0)

    scale = np.max(np.abs(u))
    tail = np.max(np.abs(c2[-ARC_TAIL:]))
    # the residual beyond the seed, where x'^2/x is well conditioned, and
    # the seed check on [-h, h], from one read; an arc no longer than tau
    # is split between the two at its middle
    dh = d * (tau if abs(t_end) > tau else 0.5 * abs(t_end))
    tr = np.linspace(dh, t_end, 2 * N_ARC)
    ts = dh * np.linspace(0.0, 1.0, 9)
    jet = seg.eval(np.concatenate([tr, ts]))
    x, xd, xdd = jet[:, :tr.size]
    if np.any(x * np.sign(xdd0) <= 0.0):
        raise BlowUp("the arc series reaches x = 0 between its nodes")
    residual = float(np.max(np.abs(xdd - ivp.lam * xd * xd / x - _call_vec(ivp.g, tr, x, xd))))
    if not (residual <= ARC_BUDGET * scale and tail <= ARC_BUDGET * scale):  # NaN fails
        raise BlowUp(f"arc series misses its budget: residual {residual:.2e}, "
                     f"tail {tail:.2e}, max|x''| {scale:.3g}")
    # the seed, an independent solve, bounds the arc on [-h, h]
    xdd = jet[2, tr.size:]
    gap = np.max(np.abs(xdd - seed.eval(ts)[2]))
    dev = np.max(np.abs(xdd - xdd0))
    if not (gap <= ARC_BUDGET * abs(xdd0) and dev <= 1.05 * seed.info["epsilon"] * abs(xdd0)):
        raise BlowUp(f"arc disagrees with the Picard seed near t=0: "
                     f"|x'' - seed| {gap:.2e}, |x'' - xdd0| {dev:.2e}")
    info = dict(seed.info, newton_iters=k, residual=residual, radius_estimate=radius)
    return DenseSolution([lo, hi], [seg], info=info)


# ---------------------------------------------------------------------------
# variational (linearized) equation
# ---------------------------------------------------------------------------

class VariationalCoeffs:
    """Coefficients of y'' = 4*lam*(t*y'-y)/t^2 + alpha(t)*y/t + beta(t)*y' + sigma(t).

    fn(t) returns (alpha, beta, sigma) at t: it must accept numpy arrays
    (elementwise; a constant may be returned as a scalar) and be finite at
    t=0 (stabilized forms); lam must lie in (-1/2, 0) so the singular
    indicial mode decays outward.  `breaks` lists the points where the
    coefficients are continuous but not smooth; the solution gets one
    Chebyshev series per smooth interval between them.
    """

    def __init__(self, fn, lam, breaks=()):
        lam = float(lam)
        if not -0.5 < lam < 0.0:
            raise DomainError(f"need -1/2 < lam < 0, got {lam}")
        self.fn = fn
        self.lam = lam
        self.breaks = tuple(float(b) for b in breaks)


def variational_accel_at_origin(coeffs, ydot0):
    """y''(0) from the t->0 balance of the variational equation, from one
    call of coeffs.fn at t = 0."""
    a0, b0, s0 = (float(c) for c in coeffs.fn(0.0))
    return ((a0 + b0) * ydot0 + s0) / (1.0 - 2.0 * coeffs.lam)


def integrate_variational(coeffs, ydot0, t_end):
    """Solve the variational equation with y(0)=0, y'(0)=ydot0 out to a
    finite t_end != 0.

    One linear collocation solve for y'' at the N_ARC Lobatto nodes of each
    smooth interval (0, the coefficient breaks and t_end delimit them);
    returns a DenseSolution of one Chebyshev series per interval.
    """
    t_end = float(t_end)
    if not np.isfinite(t_end) or t_end == 0.0:
        raise DomainError(f"t_end must be finite and nonzero, got {t_end}")
    ydd0 = variational_accel_at_origin(coeffs, ydot0)
    d = 1.0 if t_end > 0 else -1.0
    s, fit, int1, int2 = _lobatto_integrals(N_ARC, -d)
    ends = [0.0, *sorted({b for b in coeffs.breaks if 0.0 < d * b < d * t_end}, key=abs), t_end]
    y_in, yd_in = 0.0, float(ydot0)
    segs = []
    for t_in, t_out in zip(ends[:-1], ends[1:]):
        mid, half = 0.5 * (t_in + t_out), 0.5 * abs(t_out - t_in)
        t = mid + half * s
        a, b, sig = np.broadcast_arrays(t, *coeffs.fn(t))[1:]
        # the right side without sigma is r0*y + r1*y'; the origin node of
        # the first piece takes u = ydd0 (r0 = r1 = 0 there)
        live = t != 0.0
        tc = np.where(live, t, 1.0)
        r0 = np.where(live, a / tc - 4.0 * coeffs.lam / (tc * tc), 0.0)
        r1 = np.where(live, 4.0 * coeffs.lam / tc + b, 0.0)
        # for u = y'' at the nodes: y = y0 + half^2*int2 @ u, y' = yd_in + half*int1 @ u
        y0 = y_in + yd_in * (t - t_in)
        A = _collocation_matrix(r0, r1, half * half * int2, half * int1)
        rhs = np.where(live, r0 * y0 + r1 * yd_in + sig, ydd0)
        # y and y' start from y_in and yd_in at t_in, where s = -d
        seg = _ChebSegment(mid, half, fit @ np.linalg.solve(A, rhs), -d, y_in, yd_in)
        y_in, yd_in, _ = seg.eval(t_out)
        segs.append(seg)
    if d < 0:
        segs.reverse()
    return DenseSolution(sorted(ends), segs, info={"ydd0": ydd0})
