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
   contraction factor rho <= rho_target and a band that maps into itself
   (k = 0..15 are sampled first, the rest only if none of them passes).
   The iteration starts from the Taylor jet x'' = xdd0 + b*t, b from the
   equation's t-balance at the origin, and stops once the contraction
   bound d*rho/(1-rho) on the distance to the fixed point, d the last
   step, is within 1e-2 of the arc's agreement budget.  The seed only
   checks: the arc, however short, must agree with it and stay in its band
   on [-h, h], h = tau, or |t_end|/2 on an arc no longer than tau, whose
   residual is then checked on [h, |t_end|].

Every fit here is a fixed linear map on node values: `_lobatto_integrals`
builds, once per node count and anchor, the DCT-I matrix (values to
coefficients) and the exact first and second integral matrices, and the
seed, the arc collocation and the variational solve share it.  Every
solved series is read the same way: `_segment_maps` builds, once per
coefficient count and anchor, the maps from x'' coefficients to
(x, x', x'') at a few more Lobatto nodes, and each read is one
barycentric interpolation of those node values.  Both are closed-form
products: the Chebyshev polynomials at Lobatto nodes are sines of
multiples of pi/(4(m-1)), read from one table, and one banded map per
anchor integrates coefficients.

The linearized (variational) equation

    y'' = r0(t)*y + r1(t)*y' + sigma(t),    y(0) = 0, y'(0) and y''(0) given,

is linear, so it needs no stepper.  Along a solved curve, (r0, r1) are
`linearized`'s partials of lam*x'^2/x + g, the ones the arc's Newton step
reads; they grow like 1/t^2 and 1/t at the origin, so the caller supplies
y''(0), the t->0 balance of its equation, and the coefficients are read
only off the origin.  On each interval where the coefficients are smooth,
y'' at Chebyshev-Lobatto nodes is the unknown; y' and y are its exact
Chebyshev integrals from the piece's inner end, where they are taken from
the data (y(0) = 0, y'(0)) or from the previous piece at the shared break.
Collocating the equation at the nodes (y''(0) at the origin node) gives
one dense linear system per piece.  The singular part is harmless there:
near t = 0 it is 4*lam*(t*y' - y)/t^2, and with y = y'(0)*t + t^2*z it
reads 4*lam*(z + t*z').
"""

from functools import lru_cache

import numpy as np

from .errors import BlowUp, ContractionFailure, DomainError

# Chebyshev-Lobatto points for the series across a whole arc, for the
# seed on [-tau, tau] and for each smooth piece of a variational solution;
# even, so that no seed node lands on t=0
N_ARC = 64
RHO_TARGET_FLOOR = 0.9
PICARD_MAX_ITER = 200
# the seed's starting band half-width, halved until the lam-term contracts
PICARD_BAND = 0.1
NEWTON_MAX_ITER = 30
# the arc's Newton stops at max|du| <= NEWTON_STEP_FLOOR*max|u|, a round-off
# floor: at alpha = 0 the increments stall near 1e-15
NEWTON_STEP_FLOOR = 1e-13
# the arc series' residual and its last ARC_TAIL x'' coefficients, relative
# to max|x''|: about 1e-10 on the family's arcs, 2e-8 at alpha = 0.4
ARC_BUDGET = 1e-6
ARC_TAIL = 4
_DOMAIN_SLACK = 1e-11
# points per block of a barycentric read (see _barycentric)
_BARY_ROWS = 512


def solve_ivp(*args, **kwargs):
    """Placeholder that nothing here calls: perfbench/spans.py wraps this
    module binding by name until the bench reads a stats record instead."""
    raise NotImplementedError("singular_ode integrates by collocation; it has no stepper")


class SingularIVP:
    """Problem definition for x'' = lam*x'^2/x + g(t, x, x'), x(0)=x'(0)=0.

    g, g_x, g_xdot are callables of (t, x, xdot) that must accept numpy
    arrays (elementwise); a constant may be returned as a scalar, which
    numpy broadcasting carries through every use.
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
        if not 0.0 < abs(g_origin) < np.inf:
            raise DomainError(f"g(0,0,0) must be finite and nonzero, got {g_origin}")
        self.lam = lam
        self.g = g
        self.g_x = g_x
        self.g_xdot = g_xdot
        self.g_origin = g_origin


def accel_at_origin(ivp):
    """Initial curvature xdd0 = g(0,0,0) / (1 - 2*lam)."""
    return ivp.g_origin / (1.0 - 2.0 * ivp.lam)


# ---------------------------------------------------------------------------
# dense solution container
# ---------------------------------------------------------------------------

def _lobatto_weights(n):
    """Barycentric weights of the n Chebyshev-Lobatto nodes, ordered from
    s = 1 down to s = -1: (-1)^k, halved at both ends."""
    w = np.ones(n)
    w[1::2] = -1.0
    w[[0, -1]] *= 0.5
    return w


def _barycentric(x, nodes, w, vals):
    """Rows of the Lobatto interpolant of vals' columns at the 1-D points x,
    by the second-kind barycentric formula (Berrut and Trefethen 2004).

    vals holds one row per node and a last column of ones, so that one
    matmul sums the numerators and the denominator; a point on a node
    reads that node's row.  Points go _BARY_ROWS at a time, so that each
    block's matmul stays below the size at which BLAS starts threads (an
    8193-point read then took more CPU time and memory than Clenshaw sums).
    """
    out = np.empty((len(x), vals.shape[1] - 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(0, len(x), _BARY_ROWS):
            k = x[i:i + _BARY_ROWS, None] - nodes
            np.divide(w, k, out=k)
            r = k @ vals
            out[i:i + _BARY_ROWS] = r[:, :-1] / r[:, -1:]
            hit = np.flatnonzero(~np.isfinite(r[:, -1]))
            if hit.size:
                out[i + hit] = vals[np.argmax(np.isinf(k[hit]), axis=1), :-1]
    return out


class _ChebSegment:
    """Chebyshev series piece on s=(t-mid)/half in [-1,1].

    Built from the x'' coefficients c2: x' and x are their exact integrals
    from s = anchor, where they take the values xd0 and x0.  The segment
    keeps (x, x', x'') at the len(c2)+3 Lobatto nodes of `_segment_maps`,
    enough for x's degree, and eval reads all three from them in one
    barycentric pass.
    """

    __slots__ = ("mid", "half", "c2", "nodes", "w", "vals")

    def __init__(self, mid, half, c2, anchor, x0=0.0, xd0=0.0):
        self.mid = float(mid)
        self.half = float(half)
        self.c2 = c2
        self.nodes, self.w, at, maps = _segment_maps(len(c2), float(anchor))
        self.vals = np.ones((len(self.nodes), 4))
        x, xd, self.vals[:, 2] = maps @ c2
        self.vals[:, 0] = self.half * (self.half * x + xd0 * (self.nodes - anchor)) + x0
        self.vals[:, 1] = self.half * xd + xd0
        self.vals[at, :2] = x0, xd0

    def eval(self, t):
        """(x, x', x'') stacked along the first axis."""
        s = (np.asarray(t, float) - self.mid) / self.half
        out = _barycentric(s.ravel(), self.nodes, self.w, self.vals)
        return out.T.reshape((3,) + s.shape)


class DenseSolution:
    """Piecewise-analytic solution: sorted breakpoints + one segment per gap.

    eval(t) is the one reader: it returns (x, x', x''), each point read
    from the segment of its gap, and raises DomainError outside
    [breakpoints[0], breakpoints[-1]].
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

    def eval(self, t):
        lo, hi = self.domain
        slack = _DOMAIN_SLACK * max(1.0, abs(lo), abs(hi))
        t = np.asarray(t, float)
        if not np.all((t >= lo - slack) & (t <= hi + slack)):
            raise DomainError(f"evaluation at t outside [{lo}, {hi}]")
        t = np.clip(t, lo, hi)
        if len(self.segments) == 1:
            x, xd, xdd = self.segments[0].eval(t)
        else:
            flat = t.ravel()
            idx = np.searchsorted(self.breakpoints[1:-1], flat, side="right")
            out = np.empty((3, flat.size))
            for k, seg in enumerate(self.segments):
                on = idx == k
                out[:, on] = seg.eval(flat[on])
            x, xd, xdd = out.reshape((3,) + t.shape)
        if t.ndim == 0:
            return float(x), float(xd), float(xdd)
        return x, xd, xdd


class MappedSolution:
    """Affine re-parameterization of a base solution: the one frame view.

    value(q) = base(q + offset) + add1*q, so slope(q) = base' + add1.
    Presents the arc computed in movable-frame coordinates (x = value - q,
    t = q - 1) as nu itself, and the Jacobi field y(t) as zeta(q).  A plain
    view: it reads through base.eval, and the base enforces the domain.
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


def _lobatto_basis(m, degree, anchor):
    """The m Chebyshev-Lobatto nodes s_j = cos(theta_j), theta_j =
    pi*j/(m-1), from s = 1 down to s = -1 (in sine form, in which -1, 0
    and 1 are exact), with T_k(s_j) and T_k(s_j) - T_k(anchor) for
    k = 0..degree and anchor = cos(phi) one of 1, 0, -1.

    All three are read from one table of sin(pi*r/(4(m-1))) at integers r
    reduced to one period: T_k(s_j) = cos(k*theta_j) and the difference
    -2*sin(k*(theta_j + phi)/2)*sin(k*(theta_j - phi)/2), which keeps its
    relative accuracy at the nodes next to the anchor, where integrals
    from the anchor are small.  The table is odd and symmetric about
    pi/2, as sin is, so its zeros are exact.
    """
    M = m - 1
    r = np.arange(-4 * M, 4 * M)
    sines = np.sin(np.pi * (np.sign(r) * (2 * M - abs(2 * M - abs(r)))) / (4 * M))
    read = lambda r: sines[(r + 4 * M) % (8 * M)]
    j, k = np.arange(m)[:, None], np.arange(degree + 1)
    h = M * {1.0: 0, 0.0: 1, -1.0: 2}[anchor]  # phi = 2*h*pi/(4(m-1))
    return (read(2 * M - 4 * j[:, 0]), read(2 * M - 4 * j * k),
            -2.0 * read(k * (2 * j + h)) * read(k * (2 * j - h)))


def _integral_map(n, anchor):
    """The banded (n+2, n+1) map from Chebyshev coefficients a_0..a_n to
    those of their integral from s = anchor: b_1 = a_0 - a_2/2,
    b_k = (a_{k-1} - a_{k+1})/(2k), and row 0 makes the integral vanish at
    anchor.  Its leading (n+1, n) block is the same map on a_0..a_{n-1}."""
    K = np.zeros((n + 2, n + 1))
    k = np.arange(1, n + 2)
    K[k, k - 1] = 0.5 / k
    K[1, 0] = 1.0
    K[k[:-2], k[:-2] + 1] = -0.5 / k[:-2]
    t = [1.0, anchor]  # T_k(anchor) by the three-term recurrence
    for _ in range(n):
        t.append(2.0 * anchor * t[-1] - t[-2])
    K[0] = -np.array(t[1:]) @ K[1:]
    return K


@lru_cache(maxsize=None)
def _lobatto_integrals(n, anchor):
    """The n Chebyshev-Lobatto nodes s of [-1, 1] and three fixed maps on
    values there: to their interpolant's Chebyshev coefficients (fit, the
    DCT-I matrix 2*T_k(s_j)/((n-1)*c_j*c_k), c = 2 at both ends and 1
    elsewhere), and to its exact first and second integrals from s = anchor,
    read at the nodes (int1, int2): products of fit, `_integral_map` and
    the differences T_k(s_j) - T_k(anchor) of `_lobatto_basis`.  No matrix
    is inverted and no series is summed.

    Built on first use: (N_ARC, 0) for the Picard seed, (N_ARC, 1) for the
    arc, the Jacobi field and the adjoint.  Minus the last row of int1 at
    anchor 1 (the integral from s = 1 down to the node -1) is the
    Clenshaw-Curtis rule on [-1, 1], which the switching rule and J_scaled
    read.
    """
    _, V, D = _lobatto_basis(n, n + 1, anchor)
    c = np.ones(n)
    c[[0, -1]] = 2.0
    fit = 2.0 * V[:, :n] / ((n - 1) * c[:, None] * c)
    K = _integral_map(n, anchor)
    c1 = K[:n + 1, :n] @ fit
    s = np.cos(np.pi * np.arange(n) / (n - 1))
    return s, fit, D[:, :n + 1] @ c1, D @ (K @ c1)


@lru_cache(maxsize=None)
def _segment_maps(n, anchor):
    """What a `_ChebSegment` of n x'' coefficients reads its node values
    through: the n+3 Chebyshev-Lobatto nodes s of [-1, 1] (sine form), their
    weights, the indices of the node s = anchor (none for anchor 0 when n
    is odd), and the (3, n+3, n) maps from the coefficients to x, x' and x''
    there, with x' and x the exact first and second integrals from
    s = anchor (before scaling and initial data): products of
    `_integral_map` and the tables of `_lobatto_basis`.

    n+3 nodes carry x's degree n+1, and for the even N_ARC their count is
    odd; in sine form the nodes -1, 0 and 1 are then exact.
    """
    s, V, D = _lobatto_basis(n + 3, n + 1, anchor)
    K = _integral_map(n, anchor)
    c1 = K[:n + 1, :n]
    maps = np.stack([D @ (K @ c1), D[:, :n + 1] @ c1, V[:, :n]])
    w = _lobatto_weights(n + 3)
    for shared in (s, w, maps):  # every segment of this shape holds them
        shared.flags.writeable = False
    return s, w, np.flatnonzero(s == anchor), maps


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
    # a constant returned as a scalar is spread over the grid that sup reduces
    gx, gxd, gp, gm = np.broadcast_arrays(tt, ivp.g_x(tt, x, xd), ivp.g_xdot(tt, x, xd),
                                          ivp.g(tt + ht, x, xd), ivp.g(tt - ht, x, xd))[1:]
    sup = lambda v: np.max(np.abs(v), axis=(1, 2, 3))
    return sup(gx), sup(gxd), sup(gp - gm) / (2.0 * ht[:, 0, 0, 0])


def picard_seed(ivp):
    """Analytic seed on [-tau, tau] via contracting Picard iteration.

    Returns (tau, seed) where seed is a DenseSolution whose single segment
    is a Chebyshev series for (x, x', x'').  The band half-width eps starts
    at PICARD_BAND and is halved while the lam-part of the contraction bound

        rho(tau, eps) = (8/3)|lam|((1+eps)/(1-eps))^2
                        + (1/2)||g_x|| tau^2 + ||g_xdot|| tau

    leaves no room below the target; the band used is seed.info['epsilon'].
    tau is then the largest of 0.5*2^-k, k = 0..59, for which both
    rho <= rho_target and the self-map bound hold.  The band norms of
    k = 0..15 are sampled in one pass, and those of k = 16..59 in a second
    only if none of the first passes; each candidate's norms are sampled
    on their own, so the split picks the tau a single pass would.  The
    iteration starts from the Taylor jet xdd0 + b*t of x'', with
    b*(1 - 4*lam/3) = g_t + g_xdot*xdd0 (the t-balance at the origin, g_t a
    central difference) clipped to half the band; from the constant xdd0
    the linear term shrank only by (4/3)|lam| per step.  Each
    iteration maps x'' at the N_ARC Lobatto nodes of [-tau, tau] (the
    arc's count) to x and x' there with the fixed integral matrices of
    `_lobatto_integrals`, and the seed series is the fit of the last
    iterate, integrated twice from t=0.  The iteration stops at the first
    step d (max change of x'' over the nodes) whose contraction bound
    d*rho/(1-rho) on the distance to the fixed point is at most
    1e-2*ARC_BUDGET*|xdd0|, a hundredth of the budget the arc must agree
    with the seed to; the diffs are in seed.info['picard_diffs'].
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

    # 0.5, 0.25, ..., 2^-60; the family's arcs take k = 8 or 9
    for taus in np.split(np.ldexp(0.5, -np.arange(60)), [16]):
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
        if ok.size:
            break
    else:
        raise ContractionFailure(
            f"no tau gives contraction rho<={rho_target:.3f} with band eps={eps:.2e}")
    tau, rho = float(taus[ok[0]]), float(rho[ok[0]])

    s, fit, int1, int2 = _lobatto_integrals(N_ARC, 0.0)
    t = tau * s
    X, Xd = tau * tau * int2, tau * int1

    # the Taylor jet start, g_t taken as _band_norms takes it
    ht = 1e-6 * max(tau, 1e-3)
    gt = (ivp.g(ht, 0.0, 0.0) - ivp.g(-ht, 0.0, 0.0)) / (2.0 * ht)
    b = (gt + ivp.g_xdot(0.0, 0.0, 0.0) * xdd0) / (1.0 - 4.0 * lam / 3.0)
    cap = 0.5 * eps * abs(xdd0) / tau
    xdd = xdd0 + np.clip(b, -cap, cap) * t
    diffs = []
    for _ in range(PICARD_MAX_ITER):
        x = X @ xdd
        xd = Xd @ xdd
        if np.any(x * np.sign(xdd0) <= 0.0):
            raise ContractionFailure("iterate left the admissible band (x hit 0)")
        new = lam * xd * xd / x + ivp.g(t, x, xd)
        d = float(np.max(np.abs(new - xdd)))
        diffs.append(d)
        xdd = new
        if d * rho / (1.0 - rho) <= 1e-2 * ARC_BUDGET * abs(xdd0):
            break
    else:
        raise ContractionFailure(
            f"Picard iteration did not reach its stop in {PICARD_MAX_ITER} steps")

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


def linearized(ivp, t, x, xd):
    """(r0, r1) = the partials of lam*x'^2/x + g(t, x, x') in x and x' at
    (t, x, x'), x != 0: the coefficients of the equation linearized there,
    read by the arc's Newton step and by the Jacobi field alike."""
    q = xd / x
    return ivp.g_x(t, x, xd) - ivp.lam * q * q, ivp.g_xdot(t, x, xd) + 2.0 * ivp.lam * q


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
    F = u - xdd0
    F[rest] = u[rest] - ivp.lam * xd * (xd / x) - ivp.g(t, x, xd)
    r0, r1 = np.zeros_like(u), np.zeros_like(u)
    r0[rest], r1[rest] = linearized(ivp, t, x, xd)
    return F, _collocation_matrix(r0, r1, X, Xd)


def integrate(ivp, t_end):
    """Solve the singular IVP out to a finite t_end (either sign), t_end != 0.

    Returns a DenseSolution on [t_end, 0] (or [0, t_end]) with a single
    Chebyshev segment, solved by Newton collocation from the osculating
    parabola (module docstring, step 1) to the round-off floor
    NEWTON_STEP_FLOOR, so no tolerance steers it, and cross-checked on
    [-h, h] by the Picard seed (picard_seed), h = tau, or |t_end|/2 when
    |t_end| <= tau, so that the residual keeps the interval [h, |t_end|].

    Raises BlowUp if an iterate has x*sign(xdd0) <= 0 off the origin, if
    Newton takes more than NEWTON_MAX_ITER steps, if the residual on
    [h, |t_end|] or the last ARC_TAIL x'' coefficients exceed
    ARC_BUDGET*max|x''|, or if the arc's x'' leaves the seed's certified
    band or differs from the seed's by more than ARC_BUDGET*|xdd0|.  info
    holds the seed's info and newton_iters, residual (the max on 2*N_ARC
    points in [h, |t_end|]) and radius_estimate, max|du| of the Newton step
    the stop rule accepted (at most NEWTON_STEP_FLOOR*max|x''| at the
    nodes): the size of the last correction, not a proof.
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

    u = np.full(N_ARC, xdd0)
    for k in range(1, NEWTON_MAX_ITER + 1):
        F, J = _arc_system(ivp, t, X, Xd, xdd0, u)
        try:
            du = np.linalg.solve(J, F)
        except np.linalg.LinAlgError as exc:
            raise BlowUp(f"arc Newton step failed: {exc}") from exc
        u = u - du
        radius = float(np.max(np.abs(du)))
        if radius <= NEWTON_STEP_FLOOR * np.max(np.abs(u)):
            break
    else:
        raise BlowUp(f"arc Newton collocation did not converge in {NEWTON_MAX_ITER} steps")

    c2 = fit @ u
    seg = _ChebSegment(mid, half, c2, s0)

    scale = np.max(np.abs(u))
    tail = np.max(np.abs(c2[-ARC_TAIL:]))
    # the residual beyond h, where x'^2/x is well conditioned, and the seed
    # check on [-h, h], from one read; an arc no longer than h is split
    # between the two at its middle
    dh = d * (tau if abs(t_end) > tau else 0.5 * abs(t_end))
    tr = np.linspace(dh, t_end, 2 * N_ARC)
    ts = dh * np.linspace(0.0, 1.0, 9)
    jet = seg.eval(np.concatenate([tr, ts]))
    x, xd, xdd = jet[:, :tr.size]
    if np.any(x * np.sign(xdd0) <= 0.0):
        raise BlowUp("the arc series reaches x = 0 between its nodes")
    residual = float(np.max(np.abs(xdd - ivp.lam * xd * xd / x - ivp.g(tr, x, xd))))
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

def integrate_variational(fn, ydd0, ydot0, t_end, breaks=()):
    """Solve y'' = r0(t)*y + r1(t)*y' + sigma(t) with y(0) = 0, y'(0) = ydot0
    and y''(0) = ydd0 out to a finite t_end != 0.

    fn(t) returns (r0, r1, sigma) at a 1-D array of nonzero t (elementwise;
    a constant may be returned as a scalar, which numpy broadcasting
    carries).  The caller supplies y''(0), the t->0 balance of its
    equation, which the origin node takes.  `breaks` lists the points where
    the coefficients are continuous but not smooth.  One linear collocation
    solve for y'' at the N_ARC Lobatto nodes of each smooth interval (0, the
    breaks and t_end delimit them); returns a DenseSolution of one
    Chebyshev series per interval.
    """
    t_end = float(t_end)
    if not np.isfinite(t_end) or t_end == 0.0:
        raise DomainError(f"t_end must be finite and nonzero, got {t_end}")
    ydd0, ydot0 = float(ydd0), float(ydot0)
    if not (np.isfinite(ydd0) and np.isfinite(ydot0)):
        raise DomainError(f"ydd0 and ydot0 must be finite, got {ydd0} and {ydot0}")
    d = 1.0 if t_end > 0 else -1.0
    s, fit, int1, int2 = _lobatto_integrals(N_ARC, -d)
    ends = [0.0, *sorted({b for b in breaks if 0.0 < d * b < d * t_end}, key=abs), t_end]
    y_in, yd_in = 0.0, ydot0
    segs = []
    for t_in, t_out in zip(ends[:-1], ends[1:]):
        mid, half = 0.5 * (t_in + t_out), 0.5 * abs(t_out - t_in)
        t = mid + half * s
        # the origin node of the first piece takes u = ydd0 (r0 = r1 = 0, sigma = ydd0)
        live = t != 0.0
        r0, r1, sig = np.zeros(N_ARC), np.zeros(N_ARC), np.full(N_ARC, ydd0)
        r0[live], r1[live], sig[live] = fn(t[live])
        # for u = y'' at the nodes: y = y0 + half^2*int2 @ u, y' = yd_in + half*int1 @ u
        y0 = y_in + yd_in * (t - t_in)
        A = _collocation_matrix(r0, r1, half * half * int2, half * int1)
        rhs = r0 * y0 + r1 * yd_in + sig
        # y and y' start from y_in and yd_in at t_in, where s = -d
        seg = _ChebSegment(mid, half, fit @ np.linalg.solve(A, rhs), -d, y_in, yd_in)
        y_in, yd_in, _ = seg.eval(t_out)
        segs.append(seg)
    if d < 0:
        segs.reverse()
    return DenseSolution(sorted(ends), segs)
