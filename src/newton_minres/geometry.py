"""Body geometry: the conjugate cross-section, height evaluation, meshing.

The body over the unit disk is the convex hull of the rim circle
{x1^2+x2^2=1, z=0} and the symmetry-plane cross-section curve
z = w(x1) (x2=0), where w is the concave-side conjugate of the supporting
slope curve:

    w(x1) = -M                         for |x1| <= slope0,
    w(x1) = p*x1 - v(p), v'(p) = x1    for slope0 < |x1| <= 1.

_conjugate samples w exactly; the hull evaluator reads it through a cubic
table of w on [slope0, 1] (_VStarTable), which BodyEvaluator.vstar extends
flat and even to [-1, 1]; the mesh reads it at its own samples.

The hull route evaluates the height: every boundary point lies on a
segment from a curve point (y, 0, w(y)) to a rim point, and the segment
through a given (x1, x2) at parameter y has height lam(y; x)*w(y) with lam
the smaller root of A*lam^2 - 2*B*lam + C = 0,

    lam = C / (B + sqrt(D)),  A = 1-y^2, B = 1-x1*y, C = 1-|x|^2,
    D = B^2 - A*C = (x1-y)^2 + x2^2*A;

u(x1, x2) is the minimum over y (see BodyEvaluator).  By Danskin's envelope
theorem its gradient is the x-gradient of the chord height at the minimizer
y*, grad u = w(y*) * (y*lam - x1, -x2) / sqrt(D), also at y* = +-1.  D
vanishes only on the ridge x2 = 0 at y* = x1, where u creases and the
gradient is undefined: `gradient` refuses it with DomainError (the 2-D
oracle's nodes never lie on x2 = 0).  The
tests judge it against the support-function route, the supremum over p of
<p, x> - max(|p|, v(|p1|)), which reads v alone.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, EvaluationError

# points per vectorized pass: 80 kB per array, so a pass stays in a 2 MiB L2
_CHUNK = 10_000


def _chord(y, x1, x2sq, c):
    """lam and sqrt(D) of the chord from curve point y through (x1, x2).

    C / (B + sqrt(D)) has no cancellation and needs no branch at y = +-1.
    lam <= 1 is clamped: on the ridge just below y it reads
    (1+x1)/(1+y), which can round above 1.
    """
    sd = np.sqrt((x1 - y) ** 2 + x2sq * (1.0 - y * y))
    return np.minimum(c / np.maximum(1.0 - x1 * y + sd, 1e-300), 1.0), sd


# ---------------------------------------------------------------------------
# conjugate curve table
# ---------------------------------------------------------------------------

def _conjugate(sol, n):
    """y, p, v(p) and w = p*y - v(p) at n uniform y in [slope0, 1], with
    v'(p) = y by two Newton steps in [r, p0] from v' read off at least 2051
    uniform p (2n + 1 alone leaves |v'(p) - y| = 3.6e-14 at n = 8, M = 5).
    Exact ends: p = r and w = -M at slope0 (where v(r) = M + r*slope0),
    p = p0 at y = 1."""
    s0, r, p0 = float(sol.slope0), float(sol.r), float(sol.p0)
    y = np.linspace(s0, 1.0, n)
    dense_p = np.linspace(r, p0, max(2 * n + 1, 2051))
    dense_y = sol.eval(dense_p)[1]
    dense_y[0], dense_y[-1] = s0, 1.0  # exactize the monotone ends
    p = np.interp(y, dense_y, dense_p)
    for _ in range(2):
        _, v1, v2 = sol.eval(p)
        resid = v1 - y
        # p = r reads the flat side (v'' = 0, v' = slope0) when r/p0 rounds below rho
        step = np.divide(resid, v2, out=np.zeros_like(resid), where=v2 > 0.0)
        p = np.clip(p - step, r, p0)
    p[0], p[-1] = r, p0
    v = sol.eval(p)[0]
    w = p * y - v
    w[0] = -float(sol.M)
    return y, p, v, w


class _VStarTable:
    """Cubic-Hermite interpolant of w(y) on [slope0, 1] through the exact w
    and slope p(y) of `_conjugate` at 4097 uniform nodes; piece j reads
    w = ((c3*s + c2)*s + c1)*s + c0, s in [0, 1], from column j of the
    contiguous (4, n) array coef; wp0 is w'(slope0+).  The flat -M and the
    evenness are BodyEvaluator.vstar's.
    """

    def __init__(self, sol):
        self.M = float(sol.M)
        self.y_nodes, p, _, self.z_nodes = _conjugate(sol, 4097)
        self.s0 = s0 = float(sol.slope0)
        self.h = (1.0 - s0) / (len(p) - 1)
        z, m = self.z_nodes, p * self.h
        self.coef = np.array([
            z[:-1], m[:-1], 3.0 * (z[1:] - z[:-1]) - 2.0 * m[:-1] - m[1:],
            2.0 * (z[:-1] - z[1:]) + m[:-1] + m[1:]])
        self.wp0 = self.coef[1, 0] / self.h

    def _piece(self, y):
        """Coefficients (c0, c1, c2, c3) and local s of y in [slope0, 1]."""
        s = (y - self.s0) / self.h
        j = np.minimum(s.astype(np.intp), self.coef.shape[1] - 1)
        return np.take(self.coef, j, axis=1), s - j

    def jet(self, y):
        """w, w', w'' at y in [slope0, 1]."""
        (c0, c1, c2, c3), s = self._piece(y)
        h = self.h
        return (((c3 * s + c2) * s + c1) * s + c0,
                ((3.0 * c3 * s + 2.0 * c2) * s + c1) / h,
                (6.0 * c3 * s + 2.0 * c2) / (h * h))


# ---------------------------------------------------------------------------
# height evaluation
# ---------------------------------------------------------------------------

class BodyEvaluator:
    """Vectorized height function u(x1, x2) of the body (hull route).

    u = min(0, min over y in [-1, 1] of F(y) = lam(y; x)*w(y)), with w the
    table's piecewise cubic.  The minimization uses F's structure:

    * side lemma: for x1, y >= 0, B and D are no larger at +y than at -y, so
      lam(y) >= lam(-y) and, as w <= 0 is even, F(y) <= F(-y).  Only
      y*sign(x1) in [0, 1] is searched.
    * keel, closed form: on |y| <= slope0, F = -M*lam.  lam is
      quasi-concave in y: for t in [0, 1], lam >= t exactly when
      |x - t*(y, 0)| <= 1 - t, a disk cut by a line, an interval of y.  Its
      peak, where x1 = y*lam, is y = x1/(1 - |x2|); clipped to [-slope0,
      slope0] it minimizes F there.  Where the clip binds it is the corner,
      and the one chord there gives both F and the sign of G below.
    * curved branch, y in [slope0, 1]: F' = lam*G, G = (x1 - y*lam)*w/sqrt(D)
      + w'.  G changes sign at most once: inside the disk C = 1 - |x|^2 > 0
      and F = -C*|w| / (B + sqrt(D)).  D's discriminant in y is
      -4*x2^2*C <= 0, so sqrt(D) is the Euclidean norm of an affine map of
      y, hence convex, and so is B + sqrt(D) > 0.  w is convex with
      w(1) = 0, so |w| is concave on [slope0, 1].  A nonnegative concave
      function over a positive convex one is pseudoconcave, so F is
      pseudoconvex there.  The table's cubic pieces are convex too (w'' > 0
      at both ends of each), so this holds for the interpolant the
      minimizer reads.  At the peak of lam, F' = lam*w' > 0, so y* lies in
      [slope0, hi], hi = the peak clipped to [slope0, 1].  sqrt(D)*G at
      slope0 decides the corner (>= 0: y* = slope0), except on the ridge
      x2 = 0: there it is delta*(w'(slope0) - M/(1 - slope0)) < 0 for
      delta = |x1| - slope0, but reads >= 0 by round-off a few ulps past
      the corner, so every ridge point past it is searched.  At hi = |x1|,
      lam = 1 and sqrt(D) = 0 make sqrt(D)*G exactly 0 (<= 0 at hi:
      y* = hi, and u = w(x1) bit for bit).  Elsewhere one regula-falsi
      step starts safeguarded Newton steps on G, with G' from the cubic's
      jet, inside the bracket.  A point still moving after twice the
      halvings from the full bracket [slope0, 1] to the tolerance raises
      EvaluationError.
    * u is the least of 0 (rim) and one candidate: the keel value, or,
      where lam peaks past slope0 and G < 0 at the corner (or x2 = 0), the
      curved minimum.  F falls past the corner there, so the curved
      minimum lies below the corner value and needs no comparison with
      it.  _minimize returns the chord and w at y* too, so the gradient
      reads neither again.
    """

    # u is even in x1 and in x2 bit for bit (the search runs on |x1|, lam
    # reads x2 only as x2^2), so resistance_direct sums one quadrant of it
    mirror_symmetric = True

    def __init__(self, sol):
        self.table = _VStarTable(sol)

    @property
    def seams(self):
        """(slope0, (psi_seam,)) for resistance_direct: the keel corner A,
        apex of the fan, and the angle about A of the generator parting the
        fan from the ruled strip, which ends on the rim at angle phi0,
        cos phi0 = p/(p*slope0 + M), p = w'(slope0+): from the table alone."""
        t = self.table
        c = t.wp0 / (t.wp0 * t.s0 + t.M)
        return t.s0, (float(np.arctan2(np.sqrt(1.0 - c * c), c - t.s0)),)

    def vstar(self, y):
        """Cross-section height w(y), vectorized: the table's cubic at |y| > slope0, else -M."""
        y = np.abs(np.asarray(y, float))
        if not np.all(y <= 1.0 + 1e-9):
            raise EvaluationError("w is only defined on [-1, 1]")
        s0 = self.table.s0
        out = np.where(y > s0, self.table.jet(np.clip(y, s0, 1.0))[0], -self.table.M)
        return float(out) if out.ndim == 0 else out

    def _curved(self, a, x2sq, c, hi, g_lo):
        """Minimizer of F on y in [slope0, hi] for x1 = a >= 0, F' > 0 past hi."""
        table, tol = self.table, 1e-13
        (lam, sd), (w, wp, _) = _chord(hi, a, x2sq, c), table.jet(hi)
        # sqrt(D)*G: g_lo < 0 at slope0; exactly 0 on the ridge at hi = |x1|
        g_hi = (a - hi * lam) * w + sd * wp
        out, idx = hi.copy(), np.flatnonzero(g_hi > 0.0)
        lo, hi, g_lo, g_hi = np.full(len(idx), table.s0), hi[idx], g_lo[idx], g_hi[idx]
        y = np.clip(lo - g_lo * (hi - lo) / (g_hi - g_lo), lo, hi)   # regula falsi
        state = [y, lo, hi, hi - lo, a[idx], x2sq[idx], c[idx]]
        # a bisection halves the bracket; Newton runs only while it halves the step
        for _ in range(2 * int(np.ceil(np.log2((1.0 - table.s0) / tol)))):
            if not len(idx):
                break
            y, lo, hi, step, xa, xx, cc = state
            lam, sd = _chord(y, xa, xx, cc)
            sd = np.maximum(sd, 1e-300)
            w, wp, wpp = table.jet(y)
            q = (xa - y * lam) / sd             # lam' = lam*q, bounded
            dsd = (y * (1.0 - xx) - xa) / sd     # (sqrt D)', bounded
            g = q * w + wp
            gp = (-lam * (1.0 + y * q) - q * dsd) * w / sd + q * wp + wpp
            lo, hi = np.where(g < 0.0, y, lo), np.where(g > 0.0, y, hi)
            dy = -g / gp
            done = ((gp > 0.0) & (np.abs(dy) <= tol)) | (hi - lo <= tol)
            newton = done | ((y + dy > lo) & (y + dy < hi) & (np.abs(dy) <= 0.5 * step))
            yn = np.clip(np.where(newton, y + dy, 0.5 * (lo + hi)), lo, hi)
            step = np.abs(yn - y)
            done |= step <= tol
            out[idx[done]] = yn[done]
            keep = ~done
            idx = idx[keep]
            state = [v[keep] for v in (yn, lo, hi, step, xa, xx, cc)]
        if len(idx):
            raise EvaluationError(f"hull minimizer did not converge at {len(idx)} point(s)")
        return out

    def _minimize(self, x1, x2):
        """Rows y*, height min(0, lam*w), and the chord's lam, sqrt(D) and w at y*."""
        x2sq = x2 * x2
        c = 1.0 - x1 * x1 - x2sq
        if not np.all(c >= -1e-9):
            raise EvaluationError("point outside the unit disk")
        c = np.maximum(c, 0.0)
        table, s0, a, m = self.table, self.table.s0, np.abs(x1), self.table.M
        peak = x1 / np.maximum(1.0 - np.abs(x2), 1e-300)   # where lam peaks
        y = np.clip(peak, -s0, s0)   # the keel's minimum of -M*lam; the corner if clipped
        lam, sd = _chord(y, x1, x2sq, c)
        out = np.array([y, -m * lam, lam, sd, np.full(x1.shape, -m)])
        g_lo = (a - s0 * lam) * -m + sd * table.wp0   # sqrt(D)*G at the corner, where |peak| > s0
        # F falls past the corner; on the ridge always, whatever g_lo's round-off
        i = np.flatnonzero((np.abs(peak) > s0) & ((g_lo < 0.0) | (x2sq == 0.0)))
        yc = self._curved(a[i], x2sq[i], c[i], np.minimum(np.abs(peak[i]), 1.0), g_lo[i])
        (lc, sc), wc = _chord(yc, a[i], x2sq[i], c[i]), table.jet(yc)[0]
        out[:, i] = np.copysign(yc, x1[i]), lc * wc, lc, sc, wc
        out[1] = np.minimum(out[1], 0.0)
        i = np.flatnonzero(~(out[1] < 0.0))      # rim: w = 0
        y = out[0, i] = np.copysign(1.0, x1[i])
        out[2:, i] = *_chord(y, x1[i], x2sq[i], c[i]), table.jet(np.abs(y))[0]
        return out

    def _gradient(self, x1, x2):
        # Danskin: grad u = w(y*) grad_x lam(y*; x), lam implicit in its quadratic
        if np.any(x2 == 0.0):
            raise DomainError("gradient undefined on the ridge x2 = 0, where u creases")
        y, _, lam, sd, w = self._minimize(x1, x2)
        return w * (y * lam - x1) / sd, -w * x2 / sd

    def _map(self, fn, k, x1, x2):
        """fn (k outputs per point) over the broadcast points, chunk by chunk."""
        x1a = np.asarray(x1, float)
        x2a = np.asarray(x2, float)
        scalar = x1a.ndim == 0 and x2a.ndim == 0
        x1f, x2f = np.broadcast_arrays(np.atleast_1d(x1a), np.atleast_1d(x2a))
        shape = x1f.shape
        x1f = x1f.reshape(-1)
        x2f = x2f.reshape(-1)
        out = np.empty((k, len(x1f)))
        for i in range(0, len(x1f), _CHUNK):
            sl = slice(i, i + _CHUNK)
            out[:, sl] = fn(x1f[sl], x2f[sl])
        if scalar:
            return out[:, 0].tolist()
        return out.reshape((k,) + shape)

    def __call__(self, x1, x2):
        return self._map(lambda a, b: self._minimize(a, b)[1], 1, x1, x2)[0]

    def gradient(self, x1, x2):
        """Exact gradient (u_x1, u_x2) of the height function.

        One minimization per point, then the envelope theorem at the
        minimizing generator y*; same broadcasting and errors as calling
        the evaluator.  Undefined on the ridge x2 = 0 (the cross-section
        curve, where u has a crease): a point there raises DomainError.
        """
        ux, uy = self._map(self._gradient, 2, x1, x2)
        return ux, uy


# ---------------------------------------------------------------------------
# mesh
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BodyMesh:
    """Triangle mesh of the body's lower surface (graph of u over the disk)."""
    vertices: np.ndarray
    faces: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        v = self.vertices
        f = self.faces
        if v.ndim != 2 or v.shape[1] != 3:
            raise DomainError("vertices must be (n, 3)")
        if f.ndim != 2 or f.shape[1] != 3:
            raise DomainError("faces must be (m, 3) vertex indices")
        if f.size and (f.min() < 0 or f.max() >= len(v)):
            raise DomainError("face indices out of range")
        rad2 = v[:, 0] ** 2 + v[:, 1] ** 2
        # written so that a NaN coordinate fails them
        if not np.all(rad2 <= 1.0 + 1e-9):
            raise DomainError("vertex outside the unit cylinder")
        if not np.all(v[:, 2] <= 1e-9):
            raise DomainError("vertex above z = 0")
        m = self.metadata.get("M")
        if m is not None and not np.all(v[:, 2] >= -float(m) - 1e-9):
            raise DomainError("vertex below z = -M")


def build_mesh(sol, n_profile=1024, n_circle=256):
    """Triangulate the lower surface from the ruled-generator structure.

    Curve samples are uniform in the conjugate variable y, with w and p
    exact from `_conjugate`; each pairs with the rim point at angle phi,
    cos(phi) = p / v(p) along its generator.
    The flat part of the curve fans out to the rim arc between the corner
    angle and the axis, and two planar keel triangles connect the corner
    points to (0, +-1, 0).  One quadrant's index pattern serves all four
    mirror images across x1 = 0 and x2 = 0.  Vertices: the curve's right
    and left halves, the two poles, then the ruled rim rows and the fan rim
    rows of the quadrants (+,+), (-,+), (+,-), (-,-).  Faces: four ruled
    strips, four fans, the two keels, each turned clockwise in plan view so
    normals point downward/outward.
    """
    if not (float(n_profile).is_integer() and float(n_circle).is_integer()):
        raise DomainError(f"resolution not a finite integer: {n_profile!r}, {n_circle!r}")
    P = int(n_profile)
    C = int(n_circle)
    if P < 8 or C < 4:
        raise DomainError(f"resolution too small: n_profile={P}, n_circle={C}")
    y, p, v, z = _conjugate(sol, P)
    phi = np.arccos(np.clip(p / v, 0.0, 1.0))   # decreasing: corner angle -> 0
    fan_phi = np.linspace(phi[0], 0.5 * np.pi, C)

    # quadrant signs of (x1, x2), in vertex order
    sx, sy = np.array([[1.0], [-1.0], [1.0], [-1.0]]), np.array([[1.0], [1.0], [-1.0], [-1.0]])

    def rim(a):
        return np.column_stack([(sx * np.cos(a)).ravel(), (sy * np.sin(a)).ravel(),
                                np.zeros(4 * len(a))])

    verts = np.vstack([np.column_stack([np.concatenate([y, -y]), np.zeros(2 * P),
                                        np.concatenate([z, z])]),
                       [[0.0, 1.0, 0.0], [0.0, -1.0, 0.0]], rim(phi[:-1]), rim(fan_phi[1:-1])])
    curve = np.arange(2 * P).reshape(2, P)
    ruled = 2 * P + 2 + np.arange(4 * (P - 1)).reshape(4, P - 1)
    fan = ruled[-1, -1] + 1 + np.arange(4 * (C - 2)).reshape(4, C - 2)
    strips, fans = [], []
    for q in (0, 2, 1, 3):            # faces: right curve half first, upper side first
        c = curve[q % 2]
        row = np.append(ruled[q], c[-1])   # the last generator ends on the curve
        quads = np.column_stack([c[:-1], c[1:], row[1:], c[:-1], row[1:], row[:-1]])
        strips.append(np.delete(quads.reshape(-1, 3), -2, axis=0))   # drops (a, b, b)
        ring = np.concatenate([[row[0]], fan[q], [2 * P + q // 2]])   # ends at its pole
        fans.append(np.column_stack([np.full(C - 1, c[0]), ring[:-1], ring[1:]]))
    faces = np.vstack(strips + fans + [[[0, P, 2 * P], [0, P, 2 * P + 1]]]).astype(np.int64)
    (ax, ay), (bx, by), (cx, cy) = verts[faces, :2].transpose(1, 2, 0)
    flip = ~((bx - ax) * (cy - ay) - (by - ay) * (cx - ax) < 0.0)   # not clockwise
    faces[flip] = faces[flip][:, [0, 2, 1]]

    meta = {"M": float(sol.M), "p0": float(sol.p0), "n_profile": P, "n_circle": C}
    return BodyMesh(vertices=verts, faces=faces, metadata=meta)


def mesh_boundary_report(mesh):
    """Edge-manifold audit: (nonmanifold edge count, boundary edge count, loop count)."""
    n, f = len(mesh.vertices), mesh.faces.astype(np.int64)
    g = np.roll(f, -1, axis=1)   # the edges (a, b), (b, c), (c, a), each keyed lo*n + hi
    keys, counts = np.unique(np.minimum(f, g) * n + np.maximum(f, g), return_counts=True)
    nonmanifold = int(np.count_nonzero(counts > 2))
    ends = np.divmod(keys[counts == 1], n)
    if np.any(np.unique(np.concatenate(ends), return_counts=True)[1] != 2):
        return nonmanifold, len(ends[0]), -1  # boundary is not a disjoint loop union
    # each boundary edge both ways; a directed edge a->b is followed by b's
    # other edge, so each loop (3 or more edges, as edges are distinct) is
    # two cycles, which pointer doubling labels by their least edge
    src, dst = np.concatenate(ends), np.concatenate(ends[::-1])
    out = np.argsort(src, kind="stable")   # each vertex's two edges, side by side
    first = np.empty(n, np.int64)
    first[src[out[::2]]] = np.arange(0, len(src), 2)
    e0, e1 = out[first[dst]], out[first[dst] + 1]   # the two edges out of dst
    succ = np.where(dst[e0] == src, e1, e0)           # the one not going back
    edges = np.arange(len(src))
    label = edges
    for _ in range(max(len(src), 1).bit_length()):
        label = np.minimum(label, label[succ])
        succ = succ[succ]
    return nonmanifold, len(ends[0]), int(np.count_nonzero(label == edges)) // 2


def mesh_is_watertight(mesh):
    """True when every interior edge is shared by exactly 2 faces and the
    only boundary is the single rim loop."""
    nonmanifold, boundary, loops = mesh_boundary_report(mesh)
    return nonmanifold == 0 and loops == 1 and boundary > 0


def export_obj(mesh, path):
    """Write Wavefront OBJ (deterministic bytes); refuses empty meshes."""
    if len(mesh.vertices) == 0 or len(mesh.faces) == 0:
        raise EvaluationError(f"refusing to write empty mesh to {path}")
    v, f = mesh.vertices.ravel(), mesh.faces + 1
    # each distinct |coordinate| is formatted once, and its sign comes from
    # signbit, so -0.0 keeps the "-" that %.10e gives it
    mags, at = np.unique(np.abs(v), return_inverse=True)
    text, neg = np.array(["%.10e" % x for x in mags.tolist()], dtype=object)[at], np.signbit(v)
    text[neg] = "-" + text[neg]
    with open(path, "w") as fh:
        fh.write("# minimal-resistance body mesh\n"
                 + ("v %s %s %s\n" * (len(v) // 3)) % tuple(text.tolist())
                 + ("f %d %d %d\n" * len(f)) % tuple(f.ravel().tolist()))
