"""Body geometry: the conjugate cross-section, height evaluation, meshing.

The body over the unit disk is the convex hull of the rim circle
{x1^2+x2^2=1, z=0} and the symmetry-plane cross-section curve
z = w(x1) (x2=0), where w is the concave-side conjugate of the supporting
slope curve:

    w(x1) = -M                         for |x1| <= slope0,
    w(x1) = p*x1 - v(p), v'(p) = x1    for slope0 < |x1| <= 1.

w is tabulated once per body (_VStarTable) and read through
BodyEvaluator.vstar.

Two independent height evaluators:

* the hull route (fast, vectorized): every boundary point lies on a segment
  from a curve point (y, 0, w(y)) to a rim point, and the segment through a
  given (x1, x2) at parameter y has height lam(y; x)*w(y) with lam the
  smaller root of A*lam^2 - 2*B*lam + C = 0,

      lam = C / (B + sqrt(D)),  A = 1-y^2, B = 1-x1*y, C = 1-|x|^2,
      D = B^2 - A*C = (x1-y)^2 + x2^2*A;

  u(x1, x2) is the minimum over y (see BodyEvaluator).  By Danskin's
  envelope theorem its gradient is the x-gradient of the chord height at the
  minimizer y*, grad u = w(y*) * (y*lam - x1, -x2) / sqrt(D), also at
  y* = +-1.  D vanishes only on the ridge x2 = 0 at y* = x1, where u creases
  and the gradient is undefined (the 2-D oracle's grids never sample x2 = 0).

* the conjugate route (slow, used for cross-checks): u as the biconjugate
  sup_p <p, x> - max(|p|, v(|p1|)), by a 1-D search (see body_evaluate).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, EvaluationError

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
_CHUNK = 20_000   # points per vectorized pass; a pass's arrays stay in a 2 MiB L2


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

class _VStarTable:
    """Cubic-Hermite interpolant of w(y) on [slope0, 1] through exact w and
    slope p(y) at uniform nodes, one power-form row (c0..c3) per piece:
    w = ((c3*s + c2)*s + c1)*s + c0, s in [0, 1].  eval and jet share _piece.
    """

    def __init__(self, sol, n_nodes=4097):
        s0 = float(sol.slope0)
        self.sol = sol
        self.s0 = s0
        self.M = float(sol.M)
        self.r, self.p0 = float(sol.r), float(sol.p0)
        self.y_nodes = np.linspace(s0, 1.0, int(n_nodes))
        self.h = (1.0 - s0) / (int(n_nodes) - 1)

        dense_p = np.linspace(self.r, self.p0, 2 * int(n_nodes) + 1)
        dense_y = sol.eval(dense_p)[1]
        dense_y[0], dense_y[-1] = s0, 1.0  # exactize the monotone table ends
        p = self._newton(np.interp(self.y_nodes, dense_y, dense_p), self.y_nodes)
        p[0], p[-1] = self.r, self.p0
        self.p_nodes = p
        self.z_nodes = z = p * self.y_nodes - sol.eval(p)[0]
        z[0] = -self.M  # exact at the corner, where v(r) = M + r*slope0
        m = p * self.h
        self.coef = np.column_stack([
            z[:-1], m[:-1], 3.0 * (z[1:] - z[:-1]) - 2.0 * m[:-1] - m[1:],
            2.0 * (z[:-1] - z[1:]) + m[:-1] + m[1:]])

    def _newton(self, p, y):
        """Two Newton steps on v'(p) = y from p, kept in [r, p0]."""
        for _ in range(2):
            _, v1, v2 = self.sol.eval(p)
            resid = v1 - y
            # p = r reads the flat side (v'' = 0, v' = slope0) when r/p0 rounds below rho
            step = np.divide(resid, v2, out=np.zeros_like(resid), where=v2 > 0.0)
            p = np.clip(p - step, self.r, self.p0)
        return p

    def p_of_slope(self, yabs):
        """Generator parameter p with v'(p) = y, vectorized, y in [slope0, 1]."""
        yabs = np.asarray(yabs, float)
        return self._newton(np.interp(yabs, self.y_nodes, self.p_nodes), yabs)

    def _piece(self, y):
        """Coefficients (c0, c1, c2, c3) and local s of y in [slope0, 1]."""
        s = (y - self.s0) / self.h
        j = np.minimum(s.astype(np.intp), len(self.coef) - 1)
        return self.coef[j].T, s - j

    def jet(self, y):
        """w, w', w'' at y in [slope0, 1]."""
        (c0, c1, c2, c3), s = self._piece(y)
        h = self.h
        return (((c3 * s + c2) * s + c1) * s + c0,
                ((3.0 * c3 * s + 2.0 * c2) * s + c1) / h,
                (6.0 * c3 * s + 2.0 * c2) / (h * h))

    def eval(self, y):
        """w(y) for y in [-1, 1] (even; flat -M inside [-slope0, slope0])."""
        ya = np.abs(np.asarray(y, float))
        ya = np.minimum(ya, 1.0)
        out = np.full(ya.shape, -self.M)
        m = ya > self.s0
        (c0, c1, c2, c3), s = self._piece(ya[m])
        out[m] = ((c3 * s + c2) * s + c1) * s + c0
        return out


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
    * flat and corner branches, closed form: on |y| <= slope0, F = -M*lam.
      lam is quasi-concave in y: for t in [0, 1], lam >= t exactly when
      |x - t*(y, 0)| <= 1 - t, a disk cut by a line, an interval of y.  Its
      peak, where x1 = y*lam, is y = x1/(1 - |x2|); clipped to [-slope0,
      slope0] it minimizes F there, and the clip is the corner.
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
      [slope0, hi], hi = the peak clipped to [slope0, 1].  sqrt(D)*G at the
      ends decides the corner (>= 0 at slope0: y* = slope0) and the ridge
      x2 = 0, where lam(|x1|) = 1 and sqrt(D) = 0 make it exactly 0 at
      hi = |x1| (<= 0 at hi: y* = hi, and u = w(x1) bit for bit, but where
      -M undercuts the cubic by a round-off ulp a few ulps above slope0).
      Elsewhere one regula-falsi step starts safeguarded Newton steps on G,
      with G' from the cubic's jet, inside the bracket.  A point still
      moving after twice the halvings from the full bracket [slope0, 1] to
      the tolerance raises EvaluationError.
    * u is the least of the flat/corner value, the curved value and 0 (rim).
    """

    # u is even in x1 and in x2 bit for bit (the search runs on |x1|, lam
    # reads x2 only as x2^2), so resistance_direct sums one quadrant of it
    mirror_symmetric = True

    def __init__(self, sol):
        self.sol = sol
        self.table = _VStarTable(sol)

    def vstar(self, y):
        """Cross-section height w(y) (vectorized; even in y)."""
        y = np.asarray(y, float)
        if not np.all(np.abs(y) <= 1.0 + 1e-9):
            raise EvaluationError("w is only defined on [-1, 1]")
        out = self.table.eval(y)
        return float(out) if out.ndim == 0 else out

    def _curved(self, a, x2sq, c, hi):
        """Minimizer of F on y in [slope0, hi] for x1 = a >= 0; F' > 0 past hi."""
        table, tol = self.table, 1e-13

        def sdg(y):   # sqrt(D)*G, exactly 0 on the ridge at y = |x1|
            lam, sd = _chord(y, a, x2sq, c)
            w, wp, _ = table.jet(y)
            return (a - y * lam) * w + sd * wp

        lo = np.full(a.shape, table.s0)
        g_lo, g_hi = sdg(lo), sdg(hi)
        out = np.where(g_lo >= 0.0, lo, hi)
        idx = np.flatnonzero((g_lo < 0.0) & (g_hi > 0.0))
        lo, hi, g_lo, g_hi = lo[idx], hi[idx], g_lo[idx], g_hi[idx]
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
            idx = idx[~done]
            state = [v[~done] for v in (yn, lo, hi, step, xa, xx, cc)]
        if len(idx):
            raise EvaluationError(f"hull minimizer did not converge at {len(idx)} point(s)")
        return out

    def _minimize(self, x1, x2):
        """Minimizing generator y* and height min(0, lam(y*)*w(y*)) per point."""
        x2sq = x2 * x2
        c = 1.0 - x1 * x1 - x2sq
        if not np.all(c >= -1e-9):
            raise EvaluationError("point outside the unit disk")
        c = np.maximum(c, 0.0)
        s0 = self.table.s0
        peak = x1 / np.maximum(1.0 - np.abs(x2), 1e-300)   # where lam peaks
        yf = np.clip(peak, -s0, s0)                          # flat/corner branch
        ff = -self.table.M * _chord(yf, x1, x2sq, c)[0]
        a = np.abs(x1)
        yc = self._curved(a, x2sq, c, np.clip(np.abs(peak), s0, 1.0))
        fc = _chord(yc, a, x2sq, c)[0] * self.table.jet(yc)[0]
        flat = ff <= fc
        f = np.minimum(np.where(flat, ff, fc), 0.0)
        y = np.where(flat, yf, np.copysign(yc, x1))
        return np.where(f < 0.0, y, np.copysign(1.0, x1)), f, x2sq, c  # rim: w = 0

    def _height(self, x1, x2):
        return self._minimize(x1, x2)[1]

    def _gradient(self, x1, x2):
        # Danskin: grad u = w(y*) grad_x lam(y*; x), lam implicit in its quadratic
        y, _, x2sq, c = self._minimize(x1, x2)
        lam, sd = _chord(y, x1, x2sq, c)
        w = self.table.eval(y)
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
        return self._map(self._height, 1, x1, x2)[0]

    def gradient(self, x1, x2):
        """Exact gradient (u_x1, u_x2) of the height function.

        One minimization per point, then the envelope theorem at the
        minimizing generator y*; same broadcasting and errors as calling
        the evaluator.  Undefined on the ridge x2 = 0 (the cross-section
        curve, where u has a crease).
        """
        ux, uy = self._map(self._gradient, 2, x1, x2)
        return ux, uy


def body_evaluate(ev, x1, x2):
    """Height u(x1, x2) via the conjugate sup route (slow; cross-check).

    u(x) = sup_p <p, x> - vt(p) with vt(p) = max(|p|, v(|p1|)).  vt is the
    max of two convex pieces; for x inside the disk the concave gain pushes
    the optimizer onto the seam |p| = v(p1) (the rim-norm piece grows slower
    than <p, x> below it, faster above), so the search reduces to the 1-D
    concave problem

        max over p1 in [-p0, p0] of  p1*x1 + |x2|*sqrt(v(p1)^2 - p1^2) - v(p1),

    solved by a dense scan plus golden polish.  Deliberately independent of
    BodyEvaluator's chord minimum: only v itself is used, never the
    conjugate curve or hull structure.
    """
    sol = ev.sol if isinstance(ev, BodyEvaluator) else ev
    p0 = float(sol.p0)
    x1 = float(x1)
    x2 = float(x2)
    if not x1 * x1 + x2 * x2 <= 1.0 + 1e-9:
        raise EvaluationError("point outside the unit disk")
    ax2 = abs(x2)

    def seam_gain(p1):
        v = sol.eval(np.abs(p1))[0]
        p2 = np.sqrt(np.maximum(v * v - p1 * p1, 0.0))
        return p1 * x1 + ax2 * p2 - v

    grid = np.linspace(-p0, p0, 4097)
    g = seam_gain(grid)
    j = int(np.argmax(g))
    lo = grid[max(j - 1, 0)]
    hi = grid[min(j + 1, len(grid) - 1)]
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = float(seam_gain(c)), float(seam_gain(d))
    for _ in range(60):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = float(seam_gain(c))
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = float(seam_gain(d))
    best = max(float(g[j]), fc, fd, float(seam_gain(0.5 * (a + b))))
    return min(best, 0.0)


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

    Curve samples are uniform in the conjugate variable y; each pairs with
    the rim point at angle phi, cos(phi) = p / v(p) along its generator.
    The flat part of the curve fans out to the rim arc between the corner
    angle and the axis, and two planar keel triangles connect the corner
    points to (0, +-1, 0).  One quadrant's index pattern serves all four
    mirror images across x1 = 0 and x2 = 0.  Vertices: the curve's right
    and left halves, the two poles, then the ruled rim rows and the fan rim
    rows of the quadrants (+,+), (-,+), (+,-), (-,-).  Faces: four ruled
    strips, four fans, the two keels, each turned clockwise in plan view so
    normals point downward/outward.
    """
    P = int(n_profile)
    C = int(n_circle)
    if P < 8 or C < 4:
        raise DomainError(f"resolution too small: n_profile={P}, n_circle={C}")
    table = _VStarTable(sol, max(2 * P + 1, 1025))
    y = np.linspace(table.s0, 1.0, P)
    z = table.eval(y)
    pcur = table.p_of_slope(y)
    cphi = np.clip(pcur / sol.eval(pcur)[0], 0.0, 1.0)
    phi = np.arccos(cphi)             # decreasing: corner angle -> 0
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

    meta = {"M": table.M, "p0": float(sol.p0), "n_profile": P, "n_circle": C}
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
    adj = {}
    for u, v in zip(*(e.tolist() for e in ends)):
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    loops, unseen = 0, set(adj)
    while unseen:   # walk each loop from any vertex not yet seen until it closes
        loops += 1
        cur = unseen.pop()
        while nxt := [v for v in adj[cur] if v in unseen]:
            cur = nxt[0]
            unseen.remove(cur)
    return nonmanifold, len(ends[0]), loops


def mesh_is_watertight(mesh):
    """True when every interior edge is shared by exactly 2 faces and the
    only boundary is the single rim loop."""
    nonmanifold, boundary, loops = mesh_boundary_report(mesh)
    return nonmanifold == 0 and loops == 1 and boundary > 0


def export_obj(mesh, path):
    """Write Wavefront OBJ (deterministic bytes); refuses empty meshes."""
    if len(mesh.vertices) == 0 or len(mesh.faces) == 0:
        raise EvaluationError(f"refusing to write empty mesh to {path}")
    v, f = mesh.vertices, mesh.faces + 1
    with open(path, "w") as fh:
        fh.write("# minimal-resistance body mesh\n"
                 + ("v %.10e %.10e %.10e\n" * len(v)) % tuple(v.ravel().tolist())
                 + ("f %d %d %d\n" * len(f)) % tuple(f.ravel().tolist()))
