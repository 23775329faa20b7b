"""Body geometry: conjugate profile, height-function evaluation, meshing.

The body over the unit disk is the convex hull of the rim circle
{x1^2+x2^2=1, z=0} and the symmetry-plane cross-section curve
z = w(x1) (x2=0), where w is the concave-side conjugate of the supporting
slope curve:

    w(x1) = -M                         for |x1| <= slope0,
    w(x1) = p*x1 - v(p), v'(p) = x1    for slope0 < |x1| <= 1.

Two independent height evaluators:

* the hull route (fast, vectorized): every boundary point lies on a segment
  from a curve point (y, 0, w(y)) to a rim point, and the segment through a
  given (x1, x2) at parameter y has height lam(y; x)*w(y) with lam the
  smaller root of A*lam^2 - 2*B*lam + C = 0,

      lam = C / (B + sqrt(D)),  A = 1-y^2, B = 1-x1*y, C = 1-|x|^2,
      D = B^2 - A*C = (x1-y)^2 + x2^2*A;

  minimizing over y gives u(x1, x2) (coarse lattice + vectorized golden
  section).  Because u = min_y lam(y; x)*w(y) over a fixed y range, its
  gradient is the x-gradient of the chord height at the minimizer y*
  (Danskin's envelope theorem); implicit differentiation of the quadratic
  gives

      grad u = w(y*) * ((y*lam - x1) / sqrt(D), -x2 / sqrt(D)),

  which holds at y* = +-1 too.  D vanishes only on the ridge x2 = 0 at
  y* = x1: u has a crease along the cross-section curve, and the gradient
  is not defined there (the midpoint grids of the 2-D oracle never sample
  x2 = 0).

* the conjugate route (slow, used for cross-checks): u as the biconjugate
  sup_p <p, x> - max(|p|, v(|p1|)) over a polar grid with coordinatewise
  golden refinement.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, EvaluationError

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
_CHUNK = 40_000   # points per vectorized pass; sized to stay in cache


def _chord(y, x1, x2sq, c):
    """lam and sqrt(D) of the chord from curve point y through (x1, x2).

    C / (B + sqrt(D)) has no cancellation and needs no branch at y = +-1.
    """
    sd = np.sqrt((x1 - y) ** 2 + x2sq * (1.0 - y * y))
    return c / np.maximum(1.0 - x1 * y + sd, 1e-300), sd


# ---------------------------------------------------------------------------
# conjugate curve table
# ---------------------------------------------------------------------------

class _VStarTable:
    """Dense cubic-Hermite table of w(y) on [slope0, 1] with exact slope p(y)."""

    def __init__(self, sol, n_nodes=4097):
        s0 = float(sol.slope0)
        p0 = float(sol.p0)
        r = float(sol.r)
        self.sol = sol
        self.s0 = s0
        self.M = float(sol.M)
        self.y_nodes = np.linspace(s0, 1.0, int(n_nodes))
        self.h = (1.0 - s0) / (int(n_nodes) - 1)

        dense_p = np.linspace(r, p0, 2 * int(n_nodes) + 1)
        dense_y = np.asarray(sol.v_deriv(dense_p), float)
        dense_y[0], dense_y[-1] = s0, 1.0  # exactize the monotone table ends
        p = np.interp(self.y_nodes, dense_y, dense_p)
        for _ in range(2):
            resid = np.asarray(sol.v_deriv(p), float) - self.y_nodes
            p = np.clip(p - resid / np.asarray(sol.v_second(p), float), r, p0)
        p[0], p[-1] = r, p0
        self.p_nodes = p
        self.z_nodes = p * self.y_nodes - np.asarray(sol.v(p), float)

    def p_of_slope(self, yabs):
        """Generator parameter p with v'(p) = y, vectorized, y in [slope0, 1]."""
        yabs = np.asarray(yabs, float)
        p = np.interp(yabs, self.y_nodes, self.p_nodes)
        sol = self.sol
        for _ in range(2):
            resid = np.asarray(sol.v_deriv(p), float) - yabs
            p = np.clip(p - resid / np.asarray(sol.v_second(p), float),
                        self.p_nodes[0], self.p_nodes[-1])
        return p

    def eval(self, y):
        """w(y) for y in [-1, 1] (even; flat -M inside [-slope0, slope0])."""
        ya = np.abs(np.asarray(y, float))
        ya = np.minimum(ya, 1.0)
        out = np.full(ya.shape, -self.M)
        m = ya > self.s0
        if np.any(m):
            s = (ya[m] - self.s0) / self.h
            j = np.clip(s.astype(int), 0, len(self.y_nodes) - 2)
            s = s - j
            z0 = self.z_nodes[j]
            z1 = self.z_nodes[j + 1]
            m0 = self.p_nodes[j] * self.h
            m1 = self.p_nodes[j + 1] * self.h
            s2 = s * s
            s3 = s2 * s
            out[m] = (z0 * (2 * s3 - 3 * s2 + 1) + m0 * (s3 - 2 * s2 + s)
                      + z1 * (-2 * s3 + 3 * s2) + m1 * (s3 - s2))
        return out


@dataclass(frozen=True)
class MaxwellCurve:
    """Sampled symmetry-plane cross-section z = w(x1), plus its corner data.

    flat_half_width: half-width of the flat bottom (equals the switch slope),
    corner_jump: jump of w' at the corner (equals the flat radius r),
    edge_slope: one-sided |w'| at x1 = +-1 (equals p0).
    """
    samples: np.ndarray
    flat_half_width: float
    corner_jump: float
    edge_slope: float

    def __post_init__(self):
        if self.samples.ndim != 2 or self.samples.shape[1] != 2:
            raise DomainError("samples must be an (n, 2) array of (x1, z)")


def conjugate_profile(sol, n=512):
    """MaxwellCurve with exactly n uniform samples of w over x1 in [-1, 1]."""
    n = int(n)
    if n < 8:
        raise DomainError(f"need at least 8 samples, got {n}")
    table = _VStarTable(sol)
    x1 = np.linspace(-1.0, 1.0, n)
    z = table.eval(x1)
    return MaxwellCurve(samples=np.column_stack([x1, z]),
                        flat_half_width=float(sol.slope0),
                        corner_jump=float(sol.r),
                        edge_slope=float(sol.p0))


def export_profile_csv(curve, path):
    """Write the curve samples as CSV with header x1,z (deterministic bytes)."""
    rows = ["x1,z"]
    for x1, z in curve.samples:
        rows.append(f"{x1:.10e},{z:.10e}")
    data = "\n".join(rows) + "\n"
    with open(path, "w") as fh:
        fh.write(data)


# ---------------------------------------------------------------------------
# height evaluation
# ---------------------------------------------------------------------------

class BodyEvaluator:
    """Vectorized height function u(x1, x2) of the body (hull route)."""

    def __init__(self, sol, n_table=4097, n_coarse=97, golden_iters=48):
        self.sol = sol
        self.table = _VStarTable(sol, n_table)
        s0 = self.table.s0
        step = max(1, (n_table - 1) // n_coarse)
        curv = self.table.y_nodes[::step]
        if curv[-1] != 1.0:
            curv = np.append(curv, 1.0)
        flat = np.linspace(-s0, s0, 9)
        # unique: duplicate candidates break the [j-1, j+1] bracket around ties
        self.cand = np.unique(np.concatenate([-curv[::-1], flat, curv]))
        self.cand_w = self.table.eval(self.cand)
        self.golden_iters = int(golden_iters)

    def vstar(self, y):
        """Cross-section height w(y) (vectorized; even in y)."""
        y = np.asarray(y, float)
        if np.any(np.abs(y) > 1.0 + 1e-9):
            raise EvaluationError("w is only defined on [-1, 1]")
        out = self.table.eval(y)
        return float(out) if out.ndim == 0 else out

    def _minimize(self, x1, x2):
        """Minimizing generator y* and chord height lam(y*)*w(y*) per point."""
        x2sq = x2 * x2
        c = 1.0 - x1 * x1 - x2sq
        if np.any(c < -1e-9):
            raise EvaluationError("point outside the unit disk")
        c = np.maximum(c, 0.0)

        best = np.zeros_like(x1)           # value from rim supports (y=+-1)
        bestj = np.zeros(x1.shape, dtype=np.int32)
        for j, (yc, wc) in enumerate(zip(self.cand, self.cand_w)):
            f = _chord(yc, x1, x2sq, c)[0] * wc
            m = f < best
            best = np.where(m, f, best)
            bestj[m] = j

        lastj = len(self.cand) - 1
        lo = self.cand[np.maximum(bestj - 1, 0)]
        hi = self.cand[np.minimum(bestj + 1, lastj)]

        fy = lambda y: _chord(y, x1, x2sq, c)[0] * self.table.eval(y)
        a, b = lo, hi
        cpt = b - _INVPHI * (b - a)
        dpt = a + _INVPHI * (b - a)
        fc = fy(cpt)
        fd = fy(dpt)
        for _ in range(self.golden_iters):
            m = fc < fd
            a = np.where(m, a, cpt)
            b = np.where(m, dpt, b)
            cn = b - _INVPHI * (b - a)
            dn = a + _INVPHI * (b - a)
            probe = np.where(m, cn, dn)
            fp = fy(probe)
            new_c = np.where(m, cn, dpt)
            new_d = np.where(m, cpt, dn)
            new_fc = np.where(m, fp, fd)
            new_fd = np.where(m, fc, fp)
            cpt, dpt, fc, fd = new_c, new_d, new_fc, new_fd
        mid = 0.5 * (a + b)
        ys = np.stack([self.cand[bestj], cpt, dpt, mid])
        fs = np.stack([best, fc, fd, fy(mid)])
        k = np.argmin(fs, axis=0)
        pick = np.arange(len(x1))
        return ys[k, pick], fs[k, pick], x2sq, c

    def _height(self, x1, x2):
        return np.minimum(self._minimize(x1, x2)[1], 0.0)

    def _gradient(self, x1, x2):
        # Danskin: grad u = w(y*) grad_x lam(y*; x), from implicit
        # differentiation of A lam^2 - 2 B lam + C = 0
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

    evaluate = __call__


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
    if x1 * x1 + x2 * x2 > 1.0 + 1e-9:
        raise EvaluationError("point outside the unit disk")
    ax2 = abs(x2)

    def seam_gain(p1):
        v = np.asarray(sol.v(np.abs(p1)), float)
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
        if np.any(rad2 > 1.0 + 1e-9):
            raise DomainError("vertex outside the unit cylinder")
        if np.any(v[:, 2] > 1e-9):
            raise DomainError("vertex above z = 0")
        m = self.metadata.get("M")
        if m is not None and np.any(v[:, 2] < -float(m) - 1e-9):
            raise DomainError("vertex below z = -M")


def build_mesh(sol, n_profile=1024, n_circle=256):
    """Triangulate the lower surface from the ruled-generator structure.

    Curve samples are uniform in the conjugate variable y; each pairs with
    the rim point at angle phi, cos(phi) = p / v(p) along its generator.
    The flat part of the curve fans out to the rim arc between the corner
    angle and the axis, and two planar keel triangles connect the corner
    points to (0, +-1, 0).
    """
    P = int(n_profile)
    C = int(n_circle)
    if P < 8 or C < 4:
        raise DomainError(f"resolution too small: n_profile={P}, n_circle={C}")
    table = _VStarTable(sol, max(2 * P + 1, 1025))
    s0 = table.s0
    M = table.M

    y = np.linspace(s0, 1.0, P)
    z = table.eval(y)
    z[0] = -M
    pcur = table.p_of_slope(y)
    cphi = np.clip(pcur / np.asarray(sol.v(pcur), float), 0.0, 1.0)
    phi = np.arccos(cphi)             # decreasing: corner angle -> 0
    fan_phi = np.linspace(phi[0], 0.5 * np.pi, C)

    verts = []

    def add(px, py, pz):
        verts.append((float(px), float(py), float(pz)))
        return len(verts) - 1

    cr = [add(y[i], 0.0, z[i]) for i in range(P)]            # curve, right half
    cl = [add(-y[i], 0.0, z[i]) for i in range(P)]           # curve, left half

    def circle_row(side_x, side_y):
        # ruled rim points; the last one coincides with the curve endpoint
        row = [add(side_x * np.cos(phi[i]), side_y * np.sin(phi[i]), 0.0)
               for i in range(P - 1)]
        row.append(cr[P - 1] if side_x > 0 else cl[P - 1])
        return row

    def fan_row(side_x, side_y, first_idx, pole_idx):
        row = [first_idx]
        row += [add(side_x * np.cos(a), side_y * np.sin(a), 0.0) for a in fan_phi[1:-1]]
        row.append(pole_idx)
        return row

    north = add(0.0, 1.0, 0.0)
    south = add(0.0, -1.0, 0.0)

    ru_r = circle_row(+1.0, +1.0)
    ru_l = circle_row(-1.0, +1.0)
    rd_r = circle_row(+1.0, -1.0)
    rd_l = circle_row(-1.0, -1.0)
    fu_r = fan_row(+1.0, +1.0, ru_r[0], north)
    fu_l = fan_row(-1.0, +1.0, ru_l[0], north)
    fd_r = fan_row(+1.0, -1.0, rd_r[0], south)
    fd_l = fan_row(-1.0, -1.0, rd_l[0], south)

    va = np.asarray(verts)
    faces = []

    def tri(i, j, k):
        # orient clockwise in plan view so normals point downward/outward
        ax, ay = va[i, 0], va[i, 1]
        bx, by = va[j, 0], va[j, 1]
        cx, cy = va[k, 0], va[k, 1]
        cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        faces.append((i, j, k) if cross < 0.0 else (i, k, j))

    def ruled_strip(curve, circ):
        for i in range(P - 1):
            a, b = curve[i], curve[i + 1]
            cc, d = circ[i + 1], circ[i]
            if cc == b:
                tri(a, b, d)
            else:
                tri(a, b, cc)
                tri(a, cc, d)

    def fan_strip(apex, ring):
        for j in range(len(ring) - 1):
            tri(apex, ring[j], ring[j + 1])

    ruled_strip(cr, ru_r)
    ruled_strip(cr, rd_r)
    ruled_strip(cl, ru_l)
    ruled_strip(cl, rd_l)
    fan_strip(cr[0], fu_r)
    fan_strip(cr[0], fd_r)
    fan_strip(cl[0], fu_l)
    fan_strip(cl[0], fd_l)
    tri(cr[0], cl[0], north)
    tri(cr[0], cl[0], south)

    meta = {"M": M, "p0": float(sol.p0), "n_profile": P, "n_circle": C}
    return BodyMesh(vertices=va, faces=np.asarray(faces, dtype=np.int64), metadata=meta)


def mesh_boundary_report(mesh):
    """Edge-manifold audit: (nonmanifold edge count, boundary edge count, loop count)."""
    edges = {}
    for a, b, c in mesh.faces:
        for u, v in ((a, b), (b, c), (c, a)):
            key = (min(u, v), max(u, v))
            edges[key] = edges.get(key, 0) + 1
    nonmanifold = sum(1 for n in edges.values() if n > 2)
    boundary = [e for e, n in edges.items() if n == 1]

    adj = {}
    for u, v in boundary:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    if any(len(nb) != 2 for nb in adj.values()):
        return nonmanifold, len(boundary), -1  # boundary is not a disjoint loop union
    loops = 0
    seen = set()
    for start in adj:
        if start in seen:
            continue
        loops += 1
        cur, prev = start, None
        while True:
            seen.add(cur)
            nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
            prev, cur = cur, nxt
            if cur == start:
                break
    return nonmanifold, len(boundary), loops


def mesh_is_watertight(mesh):
    """True when every interior edge is shared by exactly 2 faces and the
    only boundary is the single rim loop."""
    nonmanifold, boundary, loops = mesh_boundary_report(mesh)
    return nonmanifold == 0 and loops == 1 and boundary > 0


def export_obj(mesh, path):
    """Write Wavefront OBJ (deterministic bytes); refuses empty meshes."""
    if len(mesh.vertices) == 0 or len(mesh.faces) == 0:
        raise EvaluationError(f"refusing to write empty mesh to {path}")
    lines = ["# minimal-resistance body mesh"]
    for x, y, z in mesh.vertices:
        lines.append(f"v {x:.10e} {y:.10e} {z:.10e}")
    for a, b, c in mesh.faces:
        lines.append(f"f {a + 1} {b + 1} {c + 1}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
