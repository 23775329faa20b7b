"""Conjugate curve, body evaluators, and mesh assembly.

The two height evaluators (ruled-chord minimum vs support-function sup)
share nothing but the solved curve itself, so their pointwise agreement is
the main correctness certificate for the 3-D geometry; the conjugate-pair
roundtrip pins the curve <-> cross-section map.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from newton_minres import (
    BodyEvaluator,
    BodyMesh,
    DomainError,
    EvaluationError,
    body_evaluate,
    build_mesh,
    export_obj,
    mesh_boundary_report,
    mesh_is_watertight,
)
from newton_minres.geometry import _INVPHI, _chord

RNG_SEED = 20240817


@pytest.fixture(scope="module")
def sol(solved):
    return solved(1.0)


@pytest.fixture(scope="module")
def ev(sol):
    return BodyEvaluator(sol)


# ---------------------------------------------------------------------------
# conjugate cross-section
# ---------------------------------------------------------------------------

def test_curve_sampling_and_fields(sol, ev):
    x1 = np.linspace(-1.0, 1.0, 512)
    z = ev.vstar(x1)
    # flat bottom at exactly -M, endpoints at 0, even, convex
    flat = np.abs(x1) <= sol.slope0
    np.testing.assert_allclose(z[flat], -sol.M, atol=1e-12)
    assert abs(z[0]) <= 1e-12 and abs(z[-1]) <= 1e-12
    np.testing.assert_allclose(z, z[::-1], atol=1e-12)
    assert np.all(np.diff(z, 2) >= -1e-9)


def test_cross_section_corner_facts_measured(sol, ev):
    s0, r, p0, M = sol.slope0, sol.r, sol.p0, sol.M

    # flat half-width by bisecting the edge of the {w = -M} set
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if ev.vstar(mid) <= -M + 1e-12:
            lo = mid
        else:
            hi = mid
    assert 0.5 * (lo + hi) == pytest.approx(s0, abs=1e-6)

    # slope jump at the corner equals the flat radius
    d = 1e-7
    right = (ev.vstar(s0 + d) - ev.vstar(s0)) / d
    left = (ev.vstar(s0) - ev.vstar(s0 - d)) / d
    assert right - left == pytest.approx(r, abs=1e-6)

    # one-sided slope magnitude at the rim equals the edge slope
    d = 1e-5
    assert (ev.vstar(1.0) - ev.vstar(1.0 - d)) / d == pytest.approx(p0, abs=1e-4)


def test_conjugate_pair_roundtrip(sol, ev):
    # v(p) must come back as sup_y (p*y - w(y)) (evaluated on the table
    # nodes plus a golden polish around the argmax)
    y_nodes = ev.table.y_nodes
    w_nodes = ev.table.z_nodes
    for p in np.linspace(0.0, sol.p0, 50):
        gains = p * y_nodes - w_nodes
        j = int(np.argmax(gains))
        a = y_nodes[max(j - 1, 0)]
        b = y_nodes[min(j + 1, len(y_nodes) - 1)]
        gain = lambda y: p * y - ev.vstar(y)
        c = b - _INVPHI * (b - a)
        d = a + _INVPHI * (b - a)
        fc, fd = gain(c), gain(d)
        for _ in range(60):
            if fc > fd:
                b, d, fd = d, c, fc
                c = b - _INVPHI * (b - a)
                fc = gain(c)
            else:
                a, c, fc = c, d, fd
                d = a + _INVPHI * (b - a)
                fd = gain(d)
        # p*y - w(y) caps out at p*s0 + M for p below the corner radius
        best = max(gains[j], fc, fd, p * sol.slope0 + sol.M if p <= sol.r else -np.inf)
        assert best == pytest.approx(sol.eval(p)[0], abs=1e-7)


# ---------------------------------------------------------------------------
# height evaluators
# ---------------------------------------------------------------------------

def test_evaluator_basic_values(sol, ev):
    assert ev(0.0, 0.0) == pytest.approx(-sol.M, abs=1e-9)
    assert ev(1.0, 0.0) == pytest.approx(0.0, abs=1e-9)
    th = np.linspace(0.0, 2.0 * np.pi, 37)
    rim = ev(np.cos(th), np.sin(th))
    np.testing.assert_allclose(rim, 0.0, atol=1e-9)
    with pytest.raises(EvaluationError):
        ev(1.01, 0.0)


def test_evaluator_section_is_cross_section(sol, ev):
    x1 = np.linspace(-1.0, 1.0, 41)
    np.testing.assert_allclose(ev(x1, np.zeros_like(x1)), ev.vstar(x1), atol=1e-8)
    # on the ridge the minimizer is y* = |x1| exactly, read from the same
    # cubic, also within 2000 ulps of the corners x1 = +-slope0
    near = sol.slope0 + np.arange(-2000, 2001) * np.spacing(sol.slope0)
    x1 = np.concatenate([np.linspace(-1.0, 1.0, 2001), near, -near])
    assert np.array_equal(ev(x1, np.zeros_like(x1)), ev.vstar(x1))


def test_chord_weight_stays_at_most_one_on_the_ridge():
    # just below y on the ridge lam = (1 + x1)/(1 + y) mathematically, which
    # rounds above 1 for some y; the flat branch -M*lam would then read
    # one ulp below -M
    y = np.random.default_rng(RNG_SEED + 3).uniform(0.3, 0.99, 20000)
    x1 = np.nextafter(y, 0.0)
    lam, sd = _chord(y, x1, 0.0, 1.0 - x1 * x1)
    assert np.all(sd > 0.0)
    assert np.all((lam <= 1.0) & (lam > 1.0 - 1e-13))


@pytest.mark.parametrize("M", [0.0875, 0.5, 1.0, 1.5, 2.5, 10.0])
def test_table_corner_is_exactly_the_flat_height(solved, M):
    # the cubic starts at exactly -M, so on the flat bottom and at the
    # corners the curved branch cannot undercut the flat one by an ulp
    sol = solved(M)
    ev = BodyEvaluator(sol)
    s0 = sol.slope0
    assert ev.table.jet(np.array([s0]))[0][0] == -sol.M
    near = s0 - np.arange(0, 2001) * np.spacing(s0)
    x1 = np.concatenate([np.linspace(-s0, s0, 2001), near, -near])
    assert np.array_equal(ev(x1, np.zeros_like(x1)), ev.vstar(x1))


def test_evaluator_symmetries_and_range(sol, ev):
    rng = np.random.default_rng(RNG_SEED)
    th = rng.uniform(0.0, 2.0 * np.pi, 300)
    rr = np.sqrt(rng.uniform(0.0, 1.0, 300))
    x1, x2 = rr * np.cos(th), rr * np.sin(th)
    u = ev(x1, x2)
    assert np.all(u <= 1e-12)
    assert np.all(u >= -sol.M - 1e-12)
    np.testing.assert_allclose(u, ev(x1, -x2), atol=1e-10)
    np.testing.assert_allclose(u, ev(-x1, -x2), atol=1e-10)


def test_evaluator_convex_along_chords(ev):
    rng = np.random.default_rng(RNG_SEED + 1)
    th = rng.uniform(0.0, 2.0 * np.pi, (1000, 2))
    rr = np.sqrt(rng.uniform(0.0, 1.0, (1000, 2)))
    ax, ay = rr[:, 0] * np.cos(th[:, 0]), rr[:, 0] * np.sin(th[:, 0])
    bx, by = rr[:, 1] * np.cos(th[:, 1]), rr[:, 1] * np.sin(th[:, 1])
    mid = ev(0.5 * (ax + bx), 0.5 * (ay + by))
    assert np.all(mid <= 0.5 * (ev(ax, ay) + ev(bx, by)) + 1e-9)


def test_sup_route_matches_hull_route(sol, ev):
    assert body_evaluate(ev, 1.0, 0.0) == pytest.approx(0.0, abs=1e-9)
    assert body_evaluate(ev, 0.0, 0.0) == pytest.approx(-sol.M, abs=1e-9)
    x1 = np.linspace(-0.99, 0.99, 21)
    for x in x1:
        assert body_evaluate(ev, x, 0.0) == pytest.approx(float(ev.vstar(x)), abs=1e-8)
    rng = np.random.default_rng(RNG_SEED + 2)
    th = rng.uniform(0.0, 2.0 * np.pi, 60)
    rr = np.sqrt(rng.uniform(0.0, 1.0, 60))
    for x, y in zip(rr * np.cos(th), rr * np.sin(th)):
        assert body_evaluate(ev, x, y) == pytest.approx(float(ev(x, y)), abs=1e-7)
    with pytest.raises(EvaluationError):
        body_evaluate(ev, 0.9, 0.9)


def _disk_points(seed, n, rmax=0.98):
    rng = np.random.default_rng(seed)
    th = rng.uniform(0.0, 2.0 * np.pi, n)
    rr = rmax * np.sqrt(rng.uniform(0.0, 1.0, n))
    return rr * np.cos(th), rr * np.sin(th)


@pytest.mark.parametrize("M", [0.5, 1.0, 3.0, 10.0])
def test_minimizer_beats_brute_force(solved, M):
    # u = min over y of lam(y; x)*w(y): no point may come out above the
    # minimum over a dense y grid
    body = BodyEvaluator(solved(M))
    x1, x2 = _disk_points(RNG_SEED + 6, 2000)
    u = body(x1, x2)
    x2sq = x2 * x2
    c = 1.0 - x1 * x1 - x2sq
    grid = np.linspace(-1.0, 1.0, 20_001)
    brute = np.zeros_like(x1)
    for ys in np.array_split(grid, 40):
        w = body.vstar(ys)[:, None]
        f = _chord(ys[:, None], x1, x2sq, c)[0] * w
        brute = np.minimum(brute, f.min(axis=0))
    assert np.all(u <= brute + 1e-13)


def _golden_minimum(body, x1, x2):
    """min over y in [-1, 1] of lam(y; x)*w(y), independent of the minimizer:
    the best node of a 4001-node y grid, then 80 golden-section steps over
    the two grid cells around it."""
    x2sq = x2 * x2
    c = np.maximum(1.0 - x1 * x1 - x2sq, 0.0)

    def F(y):
        return _chord(y, x1, x2sq, c)[0] * body.vstar(y)

    grid = np.linspace(-1.0, 1.0, 4001)
    best, j = np.full(x1.shape, np.inf), np.zeros(x1.shape, dtype=np.intp)
    for ks in np.array_split(np.arange(len(grid)), 40):
        f = F(grid[ks, None])
        k = f.argmin(axis=0)
        fk = f[k, np.arange(len(x1))]
        j = np.where(fk < best, ks[k], j)
        best = np.minimum(fk, best)
    a, b = grid[np.maximum(j - 1, 0)], grid[np.minimum(j + 1, len(grid) - 1)]
    c1, d1 = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    f1, f2 = F(c1), F(d1)
    for _ in range(80):
        left = f1 <= f2                 # the minimum lies in [a, d1]
        a, b = np.where(left, a, c1), np.where(left, d1, b)
        c1, d1 = np.where(left, b - _INVPHI * (b - a), d1), np.where(left, c1, a + _INVPHI * (b - a))
        f1, f2 = np.where(left, F(c1), f2), np.where(left, f1, F(d1))
    return np.minimum(best, np.minimum(f1, f2))


@pytest.mark.parametrize("M", [0.0875, 1.0, 10.0, 1e4])
def test_minimizer_matches_golden_section_reference(solved, M):
    # two-sided: u may sit neither above nor below the true minimum by more
    # than round-off.  One point in six is on the rim, where y* = +-1
    sol = solved(M)
    body = BodyEvaluator(sol)
    rng = np.random.default_rng(RNG_SEED + 8)
    th = rng.uniform(0.0, 2.0 * np.pi, 3000)
    rr = np.minimum(1.0, 1.1 * np.sqrt(rng.uniform(0.0, 1.0, 3000)))
    x1, x2 = rr * np.cos(th), rr * np.sin(th)
    y, u = body._minimize(x1, x2)[:2]
    assert np.any(np.abs(y) == sol.slope0) and np.any(np.abs(y) == 1.0)
    ref = np.minimum(_golden_minimum(body, x1, x2), 0.0)
    assert np.max(np.abs(u - ref)) <= 1e-14 * max(1.0, M)


@pytest.mark.parametrize("M", [0.0875, 1.0, 10.0, 1e4])
def test_table_pieces_are_convex(solved, M):
    # the curved branch's single sign change of G (BodyEvaluator) rests on w
    # being convex; w_h'' is affine on each Hermite piece, so positive values
    # at both ends make every piece convex.  The least end value is 2.60 at
    # M = 0.0875 and grows with M
    table = BodyEvaluator(solved(M)).table
    _, _, c2, c3 = table.coef.T
    ends = np.concatenate([2.0 * c2, 6.0 * c3 + 2.0 * c2]) / (table.h * table.h)
    assert ends.min() > 0.0


@pytest.mark.parametrize("M", [0.5, 1.0, 3.0, 10.0])
def test_minimizer_flat_branch_is_closed_form(solved, M):
    # on the flat bottom the minimizing generator is x1/(1 - |x2|) exactly,
    # where x1 = y*lam; there u = -M*(1 - |x2|), so u_x1 vanishes up to the
    # round-off of a gradient of size M, which grows like M/|x2| (ridge cut)
    body = BodyEvaluator(solved(M))
    x1, x2 = _disk_points(RNG_SEED + 7, 2000)
    y = body._minimize(x1, x2)[0]
    flat = np.abs(y) < solved(M).slope0
    assert flat.sum() >= 500
    np.testing.assert_allclose(y[flat], x1[flat] / (1.0 - np.abs(x2[flat])),
                               rtol=0.0, atol=1e-14)
    keep = flat & (np.abs(x2) >= 1e-2)
    ux, _ = body.gradient(x1[keep], x2[keep])
    assert np.max(np.abs(ux)) <= 1e-14 * M


@pytest.mark.parametrize("M", [0.5, 1.5])
def test_gradient_matches_central_differences(solved, M):
    body = BodyEvaluator(solved(M))
    rng = np.random.default_rng(RNG_SEED + 4)
    th = rng.uniform(0.0, 2.0 * np.pi, 400)
    rr = 0.98 * np.sqrt(rng.uniform(0.0, 1.0, 400))
    x1, x2 = rr * np.cos(th), rr * np.sin(th)
    keep = np.abs(x2) >= 1e-2          # off the ridge x2 = 0, where u creases
    x1, x2 = x1[keep], x2[keep]
    assert len(x1) >= 200
    ux, uy = body.gradient(x1, x2)
    h = 1e-6
    fx = (body(x1 + h, x2) - body(x1 - h, x2)) / (2.0 * h)
    fy = (body(x1, x2 + h) - body(x1, x2 - h)) / (2.0 * h)
    np.testing.assert_allclose(ux, fx, rtol=0.0, atol=1e-5)
    np.testing.assert_allclose(uy, fy, rtol=0.0, atol=1e-5)


def test_gradient_mirror_symmetry_and_domain(ev):
    rng = np.random.default_rng(RNG_SEED + 5)
    th = rng.uniform(0.0, np.pi, 300)
    rr = np.sqrt(rng.uniform(0.0, 1.0, 300))
    x1, x2 = rr * np.cos(th), rr * np.sin(th)
    ux, uy = ev.gradient(x1, x2)
    mx, my = ev.gradient(x1, -x2)
    assert np.array_equal(mx, ux)      # u_x1 even in x2
    assert np.array_equal(my, -uy)     # u_x2 odd in x2
    gx, gy = ev.gradient(0.3, 0.4)
    assert isinstance(gx, float) and isinstance(gy, float)
    with pytest.raises(EvaluationError):
        ev.gradient(1.01, 0.1)


@pytest.mark.parametrize("M", [0.5, 1.0, 3.7, 9.9])
def test_evaluator_is_exactly_mirror_symmetric(solved, M):
    # resistance_direct sums one quadrant of a body that declares this, so
    # an asymmetry here would be hidden there
    body = BodyEvaluator(solved(M))
    assert body.mirror_symmetric
    rng = np.random.default_rng(RNG_SEED + 6)
    th = rng.uniform(0.0, 2.0 * np.pi, 20_000)
    rr = np.sqrt(rng.uniform(0.0, 1.0, 20_000))
    x1, x2 = rr * np.cos(th), rr * np.sin(th)
    keep = x2 != 0.0
    x1, x2 = x1[keep], x2[keep]
    u = body(x1, x2)
    ux, uy = body.gradient(x1, x2)
    for s1, s2 in ((-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)):
        assert np.array_equal(body(s1 * x1, s2 * x2), u)
        mx, my = body.gradient(s1 * x1, s2 * x2)
        assert np.array_equal(mx, s1 * ux)     # u_x1 odd in x1, even in x2
        assert np.array_equal(my, s2 * uy)     # u_x2 even in x1, odd in x2


# ---------------------------------------------------------------------------
# mesh
# ---------------------------------------------------------------------------

def test_mesh_smoke_minimal_resolution(sol):
    mesh = build_mesh(sol, n_profile=8, n_circle=4)
    assert mesh_is_watertight(mesh)
    nonmanifold, boundary, loops = mesh_boundary_report(mesh)
    assert (nonmanifold, loops) == (0, 1)
    assert boundary > 0
    with pytest.raises(DomainError):
        build_mesh(sol, n_profile=4, n_circle=4)


def _drop_faces_at(*vertices):
    return lambda f: f[~np.isin(f, vertices).any(axis=1)]


@pytest.mark.parametrize("damage, report", [
    (lambda f: f, (0, 312, 1)),
    (lambda f: np.delete(f, np.s_[::7], axis=0), (0, 467, -1)),
    (lambda f: np.vstack([f, f[:10]]), (16, 307, -1)),
    (lambda f: f[:len(f) // 2], (0, 163, -1)),
    (_drop_faces_at(10), (0, 314, 2)),
    (_drop_faces_at(10, 40), (0, 316, 3)),
], ids=["intact", "every-7th-dropped", "first-10-repeated", "first-half",
        "hole-at-10", "holes-at-10-and-40"])
def test_boundary_report_on_damaged_meshes(sol, damage, report):
    # (nonmanifold edges, boundary edges, loops); -1 loops when some boundary
    # vertex does not have exactly two boundary edges
    mesh = build_mesh(sol, n_profile=64, n_circle=16)
    damaged = BodyMesh(mesh.vertices, damage(mesh.faces), mesh.metadata)
    assert mesh_boundary_report(damaged) == report
    assert mesh_is_watertight(damaged) == (report == (0, 312, 1))


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_mesh_rejects_a_nan_vertex(sol, axis):
    mesh = build_mesh(sol, n_profile=64, n_circle=16)
    v = mesh.vertices.copy()
    v[100, axis] = np.nan
    with pytest.raises(DomainError):
        BodyMesh(v, mesh.faces, mesh.metadata)


# sha256 of faces.tobytes() at M = 1.0: the face order and the orientation
# of every triangle, which fix the OBJ's f lines
GOLDEN_MESH_FACES_SHA256 = {
    (8, 4): "4cec8b6335d2623a13d1ac82b20941e46f410a9adf647bbd3c9c53f5826eb4d2",
    (33, 5): "9b340e91e9d774140f916519a7fc3bd1f1573df3ed6725672309b41efa629c1d",
    (1024, 256): "40ddb0bf6c52cd71f5b609ef35a88f3bc188a5cb2c27e851987db79857bde5e5",
}


@pytest.mark.parametrize("P, C", sorted(GOLDEN_MESH_FACES_SHA256))
def test_mesh_counts_and_faces_are_pinned(sol, P, C):
    # 2P curve points, 4(P - 1) ruled rim points, 4(C - 2) fan rim points and
    # two poles; 4(2P - 3) ruled triangles, 4(C - 1) fan triangles, two keels
    mesh = build_mesh(sol, n_profile=P, n_circle=C)
    assert mesh.vertices.shape == (6 * P + 4 * C - 10, 3)
    assert mesh.faces.shape == (8 * P + 4 * C - 14, 3)
    assert mesh.faces.dtype == np.int64
    digest = hashlib.sha256(mesh.faces.tobytes()).hexdigest()
    assert digest == GOLDEN_MESH_FACES_SHA256[(P, C)]


def test_mesh_is_finite_where_the_corner_radius_rounds_onto_the_flat(sol):
    # r = p0*rho can round so that r/p0 < rho (about one height in ten in
    # [0.5, 10]); v then reads its flat side at p = r, where v'' = 0, and the
    # conjugate table's Newton step gave the first curve sample a NaN generator
    r = sol.r
    while r / sol.p0 >= sol.profile.rho:
        r = np.nextafter(r, 0.0)
    rounded = dataclasses.replace(sol, r=r)
    assert rounded.eval(r)[2] == 0.0
    mesh = build_mesh(rounded, n_profile=8, n_circle=4)
    assert np.all(np.isfinite(mesh.vertices))
    assert mesh_is_watertight(mesh)


def test_mesh_reaches_prescribed_depth(solved):
    sol15 = solved(1.5)
    mesh = build_mesh(sol15, n_profile=128, n_circle=32)
    assert mesh_is_watertight(mesh)
    assert mesh.vertices[:, 2].min() == pytest.approx(-1.5, abs=1e-9)
    assert mesh.metadata["M"] == pytest.approx(1.5, abs=1e-9)


def test_mesh_agrees_with_independent_evaluations(sol, ev):
    mesh = build_mesh(sol, n_profile=256, n_circle=64)
    V, F = mesh.vertices, mesh.faces
    rng = np.random.default_rng(RNG_SEED + 3)
    for i in rng.choice(len(V), 50, replace=False):
        x1, x2, z = V[i]
        assert z == pytest.approx(body_evaluate(ev, x1, x2), abs=1e-6)
    # the two u-evaluations also agree at face centroids
    for fi in rng.choice(len(F), 40, replace=False):
        cx, cy, _ = V[F[fi]].mean(axis=0)
        assert float(ev(cx, cy)) == pytest.approx(body_evaluate(ev, cx, cy), abs=1e-6)


def test_obj_export_roundtrip(sol, tmp_path):
    mesh = build_mesh(sol, n_profile=32, n_circle=8)
    path = tmp_path / "body.obj"
    export_obj(mesh, path)
    text = path.read_text().splitlines()
    nv = sum(1 for ln in text if ln.startswith("v "))
    nf = sum(1 for ln in text if ln.startswith("f "))
    assert nv == len(mesh.vertices)
    assert nf == len(mesh.faces)
    # 1-based indices within range
    for ln in text:
        if ln.startswith("f "):
            idx = [int(tok) for tok in ln.split()[1:]]
            assert all(1 <= k <= nv for k in idx)
    # deterministic bytes
    first = path.read_bytes()
    export_obj(mesh, path)
    assert path.read_bytes() == first
