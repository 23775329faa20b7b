"""End-to-end acceptance battery.

One test per shipping criterion, each printing a single

    ACCEPTANCE <n> (<name>): PASS|FAIL

line straight to the terminal (capture disabled), so the verdicts are
visible in any run log.  Criteria with a runtime budget are timed on cold
caches: conftest's `cold_caches` empties the package's solver caches, so
the result does not depend on which modules ran before.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import (PlaneConeBody, arc_calculus, cold_caches, endpoint_weight_closed_form,
                      endpoint_weight_reference)
from newton_minres import (
    BodyEvaluator,
    I_closed_form_alpha0,
    I_of,
    abel_residual,
    adjoint_omega,
    assemble_profile,
    field_jacobian_check,
    jacobi_check,
    limit_constants,
    nu_derivatives_at_one,
    resistance_direct,
    solve_for_height,
    solve_nu,
    unscale,
)

# (M, p0, r, v'(0+), J) across the height family
TABLE_ROWS = [
    (0.5, 2.43337, 1.33559, 0.744669, 1.06309),
    (1.0, 3.71647, 1.22077, 0.632450, 0.597791),
    (1.5, 5.14856, 1.19669, 0.586444, 0.350482),
    (2.0, 6.64354, 1.23585, 0.564900, 0.222512),
    (2.5, 8.16986, 1.31540, 0.553467, 0.151524),
    (5.0, 15.9653, 1.96456, 0.536348, 0.041450),
    (10.0, 31.7371, 3.57283, 0.531668, 0.0106143),
    (50.0, 158.373, 17.2830, 0.530132, 4.27905e-4),
    (100.0, 316.727, 34.5295, 0.530084, 1.07002e-4),
]

CHECK_ALPHAS = (0.0, 0.01, 0.1)
_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0   # the golden-section ratio of criterion 7


@contextmanager
def verdict(capsys, num, name):
    ok = False
    try:
        yield
        ok = True
    finally:
        with capsys.disabled():
            print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}")


def test_criterion_1_parameter_table(capsys):
    with verdict(capsys, 1, "height-family parameter table"):
        cold_caches()
        heights = [row[0] for row in TABLE_ROWS]
        t0 = time.perf_counter()
        sols = {M: solve_for_height(M) for M in heights}
        elapsed = time.perf_counter() - t0

        for M, p0, r, vp0, J in TABLE_ROWS:
            sol = sols[M]
            assert sol.p0 == pytest.approx(p0, rel=1e-4), f"p0 at M={M}"
            assert sol.r == pytest.approx(r, rel=1e-4), f"r at M={M}"
            assert sol.slope0 == pytest.approx(vp0, rel=1e-4), f"v'(0) at M={M}"
            assert sol.J == pytest.approx(J, rel=5e-4), f"J at M={M}"
        assert elapsed < 10.0, f"table took {elapsed:.2f} s"


def test_criterion_2_limit_constants(capsys):
    with verdict(capsys, 2, "scale-out limit constants"):
        cold_caches()
        t0 = time.perf_counter()
        lc = limit_constants()
        prof = assemble_profile(0.0)
        nu0, nup0, _ = prof.nu.eval(0.0)
        elapsed = time.perf_counter() - t0

        assert lc.r_hat == pytest.approx(0.108984, abs=1e-5)
        assert lc.M_hat == pytest.approx(0.315736, abs=1e-5)
        assert nu0 == pytest.approx(0.315759, abs=1e-5)
        assert nup0 == pytest.approx(0.535055, abs=1e-5)
        assert lc.slope_hat == pytest.approx(0.530068, abs=1e-5)
        assert lc.J_hat == pytest.approx(10.7344, abs=1e-3)
        assert elapsed < 1.0, f"constants took {elapsed:.2f} s"


def test_criterion_3_direct_resistance_oracle(capsys):
    with verdict(capsys, 3, "2-D resistance oracle closure"):
        assert resistance_direct(PlaneConeBody()) == pytest.approx(np.pi, abs=1e-3)
        cone = PlaneConeBody(slope=1.0)
        assert resistance_direct(cone) == pytest.approx(np.pi / 2.0, abs=1e-3)

        for M in (0.5, 1.0, 1.5):
            sol = solve_for_height(M)
            body = BodyEvaluator(sol)
            t0 = time.perf_counter()
            direct = resistance_direct(body)
            elapsed = time.perf_counter() - t0
            assert direct == pytest.approx(2.0 * sol.J, rel=1e-2), f"M={M}"
            assert elapsed < 60.0, f"body M={M} took {elapsed:.1f} s"


def test_criterion_4_optimality_certificates(capsys):
    with verdict(capsys, 4, "first/second-order optimality battery"):
        for alpha in CHECK_ALPHAS:
            prof = assemble_profile(alpha)

            adj = adjoint_omega(prof)
            inside = (adj.q > 0.01) & (adj.q < prof.rho - 0.01)
            assert np.all(adj.omega[inside] < 0.0), f"adjoint sign at alpha={alpha}"
            assert abs(adj.omega[0]) < 1e-8, f"adjoint center value at alpha={alpha}"

            qs = np.linspace(prof.rho + 1e-3, 0.99, 200)
            resid = arc_calculus().residual(qs, *prof.eval(qs), alpha)
            assert np.max(np.abs(resid)) < 1e-6, f"stationarity residual at alpha={alpha}"

            min_abs, zeta = jacobi_check(prof)
            assert min_abs > 0.0, f"conjugate point at alpha={alpha}"

            sign = field_jacobian_check(prof, zeta)  # raises SignChange on failure
            assert sign in (-1, 1)


def test_criterion_5_analytic_identities(capsys):
    with verdict(capsys, 5, "independent analytic identities"):
        nu0 = solve_nu(0.0)
        for rho in (0.05, 0.1, 0.2, 0.5):
            gap = abs(I_of(rho, 0.0, nu0) - I_closed_form_alpha0(rho, nu0))
            assert gap <= 1e-8, f"switching closed form at rho={rho}"

        for alpha in (0.1, 0.2, 0.3):
            gap = abs(endpoint_weight_reference(alpha)
                      - endpoint_weight_closed_form(alpha))
            assert gap <= 1e-8, f"endpoint weight at alpha={alpha}"
        assert abs(endpoint_weight_closed_form(1.0 / 3.0)) <= 1e-10

        for q in (0.3, 0.5, 0.9):
            assert abs(abel_residual(nu0, q)) < 1e-6, f"first-order reduction at q={q}"


def test_criterion_6_endpoint_taylor_anchors(capsys):
    # third derivatives by the one-sided five-point difference of curvature
    # values at the end, k = 0..4 steps of delta inward
    delta = 5e-3
    back = np.arange(5)
    diff3 = np.array([25.0, -48.0, 36.0, -16.0, 3.0]) / (12.0 * delta)
    with verdict(capsys, 6, "endpoint Taylor anchors"):
        for alpha in (0.0, 0.01, 0.1):
            nu2 = solve_nu(alpha).eval(1.0 - delta * back)[2]
            _, _, d2, d3 = nu_derivatives_at_one(alpha)
            assert abs(nu2[0] - d2) <= 1e-6, f"2nd anchor at alpha={alpha}"
            assert abs(diff3 @ nu2 - d3) <= 1e-6, f"3rd anchor at alpha={alpha}"

        for p0 in (2.0, 5.0, 10.0):
            alpha = 1.0 / (p0 * p0)
            sol = unscale(assemble_profile(alpha), p0)
            v2 = (3.0 * p0**2 - 1.0) / (3.0 * p0 * (1.0 + p0**2))
            v3 = (3.0 * p0**4 + 2.0 * p0**2 + 1.0) / (2.0 * p0**2 * (1.0 + p0**2) ** 2)
            sol2 = sol.eval(p0 * (1.0 - delta * back))[2]
            assert abs(sol2[0] - v2) <= 1e-6, f"v'' at p0={p0}"
            measured_v3 = diff3 @ sol2 / p0
            assert abs(measured_v3 - v3) <= 1e-6, f"v''' at p0={p0}"


def test_criterion_7_convex_geometry(capsys):
    with verdict(capsys, 7, "convex-geometry properties"):
        sol = solve_for_height(1.0)
        ev = BodyEvaluator(sol)

        # conjugating twice returns the curve
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
            flat_cap = p * sol.slope0 + sol.M if p <= sol.r else -np.inf
            best = max(gains[j], fc, fd, flat_cap)
            assert best == pytest.approx(sol.eval(p)[0], abs=1e-7), f"roundtrip at p={p:.3f}"

        # cross-section corner facts, measured from the curve itself
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if ev.vstar(mid) <= -sol.M + 1e-12:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(sol.slope0, abs=1e-4)

        d = 1e-7
        jump = ((ev.vstar(sol.slope0 + d) - ev.vstar(sol.slope0)) / d
                - (ev.vstar(sol.slope0) - ev.vstar(sol.slope0 - d)) / d)
        assert jump == pytest.approx(sol.r, abs=1e-4)

        d = 1e-5
        edge = (ev.vstar(1.0) - ev.vstar(1.0 - d)) / d
        assert edge == pytest.approx(sol.p0, abs=1e-4)

        # convexity along random chords
        rng = np.random.default_rng(1234)
        th = rng.uniform(0.0, 2.0 * np.pi, (1000, 2))
        rr = np.sqrt(rng.uniform(0.0, 1.0, (1000, 2)))
        ax, ay = rr[:, 0] * np.cos(th[:, 0]), rr[:, 0] * np.sin(th[:, 0])
        bx, by = rr[:, 1] * np.cos(th[:, 1]), rr[:, 1] * np.sin(th[:, 1])
        mid = ev(0.5 * (ax + bx), 0.5 * (ay + by))
        assert np.all(mid <= 0.5 * (ev(ax, ay) + ev(bx, by)) + 1e-9)
