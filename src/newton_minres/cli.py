"""Command line front end.

Subcommands: solve, table, constants, check, mesh, resistance.  Exit codes:
0 success, 1 usage error, 2 solver/domain failure (no root, invalid scale
parameter, blow-up), 3 certificate-check failure.  All numeric output is
formatted explicitly so repeated runs are byte-identical.
"""

import argparse
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import extremal, functional, geometry
from .errors import SolverError

DEFAULT_TABLE_ROWS = "0.5,1,1.5,2,2.5,5,10,50,100"
DEFAULT_CHECK_ALPHAS = "0,0.01,0.1"


def _fmt(x):
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".7e")
    if x is None:
        return "null"
    return json.dumps(str(x))


def _jdump(obj, indent=0):
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{json.dumps(str(k))}: {_jdump(v, indent + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        items = [f"{inner}{_jdump(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return _fmt(obj)


def _emit(text, out):
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _positive(text):
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not (x > 0.0 and math.isfinite(x)):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return x


def _numbers(text):
    """Comma-separated finite numbers, at least one."""
    try:
        xs = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        xs = []
    if not xs or not all(map(math.isfinite, xs)):
        raise argparse.ArgumentTypeError(
            f"must be comma-separated finite numbers, got {text!r}")
    return xs


def _resolution(text):
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if n < 8:
        raise argparse.ArgumentTypeError(f"must be >= 8, got {n}")
    return n


def _even_resolution(text):
    n = _resolution(text)
    if n % 2:
        raise argparse.ArgumentTypeError(f"must be even, got {n}")
    return n


def _add_size_arg(sub):
    g = sub.add_mutually_exclusive_group(required=True)
    g.add_argument("--M", type=_positive, help="prescribed body height")
    g.add_argument("--p0", type=_positive, help="prescribed edge slope (sqrt(3), inf)")


def _solution_from_args(args):
    if args.p0 is not None:
        alpha = 1.0 / (args.p0 * args.p0)
        return extremal.unscale(extremal.assemble_profile(alpha, args.tol), args.p0)
    return extremal.solve_for_height(args.M, tol=args.tol)


def _solution_dict(sol):
    return {"M": sol.M, "p0": sol.p0, "r": sol.r, "slope0": sol.slope0,
            "J": sol.J, "resistance": 2.0 * sol.J}


def build_parser():
    ap = _Parser(prog="newton-minres",
                 description="Minimal-resistance convex bodies with one flat "
                             "symmetry cross-section")
    sp = ap.add_subparsers(dest="command", required=True)

    s = sp.add_parser("solve", help="solve for a given height or edge slope")
    _add_size_arg(s)
    s.add_argument("--tol", type=_positive, default=1e-10)
    s.add_argument("--format", choices=("json", "text"), default="json")
    s.add_argument("--out", default=None)

    t = sp.add_parser("table", help="solve a list of heights, print a table")
    t.add_argument("--rows", type=_numbers, default=DEFAULT_TABLE_ROWS,
                   help="comma-separated heights M")
    t.add_argument("--tol", type=_positive, default=1e-10)
    t.add_argument("--format", choices=("csv", "json"), default="csv")
    t.add_argument("--out", default=None)

    c = sp.add_parser("constants", help="scale-out limit constants")
    c.add_argument("--format", choices=("json", "text"), default="json")
    c.add_argument("--out", default=None)

    k = sp.add_parser("check", help="run the optimality-certificate battery")
    k.add_argument("--alpha", type=_numbers, action="append", default=None,
                   help="scale parameter(s) in [0, 1/3); repeat or comma-separate")
    k.add_argument("--tol", type=_positive, default=1e-10)
    k.add_argument("--inject-fault", action="store_true",
                   help="perturb the switching radius to demonstrate detection")
    k.add_argument("--out", default=None)

    m = sp.add_parser("mesh", help="triangulate the body and write an OBJ file")
    _add_size_arg(m)
    m.add_argument("--tol", type=_positive, default=1e-10)
    m.add_argument("--resolution", type=_resolution, default=1024,
                   help="curve sample count (rim fan uses resolution/4)")
    m.add_argument("--out", required=True, help="output .obj path")

    r = sp.add_parser("resistance", help="direct drag integral vs 2*J")
    _add_size_arg(r)
    r.add_argument("--tol", type=_positive, default=1e-10)
    r.add_argument("--resolution", type=_even_resolution, default=800,
                   help="radial grid size of the direct integral")
    r.add_argument("--out", default=None)
    return ap


def _cmd_solve(args):
    sol = _solution_from_args(args)
    d = _solution_dict(sol)
    if args.format == "text":
        text = "\n".join(f"{k} = {_fmt(v)}" for k, v in d.items())
    else:
        text = _jdump(d)
    _emit(text, args.out)
    return 0


def _cmd_table(args):
    heights = args.rows

    def row(m):
        try:
            sol = extremal.solve_for_height(m, tol=args.tol)
            return (m, sol.p0, sol.r, sol.slope0, sol.J, None)
        except SolverError as exc:
            return (m, None, None, None, None, str(exc))

    with ThreadPoolExecutor(max_workers=functional.thread_count()) as pool:
        rows = list(pool.map(row, heights))

    failed = [r for r in rows if r[5] is not None]
    if args.format == "json":
        payload = [{"M": m, "p0": p0, "r": r, "vprime0": s, "J": j, "error": err}
                   for m, p0, r, s, j, err in rows]
        text = _jdump(payload)
    else:
        lines = ["M,p0,r,vprime0,J"]
        for m, p0, r, s, j, err in rows:
            if err is not None:
                lines.append(f"{m:.6g},FAILED,FAILED,FAILED,FAILED")
            else:
                lines.append(f"{m:.6g},{p0:.6g},{r:.6g},{s:.6g},{j:.6g}")
        text = "\n".join(lines)
    _emit(text, args.out)
    if failed:
        for m, *_rest, err in failed:
            print(f"M={m}: {err}", file=sys.stderr)
        return 2
    return 0


def _cmd_constants(args):
    lc = extremal.limit_constants()
    prof = extremal.assemble_profile(0.0)
    d = {
        "switch_radius": lc.r_hat,
        "flat_height": lc.M_hat,            # kappa(0) = height of the flat cut
        "arc_value_at_zero": float(prof.nu(0.0)),
        "switch_slope": lc.slope_hat,       # kappa'(rho)
        "arc_slope_at_zero": float(prof.nu.derivative(0.0)),
        "J_limit": lc.J_hat,
    }
    if args.format == "text":
        text = "\n".join(f"{k} = {_fmt(v)}" for k, v in d.items())
    else:
        text = _jdump(d)
    _emit(text, args.out)
    return 0


def _check_one(alpha, tol, inject_fault):
    prof = extremal.assemble_profile(alpha, tol)
    if inject_fault:
        rho = prof.rho + 1e-2
        value, slope, _ = prof.nu.eval(rho)
        height0 = value - rho * slope
        prof = extremal.ScaledProfile(alpha=alpha, rho=rho, nu=prof.nu,
                                      slope=slope, height0=height0)

    verdicts = {}
    switch_val = extremal.I_of(prof.rho, alpha, prof.nu)
    verdicts["switching_zero"] = abs(switch_val) < 1e-10

    adj = extremal.adjoint_omega(prof)
    interior = (adj.q > 0.01) & (adj.q < prof.rho - 0.01)
    # omega(0) = -I(rho); with the switching condition satisfied it vanishes
    verdicts["adjoint_negative"] = (bool(np.all(adj.omega[interior] < 0.0))
                                    and abs(adj.omega[0]) < 1e-8)

    min_abs, _ = extremal.jacobi_check(prof)
    verdicts["no_conjugate_point"] = min_abs > 0.0

    try:
        extremal.field_jacobian_check(alpha)
        verdicts["field_sign_constant"] = True
    except SolverError:
        verdicts["field_sign_constant"] = False

    x2, x3 = extremal.nu_derivatives_at_one(alpha)[2:]
    verdicts["endpoint_taylor"] = (
        abs(prof.nu.second(1.0) - x2) < 1e-6 and abs(prof.nu.third(1.0) - x3) < 1e-6)

    if alpha == 0.0:
        closed = extremal.I_closed_form_alpha0(prof.rho, prof.nu)
        verdicts["switching_closed_form"] = abs(switch_val - closed) < 1e-8
        resid = max(abs(extremal.abel_residual(prof.nu, q)) for q in (0.3, 0.5, 0.9))
        verdicts["abel_reduction"] = resid < 1e-6
    else:
        p0 = 1.0 / np.sqrt(alpha)
        sol = extremal.unscale(prof, p0)
        ju = functional.J_unscaled(sol)
        verdicts["scaling_identity"] = abs(ju - sol.J) < 1e-8 * abs(sol.J)

    report = {"alpha": alpha, "rho": prof.rho, "switch_integral": switch_val,
              "verdicts": verdicts, "pass": all(verdicts.values())}
    return report


def _cmd_check(args):
    lists = args.alpha if args.alpha is not None else [_numbers(DEFAULT_CHECK_ALPHAS)]
    alphas = [a for chunk in lists for a in chunk]
    reports = [_check_one(a, args.tol, args.inject_fault) for a in alphas]
    ok = all(r["pass"] for r in reports)
    text = _jdump({"pass": ok, "alphas": alphas, "reports": reports})
    _emit(text, args.out)
    return 0 if ok else 3


def _cmd_mesh(args):
    sol = _solution_from_args(args)
    mesh = geometry.build_mesh(sol, n_profile=args.resolution,
                               n_circle=max(args.resolution // 4, 4))
    watertight = geometry.mesh_is_watertight(mesh)
    out = Path(args.out)
    geometry.export_obj(mesh, out)
    sidecar = dict(_solution_dict(sol))
    sidecar.update({"n_vertices": len(mesh.vertices), "n_faces": len(mesh.faces),
                    "watertight": watertight})
    out.with_suffix(".json").write_text(_jdump(sidecar) + "\n")
    print(_jdump({"out": str(out), "sidecar": str(out.with_suffix('.json')),
                  "n_vertices": len(mesh.vertices), "n_faces": len(mesh.faces),
                  "watertight": watertight}))
    return 0


def _cmd_resistance(args):
    sol = _solution_from_args(args)
    ev = geometry.BodyEvaluator(sol)
    direct = functional.resistance_direct(ev, n=args.resolution)
    two_j = 2.0 * sol.J
    d = {"M": sol.M, "resistance_direct": direct, "two_J": two_j,
         "rel_diff": abs(direct - two_j) / abs(two_j)}
    _emit(_jdump(d), args.out)
    return 0


_DISPATCH = {
    "solve": _cmd_solve,
    "table": _cmd_table,
    "constants": _cmd_constants,
    "check": _cmd_check,
    "mesh": _cmd_mesh,
    "resistance": _cmd_resistance,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
