"""Command line front end.

Subcommands: solve, table, constants, check, mesh, resistance.  Exit codes:
0 success, 1 usage error, 2 solver/domain failure (no root, invalid scale
parameter, blow-up), 3 certificate-check failure.  All numeric output is
formatted explicitly so repeated runs are byte-identical.
"""

import argparse
import ctypes
import functools
import json
import math
import os
import sys
# unused here: perfbench/spans.py wraps this module binding by name
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
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
        items = [f"{inner}{json.dumps(str(k))}: {_jdump(v, indent + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
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


def _resolution(cap):
    """Parser of an integer resolution in [8, cap]."""
    def parse(text):
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if n < 8:
            raise argparse.ArgumentTypeError(f"must be >= 8, got {n}")
        if n > cap:
            raise argparse.ArgumentTypeError(f"must be <= {cap}, got {n}")
        return n
    return parse


def _out_path(text):
    if not text:   # _emit would print to stdout instead
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def _obj_path(text):
    # the sidecar would overwrite the mesh, on a case-insensitive filesystem too
    if Path(_out_path(text)).suffix.lower() == ".json":
        raise argparse.ArgumentTypeError(f"must not end in .json, got {text!r}")
    return text


def _add_size_arg(sub):
    g = sub.add_mutually_exclusive_group(required=True)
    g.add_argument("--M", type=_positive, help="prescribed body height")
    g.add_argument("--p0", type=_positive, help="prescribed edge slope in (sqrt(3), 6.7039e153]")


def _solution_from_args(args):
    if args.p0 is not None:
        return extremal.solve_for_edge_slope(args.p0)
    return extremal.solve_for_height(args.M)


def _solution_dict(sol):
    return {"M": sol.M, "p0": sol.p0, "r": sol.r, "slope0": sol.slope0,
            "J": sol.J, "resistance": 2.0 * sol.J}


@functools.cache
def build_parser():
    """The argument parser, built once per process; parse_args keeps no state in it."""
    ap = _Parser(prog="newton-minres",
                 description="Minimal-resistance convex bodies with one flat "
                             "symmetry cross-section")
    sp = ap.add_subparsers(dest="command", required=True)

    s = sp.add_parser("solve", help="solve for a given height or edge slope")
    _add_size_arg(s)
    s.add_argument("--format", choices=("json", "text"), default="json")
    s.add_argument("--out", type=_out_path, default=None)

    t = sp.add_parser("table", help="solve a list of heights, print a table")
    t.add_argument("--rows", type=_numbers, default=DEFAULT_TABLE_ROWS,
                   help="comma-separated heights M")
    t.add_argument("--format", choices=("csv", "json"), default="csv")
    t.add_argument("--out", type=_out_path, default=None)

    c = sp.add_parser("constants", help="scale-out limit constants")
    c.add_argument("--format", choices=("json", "text"), default="json")
    c.add_argument("--out", type=_out_path, default=None)

    k = sp.add_parser("check", help="run the optimality-certificate battery")
    k.add_argument("--alpha", type=_numbers, action="append", default=None,
                   help="scale parameter(s) in [0, 1/3); repeat or comma-separate")
    k.add_argument("--inject-fault", action="store_true",
                   help="perturb the switching radius to demonstrate detection")
    k.add_argument("--out", type=_out_path, default=None)

    m = sp.add_parser("mesh", help="triangulate the body and write an OBJ file")
    _add_size_arg(m)
    # a mesh takes about 80 MB plus 4 kB per curve sample; more exhausts memory
    m.add_argument("--resolution", type=_resolution(65536), default=1024,
                   help="curve sample count (rim fan uses resolution/4)")
    m.add_argument("--out", type=_obj_path, required=True, help="output .obj path")

    r = sp.add_parser("resistance", help="direct drag integral vs 2*J")
    _add_size_arg(r)
    r.add_argument("--resolution", type=_resolution(functional.N_MAX), default=48,
                   help="Gauss-Legendre nodes per axis of each piece of the direct integral")
    r.add_argument("--out", type=_out_path, default=None)
    return ap


def _emit_record(d, args):
    text = "\n".join(f"{k} = {_fmt(v)}" for k, v in d.items())
    _emit(text if args.format == "text" else _jdump(d), args.out)
    return 0


def _cmd_solve(args):
    return _emit_record(_solution_dict(_solution_from_args(args)), args)


def _cmd_table(args):
    def row(m):
        try:
            sol = extremal.solve_for_height(m)
            return (m, sol.p0, sol.r, sol.slope0, sol.J, None)
        except SolverError as exc:
            return (m, None, None, None, None, str(exc))

    rows = [row(m) for m in args.rows]

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
    for m, *_rest, err in failed:   # the row's label, unless err names it
        label = f"M={m}"
        print(err if label in err.split() else f"{label}: {err}", file=sys.stderr)
    return 2 if failed else 0


def _cmd_constants(args):
    lc = extremal.limit_constants()
    d = {
        "switch_radius": lc.r_hat,
        "flat_height": lc.M_hat,            # kappa(0) = height of the flat cut
        "arc_value_at_zero": lc.arc_value0,
        "switch_slope": lc.slope_hat,       # kappa'(rho)
        "arc_slope_at_zero": lc.arc_slope0,
        "J_limit": lc.J_hat,
    }
    return _emit_record(d, args)


def _check_one(alpha, inject_fault):
    prof = extremal.assemble_profile(alpha)
    if inject_fault:
        prof = extremal.ScaledProfile.at_switch(alpha, prof.nu, prof.rho + 1e-2)
    switch_val, verdicts = extremal.certify(prof)
    return {"alpha": alpha, "rho": prof.rho, "switch_integral": switch_val,
            "verdicts": verdicts, "pass": all(verdicts.values())}


def _cmd_check(args):
    lists = args.alpha if args.alpha is not None else [_numbers(DEFAULT_CHECK_ALPHAS)]
    alphas = [a + 0.0 for chunk in lists for a in chunk]   # -0.0 + 0.0 is +0.0
    reports = [_check_one(a, args.inject_fault) for a in alphas]
    ok = all(r["pass"] for r in reports)
    text = _jdump({"pass": ok, "alphas": alphas, "reports": reports})
    _emit(text, args.out)
    return 0 if ok else 3


def _cmd_mesh(args):
    sol = _solution_from_args(args)
    mesh = geometry.build_mesh(sol, n_profile=args.resolution,
                               n_circle=max(args.resolution // 4, 4))
    counts = {"n_vertices": len(mesh.vertices), "n_faces": len(mesh.faces),
              "watertight": geometry.mesh_is_watertight(mesh)}
    out = Path(args.out)
    geometry.export_obj(mesh, out)
    out.with_suffix(".json").write_text(_jdump({**_solution_dict(sol), **counts}) + "\n")
    print(_jdump({"out": str(out), "sidecar": str(out.with_suffix('.json')), **counts}))
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


@functools.cache
def _keep_freed_heap():
    """On glibc, once per process: keep 16 MiB of freed heap past a trim
    (M_TOP_PAD = -2), so scratch arrays are not faulted in afresh (about
    525 faults instead of 1,400 for `resistance`, 1,200 instead of 2,150
    for `mesh`), and mmap only blocks of 32 MiB or more
    (M_MMAP_THRESHOLD = -3), the ceiling glibc raises that threshold to by
    itself until either is set.  Returns 1 when glibc takes both, None on
    another C library."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):   # no confstr, or no such name
        return None
    if not (libc or "").startswith("glibc"):
        return None
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return mallopt(-3, 32 << 20) & mallopt(-2, 16 << 20)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    _keep_freed_heap()
    try:
        return _DISPATCH[args.command](args)
    except (SolverError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
