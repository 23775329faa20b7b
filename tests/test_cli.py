"""Command-line interface, run in-process through main(argv).

Exit-code contract: 0 success, 1 usage error, 2 solver/validity/IO error,
3 certificate-check failure.  Output must be byte-deterministic for a
fixed invocation.
"""

import ast
import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys
import threading
import traceback
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import cold_caches
from newton_minres import (DomainError, NoRoot, SignChange, cli, extremal, functional,
                           geometry, singular_ode, solve_for_height)
from newton_minres.cli import DEFAULT_TABLE_ROWS, _check_one, main
from newton_minres.functional import P0_MAX

# a fresh _check_one call costs about 0.015-0.03 s on two vCPUs (mostly its
# one arc solve and its one Jacobi field), so this keeps the property test
# within a second
MAX_CHECK_EXAMPLES = 25
# a fresh height costs about 0.05 s (the height root, then _check_one)
MAX_HEIGHT_EXAMPLES = 10


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_by_height(capsys):
    code, out, _ = run(capsys, "solve", "--M", "1.0")
    assert code == 0
    d = json.loads(out)
    assert d["M"] == pytest.approx(1.0, rel=1e-8)
    assert d["p0"] == pytest.approx(3.71647, rel=5e-4)
    assert d["r"] == pytest.approx(1.22077, rel=5e-4)
    assert d["slope0"] == pytest.approx(0.632450, rel=5e-4)
    assert d["J"] == pytest.approx(0.597791, rel=5e-4)
    # both fields are serialized at 8 significant digits
    assert d["resistance"] == pytest.approx(2.0 * d["J"], rel=1e-7)


def test_solve_by_edge_slope(capsys):
    code, out, _ = run(capsys, "solve", "--p0", "2.43337")
    assert code == 0
    d = json.loads(out)
    assert d["M"] == pytest.approx(0.5, abs=1e-3)


def test_solve_text_format(capsys):
    code, out, _ = run(capsys, "solve", "--M", "1.0", "--format", "text")
    assert code == 0
    assert "p0 = " in out and "resistance = " in out


def test_solve_floats_use_seven_significant_digits(capsys):
    _, out, _ = run(capsys, "solve", "--M", "1.0")
    assert re.search(r'"p0": \d\.\d{7}e[+-]\d{2}', out)


def test_solve_usage_errors(capsys):
    code, _, err = run(capsys, "solve", "--M", "-1")
    assert code == 1
    assert "must be positive" in err
    assert run(capsys, "solve", "--M", "0")[0] == 1
    assert run(capsys, "solve")[0] == 1                       # size required
    assert run(capsys, "solve", "--M", "1", "--p0", "4")[0] == 1  # exclusive
    assert run(capsys, "solve", "--M", "abc")[0] == 1
    assert run(capsys, "bogus-command")[0] == 1


def test_solve_infeasible_height_is_a_solver_error(capsys):
    # positive but unreachably small height: parses fine, solver refuses
    code, _, err = run(capsys, "solve", "--M", "0.01")
    assert code == 2
    assert "error" in err


def test_solve_reaches_down_to_the_validity_edge(capsys):
    # the flat height falls to about 0.05 as alpha -> 1/3, so heights down
    # to about 0.0869 (p0 -> sqrt(3)) are reachable; below, the error names
    # the least reachable height
    code, out, _ = run(capsys, "solve", "--M", "0.1")
    assert code == 0
    assert json.loads(out)["M"] == pytest.approx(0.1, rel=1e-8)
    # the stated minimum, 0.0868616064 to 10 digits, rounds up, so it
    # exceeds each refused M, also one just below it
    for M in ("0.05", "0.0868601"):
        code, _, err = run(capsys, "solve", "--M", M)
        assert code == 2
        assert f"M={M} below the reachable range (min height 0.08686161 at the validity edge)" in err
    # p0 just below sqrt(3) names its alpha in full: six digits would
    # print 0.333333, which reads as inside [0, 1/3)
    code, out, err = run(capsys, "solve", "--p0", "1.7320508")
    assert (code, out) == (2, "")
    assert "alpha = 0.3333333362465956 is outside [0, 1/3)" in err


def test_solve_reaches_up_to_the_normal_doubles(capsys):
    # alpha = 1/p0^2 stays a normal double up to p0 = 6.7e153, where the
    # height is about 2.1167e153; above, the error names the largest
    # reachable height instead of failing late on alpha = 0
    code, out, _ = run(capsys, "solve", "--M", "2.1165e153")
    assert code == 0
    assert json.loads(out)["M"] == pytest.approx(2.1165e153, rel=1e-8)
    code, _, err = run(capsys, "solve", "--M", "1e200")
    assert code == 2
    assert "max height 2.1166e+153" in err


def test_solve_by_edge_slope_stops_at_the_normal_doubles(capsys):
    # the same range as --M: past p0 = 6.7039e153, alpha = 1/p0^2 is
    # subnormal (and 0 past about 1.3e154), and the error names the max p0
    code, out, _ = run(capsys, "solve", "--p0", "6e153")
    assert code == 0
    assert json.loads(out)["p0"] == 6e153
    for p0 in ("1e154", "1e160"):
        code, out, err = run(capsys, "solve", "--p0", p0)
        assert (code, out) == (2, "")
        assert "max p0 6.7039e+153" in err


@pytest.mark.parametrize("command", ["solve", "resistance", "mesh"])
@pytest.mark.parametrize("p0", ["1.5", "7e153", "1e160"])
def test_a_bad_edge_slope_is_refused_before_any_arc(capsys, monkeypatch, tmp_path, command, p0):
    # p0 is checked against (sqrt(3), 6.7039e153] first: 1.5 is below the
    # validity edge, 7e153 would solve an arc at a subnormal alpha and 1e160
    # one at alpha = 0 (1/p0^2 underflows) before the refusal
    arcs = []
    integrate = extremal.integrate
    monkeypatch.setattr(extremal, "integrate", lambda *a, **k: arcs.append(a) or integrate(*a, **k))
    cold_caches()
    extra = ("--out", str(tmp_path / "body.obj")) if command == "mesh" else ()
    code, out, err = run(capsys, command, "--p0", p0, *extra)
    assert (code, out, arcs) == (2, "", [])
    assert err.startswith(f"error: p0={float(p0)!r} ")
    assert not list(tmp_path.iterdir())


GOLDEN_SOLVE = """\
{
  "M": 1.0000000e+00,
  "p0": 3.7164698e+00,
  "r": 1.2207655e+00,
  "slope0": 6.3245046e-01,
  "J": 5.9779091e-01,
  "resistance": 1.1955818e+00
}
"""

GOLDEN_CONSTANTS = """\
{
  "switch_radius": 1.0898362e-01,
  "flat_height": 3.1573590e-01,
  "arc_value_at_zero": 3.1575953e-01,
  "switch_slope": 5.3006771e-01,
  "arc_slope_at_zero": 5.3505532e-01,
  "J_limit": 1.0734493e+01
}
"""


def test_default_output_bytes_are_pinned(capsys):
    # any solver change must leave the default 8-digit output untouched
    assert run(capsys, "solve", "--M", "1.0") == (0, GOLDEN_SOLVE, "")
    assert run(capsys, "constants") == (0, GOLDEN_CONSTANTS, "")


def test_constants_solves_one_arc(capsys, monkeypatch):
    # limit_constants reads the arc's value and slope at q = 0 from the one
    # profile it assembles, so constants needs no cache to solve one arc
    arcs = []
    integrate = extremal.integrate
    monkeypatch.setattr(extremal, "integrate", lambda *a: arcs.append(integrate(*a)) or arcs[-1])
    cold_caches()
    assert run(capsys, "constants") == (0, GOLDEN_CONSTANTS, "")
    assert len(arcs) == 1
    lc = extremal.limit_constants()
    nu0, nup0 = extremal.assemble_profile(0.0).nu.eval(0.0)[:2]
    assert (float.hex(lc.arc_value0), float.hex(lc.arc_slope0)) == (float.hex(nu0),
                                                                    float.hex(nup0))


GOLDEN_MESH_SIDECAR = """\
{
  "M": 1.0000000e+00,
  "p0": 3.7164698e+00,
  "r": 1.2207655e+00,
  "slope0": 6.3245046e-01,
  "J": 5.9779091e-01,
  "resistance": 1.1955818e+00,
  "n_vertices": 438,
  "n_faces": 562,
  "watertight": true
}
"""

# the OBJ prints 11 digits, whose last follows the arc solver's round-off:
# Newton collocation in place of DOP853 moved 72 of the 438 vertex lines
# by one unit there (bbadac17... -> 2275855b...); the Newton height root in
# place of brentq moved p0 by 1.3e-13 relative, and 2 vertex lines by one
# unit (2275855b... -> a1ae74c9...); the 8-digit vertex pin below did not move
GOLDEN_MESH_OBJ_SHA256 = "a1ae74c95a4b2d8c8fa043691d9382d4e97d8787de9f846bd5f497c8c51f8065"


def test_mesh_output_bytes_are_pinned(capsys, tmp_path):
    out = tmp_path / "body.obj"
    side = tmp_path / "body.json"
    stdout = ("{\n"
              f'  "out": {json.dumps(str(out))},\n'
              f'  "sidecar": {json.dumps(str(side))},\n'
              '  "n_vertices": 438,\n'
              '  "n_faces": 562,\n'
              '  "watertight": true\n'
              "}\n")
    assert run(capsys, "mesh", "--M", "1.0", "--resolution", "64",
               "--out", str(out)) == (0, stdout, "")
    assert side.read_text() == GOLDEN_MESH_SIDECAR
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_MESH_OBJ_SHA256


# sha256 of the vertices of `mesh --M 1.0 --resolution 64`, one line each,
# reformatted with .7e: the OBJ's 11 digits follow the arc solver's
# round-off, its first 8 are the body itself (no coordinate lies within
# 1e-3 of a unit of the 8th digit of a rounding boundary)
GOLDEN_MESH_VERTICES_8_DIGITS_SHA256 = (
    "a877884efb8fd64fbe3d306519fcc9c2e9dd0882e421a02c7b01890de00c557e")


def test_mesh_vertices_are_pinned_at_eight_digits(capsys, tmp_path):
    out = tmp_path / "body.obj"
    assert run(capsys, "mesh", "--M", "1.0", "--resolution", "64",
               "--out", str(out))[0] == 0
    rows = [line.split()[1:] for line in out.read_text().splitlines()
            if line.startswith("v ")]
    assert len(rows) == 438
    text = "".join(" ".join(f"{float(v):.7e}" for v in row) + "\n" for row in rows)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_MESH_VERTICES_8_DIGITS_SHA256


def test_resistance_output_is_pinned(capsys):
    # rel_diff is a difference of nearly equal numbers, so only its inputs
    # are pinned at 8 digits: the seam rule carries 2J's 8 digits
    code, out, _ = run(capsys, "resistance", "--M", "1.0", "--resolution", "64")
    assert code == 0
    assert '  "resistance_direct": 1.1955818e+00,\n' in out
    assert '  "two_J": 1.1955818e+00,\n' in out


@pytest.mark.parametrize("M", ["0.0875", "0.5", "1", "3.3", "9.9", "1000"])
def test_default_resistance_carries_two_J(capsys, M):
    code, out, _ = run(capsys, "resistance", "--M", M)
    assert code == 0
    d = json.loads(out)
    assert format(d["resistance_direct"], ".7e") == format(d["two_J"], ".7e")
    assert d["rel_diff"] < 1e-9


def test_resistance_resolution_is_any_size_up_to_the_cap(monkeypatch, capsys):
    parse = cli.build_parser().parse_args
    for n in (8, 9, 251, 802, 1024):
        assert parse(["resistance", "--M", "1", "--resolution", str(n)]).resolution == n
    assert parse(["resistance", "--M", "1"]).resolution == 48

    def forbidden(*args, **kwargs):
        raise AssertionError("an over-cap resolution reached the solver")

    # past the cap, refused while parsing: nothing is solved or summed
    monkeypatch.setattr(extremal, "solve_for_height", forbidden)
    monkeypatch.setattr(functional, "resistance_direct", forbidden)
    code, out, err = run(capsys, "resistance", "--M", "1", "--resolution", "1025")
    assert (code, out) == (1, "")
    assert "must be <= 1024, got 1025" in err


def test_solve_deterministic_bytes(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, "solve", "--M", "1.0", "--out", str(a))[0] == 0
    assert run(capsys, "solve", "--M", "1.0", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

GOLDEN_TABLE_JSON = """\
[
  {
    "M": 5.0000000e-01,
    "p0": 2.4333731e+00,
    "r": 1.3355916e+00,
    "vprime0": 7.4466915e-01,
    "J": 1.0630893e+00,
    "error": null
  },
  {
    "M": 1.0000000e+00,
    "p0": 3.7164698e+00,
    "r": 1.2207655e+00,
    "vprime0": 6.3245046e-01,
    "J": 5.9779091e-01,
    "error": null
  },
  {
    "M": 1.5000000e+00,
    "p0": 5.1485617e+00,
    "r": 1.1966927e+00,
    "vprime0": 5.8644421e-01,
    "J": 3.5048200e-01,
    "error": null
  },
  {
    "M": 2.0000000e+00,
    "p0": 6.6435445e+00,
    "r": 1.2358478e+00,
    "vprime0": 5.6489984e-01,
    "J": 2.2251196e-01,
    "error": null
  },
  {
    "M": 2.5000000e+00,
    "p0": 8.1698618e+00,
    "r": 1.3153950e+00,
    "vprime0": 5.5346692e-01,
    "J": 1.5152359e-01,
    "error": null
  },
  {
    "M": 5.0000000e+00,
    "p0": 1.5965314e+01,
    "r": 1.9645612e+00,
    "vprime0": 5.3634824e-01,
    "J": 4.1450040e-02,
    "error": null
  },
  {
    "M": 1.0000000e+01,
    "p0": 3.1737144e+01,
    "r": 3.5728312e+00,
    "vprime0": 5.3166819e-01,
    "J": 1.0614284e-02,
    "error": null
  },
  {
    "M": 5.0000000e+01,
    "p0": 1.5837325e+02,
    "r": 1.7283003e+01,
    "vprime0": 5.3013213e-01,
    "J": 4.2790490e-04,
    "error": null
  },
  {
    "M": 1.0000000e+02,
    "p0": 3.1672693e+02,
    "r": 3.4529504e+01,
    "vprime0": 5.3008382e-01,
    "J": 1.0700249e-04,
    "error": null
  }
]
"""


def test_table_default_rows(capsys):
    code, out, _ = run(capsys, "table")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "M,p0,r,vprime0,J"
    assert len(lines) == 10
    row = dict(zip(lines[0].split(","), lines[2].split(",")))
    assert float(row["M"]) == 1.0
    assert float(row["p0"]) == pytest.approx(3.71647, rel=1e-4)
    assert run(capsys, "table", "--format", "json") == (0, GOLDEN_TABLE_JSON, "")


def test_table_bytes_repeat_from_cold_caches(capsys):
    # rows are solved in order and nothing carries over from an earlier
    # solve: three runs that each start from cold caches give the same bytes
    rows = DEFAULT_TABLE_ROWS + ",3.3,7.7"
    outputs = []
    for _ in range(3):
        cold_caches()
        for fmt in ("csv", "json"):
            outputs.append(run(capsys, "table", "--rows", rows, "--format", fmt))
    assert outputs[0][0] == 0 and outputs[0][1].count("\n") == 12
    assert outputs[0:2] == outputs[2:4] == outputs[4:6]


def test_bytes_do_not_depend_on_the_blas_thread_count():
    # numpy's BLAS reads its thread count at import, so each count runs the
    # commands in a fresh interpreter; their exit codes and stdout bytes
    # must not depend on it.  Two threads at most, so that the test does
    # not oversubscribe a 2-core machine
    src = os.path.dirname(os.path.dirname(cli.__file__))
    argvs = [["table"], ["check", "--alpha", "0,0.01,0.1,0.2,0.3,0.33"],
             ["resistance", "--M", "1.0", "--resolution", "64"]]
    code = ("import json, sys\n"
            "from newton_minres import cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    print(json.dumps([argv[0], cli.main(argv)]), file=sys.stderr)\n")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], env=env,
                              check=True, capture_output=True, text=True)
        outputs.append((done.stdout, done.stderr))
    assert outputs[0][1].splitlines() == [json.dumps([a[0], 0]) for a in argvs]
    assert outputs[0][0].count("\n") > 20 and outputs[0] == outputs[1]


def test_main_builds_its_parser_once(capsys, monkeypatch):
    # the parser is built once per process, and each call still parses
    # from its defaults
    parsers = []
    parse = cli._Parser.parse_args

    def recorded(self, *args, **kwargs):
        parsers.append(self)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "parse_args", recorded)
    assert run(capsys, "constants", "--format", "text")[0] == 0
    assert run(capsys, "constants") == (0, GOLDEN_CONSTANTS, "")
    assert len(parsers) == 2 and parsers[0] is parsers[1]


def test_no_command_starts_a_worker_thread(capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a command started a thread")

    # a pool started from any module starts its threads here
    monkeypatch.setattr(threading.Thread, "start", forbidden)
    assert run(capsys, "table")[0] == 0
    assert run(capsys, "resistance", "--M", "1.0", "--resolution", "64")[0] == 0


@pytest.fixture
def fresh_heap_setting():
    """cli._keep_freed_heap as if no command had run in this process yet."""
    cli._keep_freed_heap.cache_clear()
    yield
    cli._keep_freed_heap.cache_clear()


def _fake_libc(calls):
    """A stand-in for ctypes.CDLL(None) whose mallopt records its calls."""
    def mallopt(param, value):
        calls.append((param, value))
        return 1
    return lambda name: SimpleNamespace(mallopt=mallopt)


def test_main_keeps_freed_heap_once_per_process(capsys, monkeypatch, fresh_heap_setting):
    calls, seen = [], []
    monkeypatch.setattr(cli.os, "confstr", lambda name: "glibc 2.36")
    monkeypatch.setattr(cli.ctypes, "CDLL", _fake_libc(calls))
    constants = cli._DISPATCH["constants"]

    def dispatched(args):
        seen.append(list(calls))
        return constants(args)

    monkeypatch.setitem(cli._DISPATCH, "constants", dispatched)
    assert run(capsys, "constants")[0] == 0
    assert run(capsys, "constants")[0] == 0
    assert calls == [(-3, 32 << 20), (-2, 16 << 20)]
    assert seen == [calls, calls]   # set before the first dispatch


@pytest.mark.parametrize("libc", [ValueError("unrecognized configuration name"),
                                  "musl 1.2.4", None])
def test_main_leaves_other_allocators_alone(capsys, monkeypatch, fresh_heap_setting, libc):
    def confstr(name):
        if isinstance(libc, Exception):
            raise libc
        return libc

    calls = []
    monkeypatch.setattr(cli.os, "confstr", confstr)
    monkeypatch.setattr(cli.ctypes, "CDLL", _fake_libc(calls))
    assert run(capsys, "constants") == (0, GOLDEN_CONSTANTS, "")
    assert calls == []


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc only")
def test_glibc_accepts_the_heap_setting(fresh_heap_setting):
    assert cli._keep_freed_heap() == 1


def test_table_bad_rows_are_usage_errors(capsys):
    code, _, err = run(capsys, "table", "--rows", "1.0,abc")
    assert code == 1
    assert "comma-separated" in err
    assert run(capsys, "table", "--rows", ",")[0] == 1


def test_table_row_failure_is_marked(capsys):
    code, out, err = run(capsys, "table", "--rows", "1.0,-0.5")
    assert code == 2
    lines = out.strip().splitlines()
    assert any("FAILED" in ln for ln in lines)
    assert "M=-0.5" in err


def test_table_names_each_failed_row_once(capsys, monkeypatch):
    code, out, err = run(capsys, "table", "--rows", "0.05,1,-0.5,3e153")
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 3
    for line, m in zip(lines, ("M=0.05", "M=-0.5", "M=3e+153")):
        assert line.count(m) == 1 and line.count("M=") == 1, line
    # the JSON error field keeps the solver's message as it is
    _, out, _ = run(capsys, "table", "--rows", "0.05", "--format", "json")
    assert json.loads(out)[0]["error"] == lines[0]

    # a message that does not name M keeps the row's label
    def fail(M):
        raise NoRoot("the arc blew up")

    monkeypatch.setattr(extremal, "solve_for_height", fail)
    assert run(capsys, "table", "--rows", "2")[::2] == (2, "M=2.0: the arc blew up\n")


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def test_constants_values_and_labels(capsys):
    code, out, _ = run(capsys, "constants")
    assert code == 0
    d = json.loads(out)
    assert d["switch_radius"] == pytest.approx(0.108984, abs=1e-5)
    assert d["flat_height"] == pytest.approx(0.315736, abs=1e-5)
    assert d["arc_value_at_zero"] == pytest.approx(0.3157595, abs=1e-5)
    assert d["switch_slope"] == pytest.approx(0.530068, abs=1e-5)
    assert d["arc_slope_at_zero"] == pytest.approx(0.5350553, abs=1e-5)
    assert d["J_limit"] == pytest.approx(10.7344, abs=1e-3)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_default_battery_passes(capsys):
    code, out, _ = run(capsys, "check")
    assert code == 0
    d = json.loads(out)
    assert d["pass"] is True
    assert d["alphas"] == [0.0, 0.01, 0.1]
    for report in d["reports"]:
        assert report["pass"] is True
        assert all(report["verdicts"].values())


def test_check_alpha_list_parsing(capsys):
    code, out, _ = run(capsys, "check", "--alpha", "0,0.01")
    assert code == 0
    assert json.loads(out)["alphas"] == [0.0, 0.01]


def test_check_prints_negative_zero_as_zero(capsys):
    assert run(capsys, "check", "--alpha", "-0") == run(capsys, "check", "--alpha", "0")


def test_check_certifies_alphas_below_1e_152_with_the_alpha0_identities(capsys):
    # below alpha of about 1e-152, p0 = 1/sqrt(alpha) > P0_MAX and the
    # unscaled functional behind scaling_identity would overflow; the
    # profile there is the alpha = 0 one bit for bit, so the alpha = 0
    # identities certify it, and no error names a p0 the user never gave
    for alpha in ("1e-160", "1e-153", "2.2e-308", "5e-324"):
        code, out, err = run(capsys, "check", "--alpha", alpha)
        assert (code, err) == (0, ""), alpha
        d = json.loads(out)
        verdicts = d["reports"][0]["verdicts"]
        assert d["pass"] is True and all(verdicts.values())
        assert {"switching_closed_form", "abel_reduction"} <= set(verdicts)
        assert "scaling_identity" not in verdicts
    code, out, _ = run(capsys, "check", "--alpha", "0,1e-160,0.1")
    assert code == 0
    assert [r["alpha"] for r in json.loads(out)["reports"]] == [0.0, 1e-160, 0.1]
    code, out, _ = run(capsys, "check", "--alpha", "1e-152")
    assert code == 0
    assert json.loads(out)["reports"][0]["verdicts"]["scaling_identity"] is True


_BATTERY = ["switching_zero", "adjoint_negative", "no_conjugate_point",
            "field_sign_constant", "endpoint_taylor"]


@pytest.mark.parametrize("alpha", [0.0, 1e-160, 0.01, 0.1, 0.3])
def test_certify_is_the_check_battery(alpha):
    # the Python API certifies a profile with the verdicts `check` prints,
    # in its order: the alpha = 0 identities past P0_MAX, else the scaling
    # identity
    switch_val, verdicts = extremal.certify(extremal.assemble_profile(alpha))
    report = _check_one(alpha, False)
    assert list(verdicts.items()) == list(report["verdicts"].items())
    assert switch_val == report["switch_integral"]
    tail = (["switching_closed_form", "abel_reduction"] if alpha < 1e-152
            else ["scaling_identity"])
    assert list(verdicts) == _BATTERY + tail
    assert all(verdicts.values()), verdicts


@pytest.mark.parametrize("alpha", [0.0, 1e-160, 0.01, 0.1, 0.3])
def test_certify_flags_a_moved_switching_radius(alpha):
    # the --inject-fault profile: the clean switching radius moved by 1e-2
    # fails the first-order certificates and no other
    prof = extremal.assemble_profile(alpha)
    faulted = extremal.ScaledProfile.at_switch(alpha, prof.nu, prof.rho + 1e-2)
    switch_val, verdicts = extremal.certify(faulted)
    assert abs(switch_val) > 1e-10
    assert [k for k, v in verdicts.items() if not v] == ["switching_zero", "adjoint_negative"]
    assert verdicts == _check_one(alpha, True)["verdicts"]


def test_check_rejects_invalid_family_parameter(capsys):
    code, _, err = run(capsys, "check", "--alpha", "0.5")
    assert code == 2
    assert "hypothesis" in err


def test_check_injected_fault_is_caught(capsys):
    code, out, _ = run(capsys, "check", "--alpha", "0", "--inject-fault")
    assert code == 3
    d = json.loads(out)
    assert d["pass"] is False
    verdicts = d["reports"][0]["verdicts"]
    assert verdicts["switching_zero"] is False


def test_check_verdicts_read_one_profile(capsys, monkeypatch):
    # with --inject-fault every certificate reads the one faulted profile,
    # whose switching radius is the clean one moved by 1e-2
    rho = extremal.assemble_profile(0.1).rho
    seen = {}

    def recording(name):
        fn = getattr(extremal, name)

        def wrapper(prof, *args):
            seen.setdefault(name, []).append(prof)
            return fn(prof, *args)
        return wrapper

    names = ("adjoint_omega", "jacobi_check", "field_jacobian_check")
    for name in names:
        monkeypatch.setattr(extremal, name, recording(name))
    code, out, _ = run(capsys, "check", "--alpha", "0.1", "--inject-fault")
    assert code == 3
    (faulted,) = seen["adjoint_omega"]
    assert isinstance(faulted, extremal.ScaledProfile)
    assert faulted.rho == rho + 1e-2
    assert seen == {name: [faulted] for name in names}


def test_check_reports_a_solver_failure_of_the_field_check(capsys, monkeypatch):
    # only SignChange is a false field verdict; any other solver failure is
    # an error of the command, not a certificate that failed
    def failing(prof, zeta):
        raise DomainError("stub")

    monkeypatch.setattr(extremal, "field_jacobian_check", failing)
    code, out, err = run(capsys, "check", "--alpha", "0.1")
    assert code == 2 and out == ""
    assert err.strip() == "error: stub"


class _CrossingField:
    """A stand-in Jacobi field zeta(q) = q - 0.5: a conjugate point at 0.5."""

    def eval(self, q):
        q = np.asarray(q, float)
        return q - 0.5, np.ones_like(q), np.zeros_like(q)


def test_check_reports_a_conjugate_point(capsys, monkeypatch):
    # the field bracket reads the same field, so it changes sign at 0.5 too
    monkeypatch.setattr(extremal, "_jacobi_field", lambda profile: _CrossingField())
    code, out, _ = run(capsys, "check", "--alpha", "0.1")
    assert code == 3
    verdicts = json.loads(out)["reports"][0]["verdicts"]
    assert [k for k, v in verdicts.items() if not v] == ["no_conjugate_point",
                                                         "field_sign_constant"]


def test_check_reports_a_field_sign_change(capsys, monkeypatch):
    def changing(prof, zeta):
        raise SignChange("stub")

    monkeypatch.setattr(extremal, "field_jacobian_check", changing)
    code, out, _ = run(capsys, "check", "--alpha", "0.1")
    assert code == 3
    verdicts = json.loads(out)["reports"][0]["verdicts"]
    assert [k for k, v in verdicts.items() if not v] == ["field_sign_constant"]


def test_check_solves_one_arc_and_one_jacobi_field_per_alpha(capsys, monkeypatch):
    # from cold caches the default battery (three alphas) solves each arc
    # once and each profile's Jacobi field once
    calls = {"integrate": 0, "integrate_variational": 0}

    def counted(name):
        fn = getattr(extremal, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(extremal, name, counted(name))
    cold_caches()
    assert run(capsys, "check")[0] == 0
    assert calls == {"integrate": 3, "integrate_variational": 3}


def test_curves_are_read_without_chebyshev_sums(capsys, monkeypatch):
    # solved curves are read by the barycentric formula on cached node
    # values, and the Lobatto maps behind them are closed-form products, so
    # neither a cold solve nor a check (endpoint_taylor's nu''' a difference
    # of curvature values) runs numpy's Clenshaw sums or integrals
    cheb = np.polynomial.chebyshev
    package = os.path.dirname(cli.__file__)
    callers = set()

    def recorded(fn):
        def wrapper(*args, **kwargs):
            callers.add(next(f.name for f in reversed(traceback.extract_stack())
                             if f.filename.startswith(package)))
            return fn(*args, **kwargs)
        return wrapper

    for name in ("chebval", "chebint"):
        monkeypatch.setattr(cheb, name, recorded(getattr(cheb, name)))
    cold_caches()
    solve_for_height(1.0)
    assert callers == set()
    assert run(capsys, "check")[0] == 0
    assert callers == set()


def test_no_command_loads_scipy(tmp_path):
    # the package and every command run on numpy alone: in a fresh
    # interpreter where any scipy or sympy import fails, the import and
    # every command run and leave no scipy or sympy module, and none of them
    # loads numpy.ma (11-17 ms of import, e.g. behind np.unique)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    argvs = [["solve", "--M", "1.0"], ["table"], ["constants"], ["check"],
             ["mesh", "--M", "1.0", "--resolution", "64", "--out", str(tmp_path / "b.obj")],
             ["resistance", "--M", "1.0", "--resolution", "64"]]
    code = ("import json, sys\n"
            "sys.modules['scipy'] = sys.modules['sympy'] = None\n"
            "def unwanted_modules():\n"
            "    return [m for m, mod in sys.modules.items() if mod is not None\n"
            "            and (m.split('.')[0] in ('scipy', 'sympy') or m == 'numpy.ma')]\n"
            "import newton_minres\n"
            "print(json.dumps(['import', 0, unwanted_modules()]), file=sys.stderr)\n"
            "from newton_minres import cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    status = cli.main(argv)\n"
            "    print(json.dumps([argv[0], status, unwanted_modules()]), file=sys.stderr)\n")
    env = dict(os.environ, PYTHONPATH=src)
    err = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], env=env,
                         check=True, capture_output=True, text=True).stderr
    seen = [json.loads(line) for line in err.splitlines()]
    names = ["import"] + [a[0] for a in argvs]
    assert seen == [[name, 0, []] for name in names]


def test_numpy_is_the_only_runtime_dependency():
    # no module of the package imports scipy or sympy, not even inside a
    # function, and pyproject's [project] dependencies name numpy alone
    pkg = os.path.dirname(cli.__file__)
    for name in sorted(f for f in os.listdir(pkg) if f.endswith(".py")):
        with open(os.path.join(pkg, name)) as fh:
            tree = ast.parse(fh.read(), name)
        imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names]
        imported += [node.module for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.module]
        assert not [m for m in imported if m.split(".")[0] in ("scipy", "sympy")], name
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(os.path.join(os.path.dirname(os.path.dirname(pkg)), "pyproject.toml"), "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    assert [re.match(r"[A-Za-z0-9_.-]+", d).group() for d in deps] == ["numpy"]


GOLDEN_CHECK = """\
{
  "pass": true,
  "alphas": [
    0.0000000e+00,
    1.0000000e-02,
    1.0000000e-01
  ],
  "reports": [
    {
      "alpha": 0.0000000e+00,
      "rho": 1.0898362e-01,
      "switch_integral": -6.7979476e-17,
      "verdicts": {
        "switching_zero": true,
        "adjoint_negative": true,
        "no_conjugate_point": true,
        "field_sign_constant": true,
        "endpoint_taylor": true,
        "switching_closed_form": true,
        "abel_reduction": true
      },
      "pass": true
    },
    {
      "alpha": 1.0000000e-02,
      "rho": 1.4420312e-01,
      "switch_integral": 2.2529721e-16,
      "verdicts": {
        "switching_zero": true,
        "adjoint_negative": true,
        "no_conjugate_point": true,
        "field_sign_constant": true,
        "endpoint_taylor": true,
        "scaling_identity": true
      },
      "pass": true
    },
    {
      "alpha": 1.0000000e-01,
      "rho": 3.9697116e-01,
      "switch_integral": -1.2576745e-16,
      "verdicts": {
        "switching_zero": true,
        "adjoint_negative": true,
        "no_conjugate_point": true,
        "field_sign_constant": true,
        "endpoint_taylor": true,
        "scaling_identity": true
      },
      "pass": true
    }
  ]
}
"""


def test_check_output_bytes_are_pinned(capsys):
    # check prints only the Jacobi verdict, never zeta itself, so a change
    # of the variational solver must leave these bytes untouched.  The three
    # switch_integral fields are round-off, I(rho) ~ 1e-16: they are pinned
    # as the Newton-collocated arc gives them.  They moved (e.g.
    # -3.0215945e-16 -> -3.8217759e-16) when the fixed Lobatto map replaced
    # the least-squares fit, again (-3.8217759e-16 -> -4.7467345e-16) when
    # the arc's node values came from Newton instead of DOP853, and again
    # (-4.7467345e-16 -> -4.0533700e-16) when the switching root was refined
    # on the scan's fixed rule instead of the adaptive I_of, which moves rho
    # by at most 5e-16 at these alphas.  They moved once more (-4.0533700e-16
    # -> -3.9345697e-16, -6.0286761e-17 -> -6.7220535e-17, 7.6327833e-17 ->
    # 6.7220535e-17) when I_of went from scipy's adaptive quad to graded
    # Gauss-Legendre panels: rho is unchanged, and any other quadrature of
    # I(rho) ~ 1e-16 reads other round-off.  And again (-3.9345697e-16 ->
    # -3.2959746e-16, -6.7220535e-17 -> 1.0928758e-16, 6.7220535e-17 ->
    # -2.9631245e-16) when the curves were read by the barycentric formula
    # on node values instead of Clenshaw sums of the series: nu at the
    # quadrature nodes moves by round-off, rho does not move.  And again
    # (-3.2959746e-16 -> -3.8055496e-17, 1.0928758e-16 -> 8.2399365e-18,
    # -2.9631245e-16 -> 5.6920614e-17) when rho became the root of the
    # switching integral's Chebyshev interpolant on the scan's bracket
    # instead of Brent's iterate to xtol 1e-12: rho moves by at most 1.7e-15
    # at these alphas and is now a zero of I_of to round-off.  And again
    # (-3.8055496e-17 -> -6.7979476e-17, 8.2399365e-18 -> 2.2529721e-16,
    # 5.6920614e-17 -> -1.2576745e-16) when the Lobatto and segment maps
    # became closed-form products instead of numpy's inverse Vandermonde
    # matrix and chebint: the arc's node values move by round-off, and rho
    # by at most 7e-16 at these alphas
    assert run(capsys, "check") == (0, GOLDEN_CHECK, "")


def test_check_switch_integrals_are_round_off(capsys):
    # bounds the field the byte pin above fixes only to its round-off digits
    code, out, _ = run(capsys, "check")
    assert code == 0
    for report in json.loads(out)["reports"]:
        assert abs(report["switch_integral"]) <= 1e-14


@settings(max_examples=MAX_CHECK_EXAMPLES, deadline=None)
@given(st.floats(0.0, 0.32))
@example(0.0)
@example(1e-160)
@example(5e-324)
@example(0.32)
def test_check_verdicts_pass_across_the_family(alpha):
    # every certificate holds on the validity range, or the solver refuses
    # with the documented NoRoot; beyond P0_MAX (alpha below about 1e-152,
    # subnormal alpha too) the unscaled functional behind the scaling
    # identity would overflow, and the alpha = 0 identities certify instead
    try:
        report = _check_one(alpha, False)
    except NoRoot:
        return
    assert all(report["verdicts"].values()), report["verdicts"]
    assert abs(report["switch_integral"]) < 1e-12
    beyond = alpha == 0.0 or 1.0 / math.sqrt(alpha) > P0_MAX
    assert ("abel_reduction" in report["verdicts"]) == beyond
    assert ("scaling_identity" in report["verdicts"]) != beyond


@settings(max_examples=MAX_HEIGHT_EXAMPLES, deadline=None)
@given(st.floats(math.log(0.0869), math.log(100.0)).map(math.exp))
@example(0.0885)
@example(0.1)
@example(0.146)
@example(0.5)
@example(100.0)
def test_check_verdicts_pass_across_the_heights(M):
    # every height down to the validity edge (min height 0.08686) is
    # reachable, and its solved scale parameter passes every certificate;
    # a NoRoot here would be a height root that gave up
    sol = solve_for_height(M)
    report = _check_one(1.0 / (sol.p0 * sol.p0), False)
    assert all(report["verdicts"].values()), (M, report["verdicts"])
    assert abs(report["switch_integral"]) < 1e-12


@pytest.mark.parametrize("n_arc", [96, 128])
def test_a_finer_arc_rule_moves_no_printed_digit(capsys, monkeypatch, n_arc):
    # every reader takes N_ARC from singular_ode when called, so one
    # assignment refines the Picard seeds, the arcs, the Jacobi fields, the
    # switching rule and the J_scaled rule together; 96 and 128 nodes must
    # print what 64 print, check's verdicts included, and no rule of another
    # size may be built.  switch_integral is round-off and is left out
    commands = [("table",), ("table", "--rows", "0.0875,0.2,3,20,1000,1e6"),
                ("constants",), ("solve", "--M", "1.0")]

    def outputs():
        cold_caches()
        code, out, _ = run(capsys, "check", "--alpha", "0,0.01,0.1,0.2,0.3,0.33")
        reports = [(r["rho"], r["verdicts"]) for r in json.loads(out)["reports"]]
        return [run(capsys, *argv) for argv in commands], code, reports

    coarse = outputs()
    sizes = set()
    lobatto = singular_ode._lobatto_integrals

    def recording(n, anchor):
        sizes.add(n)
        return lobatto(n, anchor)

    try:
        with monkeypatch.context() as m:
            # wherever the rule is bound, so that a copied node count shows
            for mod in (singular_ode, extremal, functional, geometry):
                if hasattr(mod, "_lobatto_integrals"):
                    m.setattr(mod, "_lobatto_integrals", recording)
            m.setattr(singular_ode, "N_ARC", n_arc)
            fine = outputs()
    finally:
        cold_caches()  # no finer arc outlives this test
    assert singular_ode.N_ARC == 64 and sizes == {n_arc}
    assert fine == coarse and coarse[1] == 0


def test_a_cold_table_and_check_build_two_lobatto_and_two_segment_tables(capsys):
    # the Picard seed's Lobatto table (anchor 0) and the arc's (anchor 1),
    # which the Jacobi field and the adjoint read too, as do the switching
    # integral and J_scaled: their Clenshaw-Curtis weights are minus the
    # last row of its int1.  No table at anchor -1 is built
    cold_caches()
    assert run(capsys, "table")[0] == 0 and run(capsys, "check")[0] == 0
    assert singular_ode._lobatto_integrals.cache_info().currsize == 2
    assert singular_ode._segment_maps.cache_info().currsize == 2


# ---------------------------------------------------------------------------
# mesh / resistance
# ---------------------------------------------------------------------------

def test_mesh_writes_obj_and_sidecar(capsys, tmp_path):
    out = tmp_path / "body.obj"
    code, stdout, _ = run(capsys, "mesh", "--M", "1.0",
                          "--resolution", "128", "--out", str(out))
    assert code == 0
    assert out.exists()
    summary = json.loads(stdout)
    assert summary["watertight"] is True
    sidecar = json.loads((tmp_path / "body.json").read_text())
    assert sidecar["watertight"] is True
    nv = sum(1 for ln in out.read_text().splitlines() if ln.startswith("v "))
    assert nv == sidecar["n_vertices"] == summary["n_vertices"]


@pytest.mark.parametrize("M", [0.5, 0.52, 0.8, 1.3, 2.2, 3.7, 6.1, 9.9])
def test_body_commands_hold_across_the_bench_heights(capsys, tmp_path, M):
    # the bench's body workload draws heights from [0.5, 10] and checks each
    # resistance/mesh pair this way; the paper rows alone miss most of them
    code, out, _ = run(capsys, "resistance", "--M", repr(M), "--resolution", "64")
    assert code == 0
    res = json.loads(out)
    assert res["rel_diff"] <= 1e-2
    assert res["M"] == pytest.approx(M, rel=1e-7, abs=0.0)
    obj = tmp_path / "body.obj"
    code, out, _ = run(capsys, "mesh", "--M", repr(M), "--resolution", "64", "--out", str(obj))
    assert code == 0
    summary = json.loads(out)
    sidecar = json.loads((tmp_path / "body.json").read_text())
    assert summary["watertight"] is True and sidecar["watertight"] is True
    assert sidecar["M"] == pytest.approx(M, rel=1e-7, abs=0.0)
    lines = obj.read_text().splitlines()
    counts = (sum(ln.startswith("v ") for ln in lines), sum(ln.startswith("f ") for ln in lines))
    # 6P + 4C - 10 vertices and 8P + 4C - 14 faces at P = 64, C = 16
    assert counts == (summary["n_vertices"], summary["n_faces"]) == (438, 562)
    assert counts == (sidecar["n_vertices"], sidecar["n_faces"])


def test_mesh_requires_output_path(capsys):
    assert run(capsys, "mesh", "--M", "1.0")[0] == 1


def test_resistance_matches_functional_value(capsys):
    code, out, _ = run(capsys, "resistance", "--M", "1.5", "--resolution", "320")
    assert code == 0
    d = json.loads(out)
    assert d["two_J"] == pytest.approx(2.0 * 0.350482, rel=5e-4)
    assert d["resistance_direct"] == pytest.approx(0.700964, rel=1e-2)
    assert d["rel_diff"] < 1e-2


# ---------------------------------------------------------------------------
# usage errors are rejected while parsing: exit 1, a message, no traceback
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv, message", [
    (("resistance", "--M", "1", "--resolution", "7"), "must be >= 8"),
    (("resistance", "--M", "1", "--resolution", "1025"), "must be <= 1024"),
    (("resistance", "--M", "1", "--resolution", "x"), "not an integer"),
    (("mesh", "--M", "1", "--resolution", "0", "--out", "unused.obj"), "must be >= 8"),
    (("mesh", "--M", "1", "--resolution", "7", "--out", "unused.obj"), "must be >= 8"),
    (("check", "--alpha", "foo"), "comma-separated finite numbers"),
    (("check", "--alpha", "0,nan"), "comma-separated finite numbers"),
    (("solve", "--M", "inf"), "finite"),
    (("solve", "--p0", "inf"), "finite"),
    # the arc, profile and height depend on alpha alone: no tolerance option
    (("solve", "--M", "1", "--tol", "1e-10"), "unrecognized arguments"),
    (("table", "--tol", "1e-10"), "unrecognized arguments"),
    (("check", "--tol", "1e-10"), "unrecognized arguments"),
    (("mesh", "--M", "1", "--tol", "1e-10", "--out", "unused.obj"), "unrecognized arguments"),
    (("resistance", "--M", "1", "--tol", "1e-10"), "unrecognized arguments"),
    # leggauss(n) builds an n x n matrix: 34 GB at the old cap of 65536
    (("resistance", "--M", "1", "--resolution", "2000"), "must be <= 1024"),
    # past the cap a mesh no longer fits in memory: refused, not killed
    (("mesh", "--M", "1", "--resolution", "65540", "--out", "unused.obj"), "must be <= 65536"),
    (("resistance", "--M", "1", "--resolution", "65540"), "must be <= 1024"),
    # the sidecar goes to the .json beside the OBJ: it would overwrite the mesh
    (("mesh", "--M", "1", "--out", "body.json"), "must not end in .json"),
    # on a case-insensitive filesystem body.JSON and body.json are one file
    (("mesh", "--M", "1", "--out", "body.JSON"), "must not end in .json"),
    (("mesh", "--M", "1", "--out", "body.Json"), "must not end in .json"),
])
def test_bad_input_is_a_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["solve", "table", "constants", "check", "mesh",
                                     "resistance"])
def test_an_empty_out_path_is_a_usage_error(capsys, monkeypatch, tmp_path, command):
    # --out '' names no file: refused at parse time, not printed to stdout
    # (or, for mesh, written to the directory '.')
    monkeypatch.chdir(tmp_path)
    size = ("--M", "1") if command in ("solve", "mesh", "resistance") else ()
    code, out, err = run(capsys, command, *size, "--out", "")
    assert (code, out) == (1, "")
    assert "argument --out: must not be empty" in err
    assert not list(tmp_path.iterdir())
