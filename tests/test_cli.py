"""Command-line interface, run in-process through main(argv).

Exit-code contract: 0 success, 1 usage error, 2 solver/validity/IO error,
3 certificate-check failure.  Output must be byte-deterministic for a
fixed invocation.
"""

import hashlib
import json
import math
import re
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from newton_minres import DomainError, NoRoot
from newton_minres.cli import _check_one, main
from newton_minres.functional import P0_MAX

# a fresh _check_one call costs about 0.2-0.3 s (three arc solves for the
# field Jacobian plus the adjoint quadratures), so this keeps the property
# test within about 10 s
MAX_CHECK_EXAMPLES = 25


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

GOLDEN_MESH_OBJ_SHA256 = "bbadac174ada07b041eb7c778eff9e55fed0a9f69d5e1a265485652367270c02"


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


def test_resistance_output_is_pinned(capsys):
    # rel_diff is a difference of nearly equal numbers, so only its inputs
    # are pinned at 8 digits
    code, out, _ = run(capsys, "resistance", "--M", "1.0", "--resolution", "64")
    assert code == 0
    assert '  "resistance_direct": 1.1956689e+00,\n' in out
    assert '  "two_J": 1.1955818e+00,\n' in out


def test_solve_deterministic_bytes(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, "solve", "--M", "1.0", "--out", str(a))[0] == 0
    assert run(capsys, "solve", "--M", "1.0", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def test_table_default_rows(capsys):
    code, out, _ = run(capsys, "table")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "M,p0,r,vprime0,J"
    assert len(lines) == 10
    row = dict(zip(lines[0].split(","), lines[2].split(",")))
    assert float(row["M"]) == 1.0
    assert float(row["p0"]) == pytest.approx(3.71647, rel=1e-4)


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
      "switch_integral": -3.0215945e-16,
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
      "switch_integral": 1.6347468e-16,
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
      "switch_integral": -9.7144515e-17,
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
    # of the variational solver must leave these bytes untouched
    assert run(capsys, "check") == (0, GOLDEN_CHECK, "")


def test_check_at_tight_tol_stays_fast(capsys):
    # the tol reaches the arc solve only; the Jacobi solve is a fixed
    # linear collocation whose cost does not grow with it
    start = time.perf_counter()
    code, out, _ = run(capsys, "check", "--alpha", "0.1", "--tol", "1e-12")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert json.loads(out)["pass"] is True
    assert elapsed < 10.0, f"check --tol 1e-12 took {elapsed:.1f} s"


@settings(max_examples=MAX_CHECK_EXAMPLES, deadline=None)
@given(st.floats(0.0, 0.32))
@example(0.0)
@example(5e-324)
@example(0.32)
def test_check_verdicts_pass_across_the_family(alpha):
    # every certificate holds on the validity range, or the solver refuses
    # with the documented NoRoot; beyond P0_MAX (alpha below about 1e-152)
    # the unscaled functional behind the scaling identity is refused
    if alpha > 0.0 and 1.0 / math.sqrt(alpha) > P0_MAX:
        with pytest.raises(DomainError, match="integrand overflows"):
            _check_one(alpha, 1e-10, False)
        return
    try:
        report = _check_one(alpha, 1e-10, False)
    except NoRoot:
        return
    assert all(report["verdicts"].values()), report["verdicts"]
    assert abs(report["switch_integral"]) < 1e-12


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
    (("resistance", "--M", "1", "--resolution", "9"), "must be even"),
    (("resistance", "--M", "1", "--resolution", "x"), "not an integer"),
    (("mesh", "--M", "1", "--resolution", "0", "--out", "unused.obj"), "must be >= 8"),
    (("mesh", "--M", "1", "--resolution", "7", "--out", "unused.obj"), "must be >= 8"),
    (("check", "--alpha", "foo"), "comma-separated finite numbers"),
    (("check", "--alpha", "0,nan"), "comma-separated finite numbers"),
    (("solve", "--M", "inf"), "finite"),
    (("solve", "--p0", "inf"), "finite"),
    (("solve", "--M", "1", "--tol", "-1"), "must be positive"),
    (("solve", "--M", "1", "--tol", "nan"), "must be positive"),
    (("table", "--tol", "0"), "must be positive"),
    (("check", "--tol", "nan"), "must be positive"),
    (("mesh", "--M", "1", "--tol", "inf", "--out", "unused.obj"), "finite"),
    (("resistance", "--M", "1", "--tol", "-1"), "must be positive"),
])
def test_bad_input_is_a_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert message in err
    assert "Traceback" not in err
