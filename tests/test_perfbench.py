"""The benchmark's span tracer still installs against the package.

perfbench/spans.py patches the package's functions by name, so deleting or
renaming a traced name breaks traced bench runs.  This test loads the tracer
read-only (no bytecode is written next to it), installs it, and checks that
uninstall() puts every patched attribute back.
"""

import importlib.util
import sys
from pathlib import Path

from newton_minres import cli, extremal, functional, geometry, singular_ode

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_bench_tracer_installs_and_uninstalls(monkeypatch):
    spans = _load_spans(monkeypatch)
    owners = (cli, extremal, functional, geometry, singular_ode,
              singular_ode.DenseSolution, geometry.BodyEvaluator)
    before = [dict(vars(o)) for o in owners]

    tracer = spans.instrument(spans.Tracer())
    try:
        patched = list(tracer._undo)
        assert patched
        for owner, attr, old in patched:
            assert getattr(owner, attr) is not old, f"{owner.__name__}.{attr}"
    finally:
        tracer.uninstall()

    for owner, attrs in zip(owners, before):
        now = vars(owner)
        assert now.keys() == attrs.keys()
        for attr, old in attrs.items():
            assert now[attr] is old, f"{owner.__name__}.{attr} not restored"


def test_traced_check_counts_every_certificate(monkeypatch, capsys):
    # the bench's per-layer metrics of the `certify` workload read these
    # spans; a certificate reached through a binding the tracer does not
    # wrap would read 0 calls there on working code
    spans = _load_spans(monkeypatch)
    tracer = spans.instrument(spans.Tracer())
    try:
        assert cli.main(["check", "--alpha", "0.1"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    layers = spans.layer_metrics(tracer.spans, 1.0, 1.0, [])
    expected = {"cli.main": 1, "extremal.I_of": 2, "extremal.adjoint_omega": 1,
                "extremal.jacobi_check": 1, "extremal.field_jacobian_check": 1,
                "functional.J_unscaled": 1}
    assert {name: layers[f"{name}.calls"] for name in expected} == expected
    # one I_of verifies the switching root, the other is the certificate
    assert layers["extremal.find_switch.I_evals"] == 1
