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
