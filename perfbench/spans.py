"""Span tracer for the newton_minres modules, installed from outside.

`instrument(tracer)` replaces the public functions of `cli`, `extremal`,
`singular_ode`, `functional` and `geometry` at their module (or class)
attributes with wrappers that record one span per call: name, start, end,
parent span and thread.  Nothing under `src/` is edited; `uninstall()` puts
the originals back.  Where a module imported a function by name (for example
`extremal.integrate`), both bindings get the same wrapper.

Parent links cross thread pools explicitly: the executors used by
`cli._cmd_table` and `functional._grid_sum` are swapped for a subclass whose
`submit` hands the submitting thread's current span to the worker thread.
Context variables are not relied on for this.

`layer_metrics(tracer, ...)` turns the spans into the per-layer numbers the
benchmark reports (see PER_LAYER for names, units and directions).
"""

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict

import numpy as np


class Span:
    """One call: name, parent span id, thread, start, end and counters.

    Used as a context manager: entering pushes it on its thread's stack,
    leaving pops it and hands it to the tracer.
    """

    __slots__ = ("tracer", "id", "name", "parent", "thread", "start", "end", "attrs")

    def __init__(self, tracer, name):
        self.tracer = tracer
        # next() on itertools.count is a single C call, so ids stay unique
        # across the pool threads without a lock
        self.id = next(tracer._ids)
        self.name = name
        self.parent = tracer.current()
        self.thread = threading.get_ident()
        self.start = self.end = None
        self.attrs = {}

    @property
    def duration(self):
        return self.end - self.start

    def __enter__(self):
        self.tracer._stack().append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.end = time.perf_counter()
        self.tracer._stack().pop()
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        # list.append is atomic under the interpreter lock
        self.tracer.spans.append(self)
        return False


class Tracer:
    """Collects spans in memory; one instance per traced batch."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo = []

    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def current(self):
        """Innermost open span of this thread, else the span that submitted
        the pool task this thread is running, else None."""
        stack = self._stack()
        if stack:
            return stack[-1]
        return getattr(self._local, "root", None)

    def span(self, name):
        return Span(self, name)

    def timed(self, name, fn, observe=None):
        """Wrap fn in a span; observe(attrs, args, kwargs, result) records
        counters read from the arguments and the result."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as sp:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(sp.attrs, args, kwargs, result)
            return result

        return wrapper

    def patch(self, owners, attr, new):
        """Set owner.attr = new on every owner (all must hold the same object)."""
        old = getattr(owners[0], attr)
        for owner in owners:
            if getattr(owner, attr) is not old:
                raise RuntimeError(f"{owner.__name__}.{attr} is not the same object "
                                   f"as {owners[0].__name__}.{attr}")
            self._undo.append((owner, attr, old))
            setattr(owner, attr, new)

    def wrap(self, owners, attr, name, observe=None):
        self.patch(owners, attr, self.timed(name, getattr(owners[0], attr), observe))

    def linked_executor(self, base):
        """Subclass of executor class `base` whose tasks are spans whose
        parent is the span that submitted them."""
        tracer = self

        class LinkedExecutor(base):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def task(*a, **k):
                    tracer._local.root = parent
                    try:
                        with tracer.span("pool.task"):
                            return fn(*a, **k)
                    finally:
                        tracer._local.root = None

                return super().submit(task, *args, **kwargs)

        return LinkedExecutor

    def uninstall(self):
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()


# ---------------------------------------------------------------------------
# instrumentation of the package
# ---------------------------------------------------------------------------

def _arg(args, kwargs, pos, key, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _obs_picard(a, args, kwargs, result):
    info = result[1].info
    a["iters"] = len(info["picard_diffs"])
    a["rho_bound"] = float(info["rho_bound"])
    a["band_dev"] = float(info["band_dev"])


def _obs_solve_ivp(a, args, kwargs, result):
    a["steps"] = len(result.t) - 1
    a["rhs_evals"] = int(result.nfev)


def _obs_integrate(a, args, kwargs, result):
    a["segments"] = len(result.segments)


def _obs_eval(a, args, kwargs, result):
    a["points"] = int(np.size(_arg(args, kwargs, 1, "t")))


def _obs_find_switch(a, args, kwargs, result):
    # the residual |I(rho)| is computed after the batch, outside all spans
    a["alpha"] = float(_arg(args, kwargs, 0, "alpha"))
    a["nu"] = _arg(args, kwargs, 1, "nu")
    a["rho"] = float(result)


def _obs_body_call(a, args, kwargs, result):
    a["points"] = int(np.size(result))


def _obs_mesh(a, args, kwargs, result):
    a["faces"] = len(result.faces)


def _obs_export(a, args, kwargs, result):
    a["bytes"] = os.path.getsize(_arg(args, kwargs, 1, "path"))


def instrument(tracer):
    """Wrap the package's public functions; returns the tracer."""
    from newton_minres import cli, extremal, functional, geometry, singular_ode

    w = tracer.wrap
    w([cli], "main", "cli.main")
    w([singular_ode], "picard_seed", "singular_ode.picard_seed", _obs_picard)
    w([singular_ode], "solve_ivp", "singular_ode.solve_ivp", _obs_solve_ivp)
    w([singular_ode, extremal], "integrate", "singular_ode.integrate", _obs_integrate)
    w([singular_ode, extremal], "integrate_variational",
      "singular_ode.integrate_variational")
    w([singular_ode.DenseSolution], "eval", "singular_ode.DenseSolution.eval", _obs_eval)
    w([extremal], "solve_for_height", "extremal.solve_for_height")
    w([extremal], "solve_nu", "extremal.solve_nu")
    w([extremal], "find_switch", "extremal.find_switch", _obs_find_switch)
    w([extremal], "I_of", "extremal.I_of")
    w([extremal], "assemble_profile", "extremal.assemble_profile")
    w([extremal], "adjoint_omega", "extremal.adjoint_omega")
    w([extremal], "jacobi_check", "extremal.jacobi_check")
    w([extremal], "field_jacobian_check", "extremal.field_jacobian_check")
    w([functional, extremal], "J_scaled", "functional.J_scaled")
    w([functional], "J_unscaled", "functional.J_unscaled")
    w([functional], "gamma_form_J", "functional.gamma_form_J")
    w([functional], "resistance_direct", "functional.resistance_direct")
    w([geometry.BodyEvaluator], "__init__", "geometry.BodyEvaluator.init")
    w([geometry.BodyEvaluator], "__call__", "geometry.BodyEvaluator.call", _obs_body_call)
    w([geometry], "build_mesh", "geometry.build_mesh", _obs_mesh)
    w([geometry], "mesh_is_watertight", "geometry.mesh_is_watertight")
    w([geometry], "export_obj", "geometry.export_obj", _obs_export)

    brentq = extremal.brentq

    def counted_brentq(f, a, b, *args, **kwargs):
        with tracer.span("extremal.brentq") as sp:
            if kwargs.get("full_output"):
                out = brentq(f, a, b, *args, **kwargs)
                info = out[1]
            else:
                out, info = brentq(f, a, b, *args, full_output=True, **kwargs)
            sp.attrs["iters"] = int(info.iterations)
        return out

    tracer.patch([extremal], "brentq", counted_brentq)

    quad_value = functional.quad_value

    def counted_quad_value(f, a, b, **kw):
        evals = [0]

        def counted(x, *fargs):
            evals[0] += 1
            return f(x, *fargs)

        with tracer.span("functional.quad_value") as sp:
            value = quad_value(counted, a, b, **kw)
            sp.attrs["evals"] = evals[0]
        return value

    tracer.patch([functional, extremal], "quad_value", counted_quad_value)

    for mod in (cli, functional):
        tracer.patch([mod], "ThreadPoolExecutor",
                     tracer.linked_executor(mod.ThreadPoolExecutor))
    return tracer


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# name -> (unit, better), sorted by name so that each layer's lines group
PER_LAYER = {}


def _m(names, unit, better="lower"):
    for n in names.split():
        PER_LAYER[n] = (unit, better)


_WRAPPED = ("singular_ode.picard_seed singular_ode.integrate "
            "singular_ode.integrate_variational singular_ode.DenseSolution.eval "
            "extremal.solve_for_height extremal.solve_nu extremal.find_switch "
            "extremal.I_of extremal.assemble_profile extremal.adjoint_omega "
            "extremal.jacobi_check extremal.field_jacobian_check "
            "functional.quad_value functional.resistance_direct cli.main").split()
for _f in _WRAPPED:
    _m(f"{_f}.calls", "count")
    _m(f"{_f}.s {_f}.self_s", "s")
_m("singular_ode.picard_seed.iters singular_ode.integrate.segments "
   "singular_ode.dop853.calls singular_ode.dop853.steps singular_ode.dop853.rhs_evals "
   "singular_ode.integrate_variational.steps singular_ode.integrate_variational.rhs_evals "
   "singular_ode.DenseSolution.eval.points", "count")
_m("singular_ode.dop853.s", "s")
_m("singular_ode.picard_seed.rho_bound.max singular_ode.picard_seed.band_dev.max", "ratio")
_m("extremal.solve_for_height.s.p50", "s")
_m("extremal.solve_for_height.h_evals extremal.height_root.brentq_iters "
   "extremal.switch_root.brentq_iters extremal.solve_nu.integrations "
   "extremal.find_switch.I_evals extremal.adjoint_omega.quads "
   "extremal.field_jacobian_check.assemblies", "count")
_m("extremal.solve_nu.fresh_ratio extremal.switch_residual.max", "ratio")
_m("functional.quad_value.integrand_evals functional.resistance_direct.u_points "
   "functional.J_scaled.calls functional.J_unscaled.calls functional.gamma_form_J.calls",
   "count")
_m("functional.J_scaled.s functional.J_unscaled.s functional.gamma_form_J.s", "s")
_m("functional.resistance_direct.points_per_s", "1/s", "higher")
_m("functional.resistance_direct.rel_diff", "ratio")
_m("geometry.BodyEvaluator.init_s geometry.BodyEvaluator.call_s geometry.build_mesh.s "
   "geometry.mesh_is_watertight.s geometry.export_obj.s", "s")
_m("geometry.BodyEvaluator.points geometry.build_mesh.faces", "count")
_m("geometry.BodyEvaluator.us_per_point", "us")
_m("geometry.export_obj.bytes", "B")
_m("pool.tasks", "count")
_m("pool.task_s", "s")
_m("pool.overlap", "ratio", "higher")
_m("pool.busy_cores", "cores", "higher")
_m("trace.spans", "count")
_m("trace.overhead_frac", "ratio")
PER_LAYER = dict(sorted(PER_LAYER.items()))


def _union_length(intervals):
    total = 0.0
    end = -np.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans):
    """{span id: duration minus the part of it that child spans cover}."""
    kids = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append(s)
    out = {}
    for s in spans:
        cover = [(max(c.start, s.start), min(c.end, s.end)) for c in kids[s.id]]
        out[s.id] = s.duration - _union_length([iv for iv in cover if iv[1] > iv[0]])
    return out


def function_table(spans, self_s=None):
    """{span name: {'calls', 's', 'self_s'}} over all spans."""
    self_s = self_times(spans) if self_s is None else self_s
    table = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for s in spans:
        row = table[s.name]
        row["calls"] += 1
        row["s"] += s.duration
        row["self_s"] += self_s[s.id]
    return dict(table)


def switch_residuals(spans, I_of, solve_nu):
    """|I(rho)| for every find_switch result, via the unwrapped public I_of."""
    out = []
    for s in spans:
        if s.name == "extremal.find_switch" and "rho" in s.attrs:
            a = s.attrs
            nu = a["nu"] if a["nu"] is not None else solve_nu(a["alpha"])
            out.append(abs(I_of(a["rho"], a["alpha"], nu)))
    return out


def layer_metrics(spans, cpu_s, wall_s, switch_residual):
    """Per-layer metrics of one traced batch.

    cpu_s/wall_s are the batch's CPU and wall time and switch_residual the
    values from switch_residuals().  The oracle's rel_diff and the tracing
    overhead are not visible in the spans; the caller adds them.
    """
    by_id = {s.id: s for s in spans}
    self_s = self_times(spans)
    table = function_table(spans, self_s)

    def name_of(sid):
        return by_id[sid].name if sid in by_id else None

    def owner(s):
        """Nearest ancestor name, looking through brentq."""
        p = by_id.get(s.parent)
        while p is not None and p.name == "extremal.brentq":
            p = by_id.get(p.parent)
        return p.name if p is not None else None

    def named(name, parent=None, via=None):
        out = [s for s in spans if s.name == name]
        if parent is not None:
            out = [s for s in out if name_of(s.parent) == parent]
        if via is not None:
            out = [s for s in out if owner(s) == via]
        return out

    def total(ss, key=None):
        return float(sum(s.duration if key is None else s.attrs.get(key, 0) for s in ss))

    def biggest(ss, key):
        return max((s.attrs[key] for s in ss if key in s.attrs), default=0.0)

    m = {}
    for f in _WRAPPED:
        row = table.get(f, {"calls": 0, "s": 0.0, "self_s": 0.0})
        m[f"{f}.calls"] = row["calls"]
        m[f"{f}.s"] = row["s"]
        m[f"{f}.self_s"] = row["self_s"]

    seeds = named("singular_ode.picard_seed")
    m["singular_ode.picard_seed.iters"] = int(total(seeds, "iters"))
    m["singular_ode.picard_seed.rho_bound.max"] = biggest(seeds, "rho_bound")
    m["singular_ode.picard_seed.band_dev.max"] = biggest(seeds, "band_dev")
    m["singular_ode.integrate.segments"] = int(total(named("singular_ode.integrate"),
                                                     "segments"))
    dop = named("singular_ode.solve_ivp", parent="singular_ode.integrate")
    m["singular_ode.dop853.calls"] = len(dop)
    m["singular_ode.dop853.s"] = total(dop)
    m["singular_ode.dop853.steps"] = int(total(dop, "steps"))
    m["singular_ode.dop853.rhs_evals"] = int(total(dop, "rhs_evals"))
    var = named("singular_ode.solve_ivp", parent="singular_ode.integrate_variational")
    m["singular_ode.integrate_variational.steps"] = int(total(var, "steps"))
    m["singular_ode.integrate_variational.rhs_evals"] = int(total(var, "rhs_evals"))
    m["singular_ode.DenseSolution.eval.points"] = int(
        total(named("singular_ode.DenseSolution.eval"), "points"))

    heights = named("extremal.solve_for_height")
    m["extremal.solve_for_height.s.p50"] = (
        float(np.median([s.duration for s in heights])) if heights else 0.0)
    m["extremal.solve_for_height.h_evals"] = len(
        named("extremal.find_switch", via="extremal.solve_for_height"))
    m["extremal.height_root.brentq_iters"] = int(total(
        named("extremal.brentq", parent="extremal.solve_for_height"), "iters"))
    m["extremal.switch_root.brentq_iters"] = int(total(
        named("extremal.brentq", parent="extremal.find_switch"), "iters"))
    nu_calls = m["extremal.solve_nu.calls"]
    fresh = len(named("singular_ode.integrate", parent="extremal.solve_nu"))
    m["extremal.solve_nu.integrations"] = fresh
    m["extremal.solve_nu.fresh_ratio"] = fresh / nu_calls if nu_calls else 0.0
    m["extremal.find_switch.I_evals"] = len(named("extremal.I_of",
                                                  via="extremal.find_switch"))
    m["extremal.switch_residual.max"] = float(max(switch_residual, default=0.0))
    m["extremal.adjoint_omega.quads"] = len(named("functional.quad_value",
                                                  parent="extremal.adjoint_omega"))
    m["extremal.field_jacobian_check.assemblies"] = len(
        named("extremal.assemble_profile", parent="extremal.field_jacobian_check"))

    m["functional.quad_value.integrand_evals"] = int(total(
        named("functional.quad_value"), "evals"))
    for f in ("J_scaled", "J_unscaled", "gamma_form_J"):
        ss = named(f"functional.{f}")
        m[f"functional.{f}.calls"] = len(ss)
        m[f"functional.{f}.s"] = total(ss)
    direct = named("functional.resistance_direct")
    direct_ids = {s.id for s in direct}

    def under_direct(s):
        p = by_id.get(s.parent)
        while p is not None:
            if p.id in direct_ids:
                return True
            p = by_id.get(p.parent)
        return False

    calls = named("geometry.BodyEvaluator.call")
    u_points = int(total([s for s in calls if under_direct(s)], "points"))
    m["functional.resistance_direct.u_points"] = u_points
    direct_s = total(direct)
    m["functional.resistance_direct.points_per_s"] = u_points / direct_s if direct_s else 0.0

    points = int(total(calls, "points"))
    m["geometry.BodyEvaluator.init_s"] = total(named("geometry.BodyEvaluator.init"))
    m["geometry.BodyEvaluator.call_s"] = total(calls)
    m["geometry.BodyEvaluator.points"] = points
    m["geometry.BodyEvaluator.us_per_point"] = 1e6 * total(calls) / points if points else 0.0
    meshes = named("geometry.build_mesh")
    m["geometry.build_mesh.s"] = total(meshes)
    m["geometry.build_mesh.faces"] = int(total(meshes, "faces"))
    m["geometry.mesh_is_watertight.s"] = total(named("geometry.mesh_is_watertight"))
    objs = named("geometry.export_obj")
    m["geometry.export_obj.s"] = total(objs)
    m["geometry.export_obj.bytes"] = int(total(objs, "bytes"))

    tasks = named("pool.task")
    submitters = {s.parent for s in tasks}
    submit_s = sum(by_id[p].duration for p in submitters if p in by_id)
    m["pool.tasks"] = len(tasks)
    m["pool.task_s"] = total(tasks)
    m["pool.overlap"] = m["pool.task_s"] / submit_s if submit_s else 0.0
    m["pool.busy_cores"] = cpu_s / wall_s if wall_s else 0.0
    m["trace.spans"] = len(spans)
    return m


def orphan_pool_tasks(spans):
    """Pool task spans whose parent is missing: a broken parent link."""
    ids = {s.id for s in spans}
    return [s for s in spans if s.name == "pool.task" and s.parent not in ids]


def write_spans(path, spans):
    """Write spans as JSON rows [id, name, parent, thread, start, end, attrs]."""
    rows = [[s.id, s.name, s.parent, s.thread, s.start, s.end,
             {k: v for k, v in s.attrs.items() if k != "nu"}] for s in spans]
    with open(path, "w") as fh:
        json.dump({"fields": ["id", "name", "parent", "thread", "start", "end", "attrs"],
                   "spans": rows}, fh)
