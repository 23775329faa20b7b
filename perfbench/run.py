"""Benchmark of the newton_minres command line on three workloads.

    python3 perfbench/run.py --workload family|certify|body --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S [--record FILE]

Run it from the repository root (or any checkout of it): the program is
imported from `src/` next to this directory, and scratch files go to
`.bench_build/perfbench/`.

A run is a sequence of batches.  Each batch runs in a fresh interpreter
(`worker.py`), so the package's caches start empty, and calls the public
entry point `newton_minres.cli.main(argv)` with argument lists drawn from the
seed.  Batches repeat, with new inputs, until `--seconds` have passed; at
least one always runs.  Every operation's output is checked; a failed check
counts in `failed`, and is never retried or dropped.

The host is shared, and how fast it runs the interpreter drifts by tens
of percent from minute to minute.  So every interpreter also times a fixed
probe, five times a second, on its main thread (see `worker.py`), and the
end-to-end times are scaled by the probe's reference time over its trimmed
mean time during the span they measure: they read as seconds on a host that runs the
probe in its reference time.  The unscaled times and the host's slowdown
are printed beside them.

With `--trace 0` the last line holds the end-to-end metrics (medians over
batches).  With `--trace 1` one batch runs untraced and then traced on the
same inputs; the last line holds the per-layer metrics of the traced batch,
including the tracing overhead against the untraced one, and the spans go to
`.bench_build/perfbench/`.  `--workload all` runs every workload that way
and prints both sets.  Earlier lines print every metric by name with its
unit, the run record (machine, versions, commit, seed) and the
operation-level figures that are not on every workload.
"""

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

sys.path.insert(0, str(HERE))
import spans  # noqa: E402  (per-layer metric names and units)

# a whole run, trace pair included, must end well within 180 s
RUN_LIMIT_S = 170.0
SETUP_PROBES = 2
# thread-CPU seconds of worker.py's probes on a quiet host; times are
# reported as if the host ran the probes in these times
REF_IMPORT_PROBE_S = 1.75e-3  # import_probe, timed while importing
REF_PROBE_S = 3.0e-3          # batch_probe, timed while the CLI calls run

# (M, p0, r, v'(0+), J) of the paper's height family
PAPER_ROWS = {
    0.5: (2.43337, 1.33559, 0.744669, 1.06309),
    1.0: (3.71647, 1.22077, 0.632450, 0.597791),
    1.5: (5.14856, 1.19669, 0.586444, 0.350482),
    2.0: (6.64354, 1.23585, 0.564900, 0.222512),
    2.5: (8.16986, 1.31540, 0.553467, 0.151524),
    5.0: (15.9653, 1.96456, 0.536348, 0.041450),
    10.0: (31.7371, 3.57283, 0.531668, 0.0106143),
    50.0: (158.373, 17.2830, 0.530132, 4.27905e-4),
    100.0: (316.727, 34.5295, 0.530084, 1.07002e-4),
}
ROW_KEYS = ("p0", "r", "vprime0", "J")
ROW_TOL = {"p0": 1e-4, "r": 1e-4, "vprime0": 1e-4, "J": 5e-4}
ORACLE_TOL = 1e-2  # acceptance criterion 3

SIZES = {
    "family_heights": tuple(PAPER_ROWS),  # paper rows in every table
    "family_extra": 2,                    # seeded extra rows per table
    "certify_alphas": 8,                  # seeded alphas per batch, besides 0
    "body_resolution": None,              # None: the CLI defaults (800, 1024)
    "mesh_resolution": None,
}

END_TO_END = {
    "setup_s": ("s", "fresh interpreter until `import newton_minres` returns, "
                     "at reference host speed, median over the run's interpreters"),
    "wall_s": ("s", "wall time of one batch's CLI calls at reference host speed, "
                    "median over batches"),
    "ops_per_s": ("1/s", "operations that passed their check per second of batch "
                         "time at reference host speed"),
    "cpu_s": ("s", "user+system CPU time of one batch's CLI calls at reference host "
                   "speed, median over batches"),
    "peak_rss_mb": ("MB", "peak resident memory of the batch interpreters"),
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _sig(x, digits=6):
    return float(f"{x:.{digits}g}")


def _scale(probe_s, ref=REF_PROBE_S):
    """Factor that turns a time measured while the probe took probe_s into
    one at reference host speed."""
    return ref / probe_s


def _op_s(ops):
    return [op["wall_s"] * _scale(op["probe_s"]) for op in ops]


def _rel(a, b):
    return abs(a - b) / abs(b)


def _load(text):
    try:
        return json.loads(text)
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# workloads: inputs and output checks
# ---------------------------------------------------------------------------

class Family:
    name = "family"
    why = ("one `table` over the paper's nine heights plus seeded ones: the whole "
           "1-D pipeline under the table's thread pool; the 2-D oracle stays idle")

    def batch(self, rng, sizes, tmp, tag):
        paper = set(sizes["family_heights"])
        extra = []
        n = sizes["family_extra"]
        for k in range(n):
            # one draw per stratum of log-uniform [0.5, 100]
            m = None
            while m is None or m in paper or m in extra:
                u = 1.0 - rng.random()
                m = _sig(math.exp(math.log(0.5) + (k + u) / n * math.log(200.0)))
            extra.append(m)
        heights = sorted(paper | set(extra))
        rows = ",".join(repr(m) for m in heights)
        return [[["table", "--format", "json", "--rows", rows]]], {"heights": heights}

    def check(self, ops, ctx, reference):
        heights = ctx["heights"]
        call = ops[0]["calls"][0]
        rows = _load(call["stdout"])
        if not isinstance(rows, list) or len(rows) != len(heights):
            return [False] * len(heights), [], {}
        ok = []
        for m, row in zip(heights, rows):
            good = (isinstance(row, dict) and row.get("error") is None
                    and all(isinstance(row.get(k), float) for k in ("M",) + ROW_KEYS))
            if good:
                good = (_rel(row["M"], m) < 1e-7 and row["p0"] > math.sqrt(3.0)
                        and 0.0 < row["r"] < row["p0"] and 0.0 < row["vprime0"] < 1.0
                        and row["J"] > 0.0)
            if good and m in reference:
                good = all(_rel(row[k], ref) <= ROW_TOL[k]
                           for k, ref in zip(ROW_KEYS, reference[m]))
            ok.append(good)
        if call["rc"] != 0 and all(ok):
            ok = [False] * len(ok)
        # across the family, p0 increases and J decreases with M
        for i in range(len(rows) - 1):
            a, b = rows[i], rows[i + 1]
            try:
                monotone = b["p0"] > a["p0"] and b["J"] < a["J"]
            except (TypeError, KeyError):
                continue  # a row without numbers has already failed
            if not monotone:
                ok[i] = ok[i + 1] = False
        return ok, [], {}


class Certify:
    name = "certify"
    why = ("one `check` per alpha, 0 plus seeded draws from (0, 0.32]: certificates "
           "(adjoint, Jacobi, field Jacobian), no height root, no oracle, serial")

    def batch(self, rng, sizes, tmp, tag):
        n = sizes["certify_alphas"]
        # one draw per stratum of (0, 0.32], so every batch spans the range
        alphas = [0.0] + [_sig(0.32 * (k + 1.0 - rng.random()) / n) for k in range(n)]
        return [[["check", "--alpha", repr(a)]] for a in alphas], {"alphas": alphas}

    def check(self, ops, ctx, reference):
        ok = []
        for a, op in zip(ctx["alphas"], ops):
            call = op["calls"][0]
            out = _load(call["stdout"])
            ok.append(call["rc"] == 0 and isinstance(out, dict) and out.get("pass") is True
                      and out.get("alphas") == [a])
        return ok, _op_s(ops), {}


class Body:
    name = "body"
    why = ("`resistance` then `mesh` for a seeded height in [0.5, 10]: the 2-D oracle "
           "and hull evaluator dominate, under a pool of GIL-releasing numpy work")

    def batch(self, rng, sizes, tmp, tag):
        m = _sig(0.5 + 9.5 * rng.random())
        obj = str(Path(tmp) / f"body-{tag}.obj")
        res = ["resistance", "--M", repr(m)]
        mesh = ["mesh", "--M", repr(m), "--out", obj]
        if sizes["body_resolution"]:
            res += ["--resolution", str(sizes["body_resolution"])]
        if sizes["mesh_resolution"]:
            mesh += ["--resolution", str(sizes["mesh_resolution"])]
        return [[res, mesh]], {"heights": [m], "objs": [obj]}

    def check(self, ops, ctx, reference):
        ok, rel_diffs = [], []
        for m, obj, op in zip(ctx["heights"], ctx["objs"], ops):
            res_call, mesh_call = op["calls"]
            res = _load(res_call["stdout"])
            mesh = _load(mesh_call["stdout"])
            good = (res_call["rc"] == 0 and mesh_call["rc"] == 0
                    and isinstance(res, dict) and isinstance(mesh, dict))
            if good:
                rel_diffs.append(res["rel_diff"])
                good = (res["rel_diff"] <= ORACLE_TOL and _rel(res["M"], m) < 1e-7
                        and mesh.get("watertight") is True
                        and _obj_counts(obj) == (mesh.get("n_vertices"), mesh.get("n_faces")))
            for path in (Path(obj), Path(obj).with_suffix(".json")):
                path.unlink(missing_ok=True)
            ok.append(good)
        return ok, _op_s(ops), {"rel_diffs": rel_diffs}


def _obj_counts(path):
    nv = nf = 0
    try:
        with open(path) as fh:
            for line in fh:
                nv += line.startswith("v ")
                nf += line.startswith("f ")
    except OSError:
        return None
    return nv, nf


WORKLOADS = {w.name: w for w in (Family(), Certify(), Body())}


# ---------------------------------------------------------------------------
# running batches
# ---------------------------------------------------------------------------

class Runner:
    """Starts probe and batch interpreters within the run's time limit."""

    def __init__(self, tmp, started):
        self.tmp = Path(tmp)
        self.deadline = started + RUN_LIMIT_S
        self.env = dict(os.environ)
        self.env.pop("NEWTON_MINRES_THREADS", None)  # measure the default pool
        path = os.environ.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
        self.jobs = 0

    def _run(self, argv):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s")
        try:
            # subprocess.run kills and reaps the child on timeout
            return subprocess.run(argv, env=self.env, capture_output=True, text=True,
                                  timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s") from None

    def probe_setup(self):
        """Seconds from starting an interpreter until the import returns,
        and the probe's time meanwhile."""
        t0 = time.monotonic()
        proc = self._run([sys.executable, str(HERE / "worker.py"), "--import-only"])
        if proc.returncode != 0:
            raise BenchError(f"cannot import newton_minres from {SRC}:\n{proc.stderr}")
        out = json.loads(proc.stdout.splitlines()[-1])
        return out["imported_at"] - t0, out["import_probe_s"]

    def batch(self, ops, trace, spans_file=None):
        self.jobs += 1
        job = self.tmp / f"job{self.jobs}.json"
        result = self.tmp / f"result{self.jobs}.json"
        job.write_text(json.dumps({"src": str(SRC), "trace": trace, "ops": ops,
                                   "spans_file": str(spans_file) if spans_file else None}))
        t0 = time.monotonic()
        proc = self._run([sys.executable, str(HERE / "worker.py"), str(job), str(result)])
        if proc.returncode != 0:
            raise BenchError(f"batch interpreter failed:\n{proc.stderr}")
        out = json.loads(result.read_text())
        out["setup_s"] = out["imported_at"] - t0
        for key in ("wall_s", "cpu_s"):
            out[f"scaled_{key}"] = out[key] * _scale(out["probe_s"])
        return out


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:  # no git program
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_record(seed, versions):
    rec = {"nproc": os.cpu_count(), "cpu": _cpu_model()}
    rec.update(versions)
    rec.update({"commit": _commit(), "seed": seed})
    return rec


def _percentiles(samples):
    """Median and the highest of p90/p99 with at least ten samples beyond it."""
    out = {"p50": statistics.median(samples)}
    for q in (0.99, 0.9):
        if len(samples) * (1.0 - q) >= 10:
            out[f"p{round(q * 100)}"] = statistics.quantiles(samples, n=100)[round(q * 100) - 1]
            break
    return out


def run_workload(wl, seed, seconds, trace, sizes=SIZES, reference=PAPER_ROWS):
    """Run one workload; returns a dict with end_to_end, per_layer (traced
    runs only), attempted/failed counts and the operation-level figures."""
    started = time.monotonic()
    OUT.mkdir(parents=True, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT)
    try:
        runner = Runner(tmp, started)
        setup = [runner.probe_setup() for _ in range(SETUP_PROBES)]
        batches, passes, traced_passes, op_times, rel_diffs = [], [], [], [], []
        traced = None
        stop = time.monotonic() + seconds
        index = 0
        while True:
            tag = f"{wl.name}/{seed}/{index}"
            ops, ctx = wl.batch(random.Random(tag), sizes, tmp, f"b{index}")
            res = runner.batch(ops, trace=False)
            ok, times, extra = wl.check(res["ops"], ctx, reference)
            setup.append((res["setup_s"], res["import_probe_s"]))
            batches.append(res)
            passes += ok
            op_times += times
            rel_diffs += extra.get("rel_diffs", [])
            if trace:
                # same inputs again, traced; one pair, so that per-layer
                # counts belong to one batch
                ops, ctx = wl.batch(random.Random(tag), sizes, tmp, f"b{index}t")
                traced = runner.batch(ops, trace=True,
                                      spans_file=OUT / f"spans-{wl.name}-seed{seed}.json")
                traced_passes, _, t_extra = wl.check(traced["ops"], ctx, reference)
                traced["rel_diffs"] = t_extra.get("rel_diffs", [])
                break
            index += 1
            if time.monotonic() >= stop:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    walls = [b["scaled_wall_s"] for b in batches]
    attempted = len(passes) + len(traced_passes)
    failed = attempted - sum(passes) - sum(traced_passes)
    result = {
        "workload": wl.name,
        "batches": len(batches),
        "attempted": attempted,
        "failed": failed,
        "record": run_record(seed, batches[0]["versions"]),
        "end_to_end": {
            "setup_s": statistics.median(t * _scale(p, REF_IMPORT_PROBE_S)
                                         for t, p in setup),
            "wall_s": statistics.median(walls),
            "ops_per_s": sum(passes) / sum(walls),
            "cpu_s": statistics.median(b["scaled_cpu_s"] for b in batches),
            "peak_rss_mb": max(b["peak_rss_mb"] for b in batches),
        },
        "unscaled": {
            "setup_s": statistics.median(t for t, _ in setup),
            "wall_s": statistics.median(b["wall_s"] for b in batches),
            "cpu_s": statistics.median(b["cpu_s"] for b in batches),
        },
        "host_slowdown": [b["probe_s"] / REF_PROBE_S for b in batches],
        "batch_wall_s": walls,
        "setup_samples": len(setup),
        "fail_frac": failed / attempted,
        "op_s": _percentiles(op_times) if op_times else None,
        "op_samples": len(op_times),
        "oracle_rel_diff_max": max(rel_diffs) if rel_diffs else None,
    }
    if traced is not None:
        if traced["orphan_pool_tasks"]:
            raise BenchError(f"{traced['orphan_pool_tasks']} pool task spans lost their parent")
        layers = dict(traced["layers"])
        layers["functional.resistance_direct.rel_diff"] = max(traced["rel_diffs"], default=0.0)
        layers["trace.overhead_frac"] = traced["scaled_wall_s"] / walls[-1] - 1.0
        result["per_layer"] = {name: layers[name] for name in spans.PER_LAYER}
        result["orphan_pool_tasks"] = traced["orphan_pool_tasks"]
        result["functions"] = traced["functions"]
        result["traced_wall_s"] = traced["scaled_wall_s"]
        result["traced_cpu_s"] = traced["scaled_cpu_s"]
        with open(OUT / f"trace-{wl.name}-seed{seed}.json", "w") as fh:
            json.dump({k: result[k] for k in ("workload", "record", "per_layer",
                                              "functions", "traced_wall_s")}, fh, indent=1)
    return result


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _metric(value, unit):
    return {"value": value, "unit": unit}


def report(result):
    """Print every metric by name with its unit; returns the end-to-end and
    the per-layer metrics (None for an untraced run) as result-line dicts."""
    wl = result["workload"]
    print(f"# workload {wl}: {WORKLOADS[wl].why}")
    print("# record " + json.dumps(result["record"], sort_keys=True))
    print(f"# {wl}: {result['batches']} untraced batch(es), {result['attempted']} "
          f"operations attempted, {result['failed']} failed; batch wall times at "
          "reference host speed (s): " + ", ".join(f"{w:.4g}" for w in result["batch_wall_s"]))
    print(f"# {wl} host: the probe took " + ", ".join(
        f"{x:.3g}" for x in result["host_slowdown"]) + " x its reference time in the "
          "batches; unscaled " + ", ".join(
        f"{k} = {v:.6g} s" for k, v in result["unscaled"].items()))
    for name, (unit, meaning) in END_TO_END.items():
        print(f"{wl} {name} = {result['end_to_end'][name]:.6g} {unit}   ({meaning})")
    print(f"{wl} fail_frac = {result['fail_frac']:.6g} ratio   "
          f"(failed / attempted operations)")
    if result["op_s"] is not None:
        for q, v in result["op_s"].items():
            print(f"{wl} op_s.{q} = {v:.6g} s   (wall time of one operation, "
                  f"n={result['op_samples']})")
    if result["oracle_rel_diff_max"] is not None:
        print(f"{wl} oracle_rel_diff.max = {result['oracle_rel_diff_max']:.6g} ratio   "
              f"(largest |direct - 2J| / 2J)")
    e2e = {name: _metric(result["end_to_end"][name], unit)
           for name, (unit, _) in END_TO_END.items()}
    if "per_layer" not in result:
        return e2e, None

    layers = result["per_layer"]
    for name, (unit, _) in spans.PER_LAYER.items():
        print(f"{wl} {name} = {layers[name]:.6g} {unit}")
    if layers["pool.tasks"]:
        busy, overlap = layers["pool.busy_cores"], layers["pool.overlap"]
        verdict = ("contention: the tasks mostly wait for each other, not parallel "
                   "speed-up" if overlap > 1.1 * busy else "the overlap is parallel work")
        print(f"# {wl} pool: {layers['pool.tasks']} tasks, task spans sum "
              f"{layers['pool.task_s']:.3g} s = {overlap:.3g} x the submitting spans, "
              f"but {busy:.3g} cores busy over the batch: {verdict}")
    return e2e, {name: _metric(layers[name], unit)
                 for name, (unit, _) in spans.PER_LAYER.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="keep starting batches until this much time has passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", default=None,
                    help="also write every number of the run to this JSON file")
    args = ap.parse_args(argv)
    if not (SRC / "newton_minres" / "cli.py").is_file():
        print(f"error: no newton_minres sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace) or args.workload == "all"
    results, metrics = {}, {}
    try:
        for name in names:
            results[name] = run_workload(WORKLOADS[name], args.seed, args.seconds, trace)
            e2e, layers = report(results[name])
            if args.workload != "all":
                metrics = layers if trace else e2e
            else:
                metrics.update({f"{name}.{k}": v for k, v in {**e2e, **layers}.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.record:
        with open(args.record, "w") as fh:
            json.dump(results, fh, indent=1, sort_keys=True)
            fh.write("\n")
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
