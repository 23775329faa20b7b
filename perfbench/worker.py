"""Run one benchmark batch in a fresh interpreter.

    python3 perfbench/worker.py JOB.json RESULT.json
    python3 perfbench/worker.py --import-only

JOB holds the package's source directory, the CLI argument lists of each
operation, and whether to trace.  The worker imports `newton_minres` first,
so its caches start empty, then calls `newton_minres.cli.main(argv)` for
every argument list and writes wall and CPU times, exit codes and captured
output to RESULT.  With tracing on it also writes the per-layer numbers and
the spans to the job's trace file.  `--import-only` imports the package and
prints when the import returned, as JSON.

From its first line the worker times a fixed probe, every
PROBE_INTERVAL_S, from a SIGALRM handler in the main thread, in that
thread's CPU time.  Until `newton_minres` is imported the probe is random
reads of a 4 MB list; after it, a short scipy DOP853 solve of a fixed toy
ODE followed by the same reads, which slows down on a busy host about as
much as the package's own arc solves do.  The probe's trimmed mean over the
import, over the batch and over each operation tells how fast the shared
host executed the interpreter just then; `run.py` scales the measured times
by it.  Neither probe calls into `newton_minres`, so a change to the
package does not move them.
"""

import random
import signal
import sys
import time

PROBE_INTERVAL_S = 0.2
_LIST = [i & 255 for i in range(1 << 19)]  # small ints are shared: 4 MB of pointers
_READS = random.Random(0).choices(range(len(_LIST)), k=15000)


def import_probe():
    """Random reads of a list larger than the core's L2 cache."""
    s = 0
    for i in _READS:
        s += _LIST[i]
    return s


def _toy_rhs(t, y):
    return [y[1], -y[0] - 0.1 * y[1] * abs(y[0])]


def batch_probe():
    """A short DOP853 solve through scipy, then import_probe()."""
    from scipy.integrate import solve_ivp  # imported before the probe switches

    solve_ivp(_toy_rhs, (0.0, 1.2), [1.0, 0.0], method="DOP853", rtol=1e-11, atol=1e-13)
    return import_probe()


class HostProbe:
    """Thread-CPU seconds of the probe, one sample per timer tick."""

    def __init__(self):
        self.samples = []
        self.probe = import_probe

    def _tick(self, signum, frame):
        # hold the interpreter lock for the whole probe, so that the CLI's
        # pool threads do not run in the middle of it
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1.0)
        try:
            c0 = time.thread_time()
            self.probe()
            self.samples.append(time.thread_time() - c0)
        finally:
            sys.setswitchinterval(switch)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def switch(self, probe):
        """Time `probe` from the next tick on."""
        self.probe = probe

    def mark(self):
        return len(self.samples)

    def mean(self, since, until=None):
        """Mean sample from mark `since` to mark `until`, without the
        highest and lowest tenth; a window without a tick takes one sample
        now."""
        window = sorted(self.samples[since:until])
        if not window:
            self._tick(None, None)
            window = self.samples[-1:]
        cut = len(window) // 10
        window = window[cut:len(window) - cut]
        return sum(window) / len(window)


PROBE = HostProbe()
PROBE.start()

import contextlib  # noqa: E402  (imports are timed by the probe too)
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def _run_call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception:  # an escaped exception fails this operation, not the batch
        rc = None
        err.write(traceback.format_exc())
    return {"argv": argv, "rc": rc, "wall_s": time.perf_counter() - t0,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def _versions(functional):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}".strip(),
            "thread_count": functional.thread_count()}


def import_only():
    import newton_minres  # noqa: F401
    imported = time.monotonic()
    probe_s = PROBE.mean(0)
    print(json.dumps({"imported_at": imported, "import_probe_s": probe_s}))


def main(job_path, result_path):
    with open(job_path) as fh:
        job = json.load(fh)
    import newton_minres
    imported = time.monotonic()
    import_probe_s = PROBE.mean(0)
    from scipy.integrate import solve_ivp  # noqa: F401  (for batch_probe)
    PROBE.switch(batch_probe)
    src = os.path.realpath(job["src"])
    if not os.path.realpath(newton_minres.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported newton_minres from {newton_minres.__file__}, "
                         f"not from {src}")
    from newton_minres import cli, extremal, functional

    tracer = None
    if job["trace"]:
        import spans
        tracer = spans.instrument(spans.Tracer())

    ops = []
    batch_mark = PROBE.mark()
    c_batch = time.process_time()
    t_batch = time.perf_counter()
    for op in job["ops"]:
        op_mark = PROBE.mark()
        c0 = time.process_time()
        t0 = time.perf_counter()
        calls = [_run_call(cli, argv) for argv in op]
        ops.append({"calls": calls, "wall_s": time.perf_counter() - t0,
                    "cpu_s": time.process_time() - c0,
                    "probe_s": PROBE.mean(op_mark)})
    wall_s = time.perf_counter() - t_batch
    cpu_s = time.process_time() - c_batch
    batch_probe_s = PROBE.mean(batch_mark)
    PROBE.stop()

    result = {"imported_at": imported, "import_probe_s": import_probe_s,
              "wall_s": wall_s, "cpu_s": cpu_s, "probe_s": batch_probe_s,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "versions": _versions(functional), "ops": ops}
    if tracer is not None:
        tracer.uninstall()
        residual = spans.switch_residuals(tracer.spans, extremal.I_of, extremal.solve_nu)
        result["layers"] = spans.layer_metrics(tracer.spans, cpu_s, wall_s, residual)
        result["orphan_pool_tasks"] = len(spans.orphan_pool_tasks(tracer.spans))
        result["functions"] = spans.function_table(tracer.spans)
        spans.write_spans(job["spans_file"], tracer.spans)
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    try:
        if sys.argv[1:] == ["--import-only"]:
            import_only()
        else:
            main(*sys.argv[1:3])
    finally:
        PROBE.stop()
