"""Self-test of the benchmark on tiny inputs.

    python3 perfbench/selftest.py

Runs every workload once, traced, with one paper height, one seeded alpha
and coarse body grids, and checks that:

* every operation passes its check;
* every metric BENCHMARK.json names is emitted, with the unit it declares;
* a tampered reference value makes the matching `family` row fail.

Exits 0 when all hold; prints each problem and exits 1 otherwise.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

TINY = {
    "family_heights": (0.5,),
    "family_extra": 1,
    "certify_alphas": 1,
    "body_resolution": 64,
    "mesh_resolution": 32,
}


def _missing(declared, emitted, kind):
    out = []
    for m in declared:
        got = emitted.get(m["name"])
        if got is None:
            out.append(f"{kind} metric {m['name']} not emitted")
        elif got["unit"] != m["unit"]:
            out.append(f"{kind} metric {m['name']} has unit {got['unit']}, "
                       f"BENCHMARK.json says {m['unit']}")
    return out


def main():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in bench["workloads"]] != list(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    for name, wl in run.WORKLOADS.items():
        result = run.run_workload(wl, seed=0, seconds=0, trace=True, sizes=TINY)
        e2e, layers = run.report(result)
        if result["failed"]:
            problems.append(f"{name}: {result['failed']} of {result['attempted']} "
                            "operations failed")
        problems += _missing(bench["end_to_end"], e2e, f"{name} end-to-end")
        problems += _missing(bench["per_layer"], layers, f"{name} per-layer")

    p0, *rest = run.PAPER_ROWS[0.5]
    tampered = {0.5: (p0 * 1.01, *rest)}
    result = run.run_workload(run.WORKLOADS["family"], seed=0, seconds=0, trace=False,
                              sizes=TINY, reference=tampered)
    if result["failed"] != 1:
        problems.append(f"tampered p0 at M=0.5: {result['failed']} failed rows, expected 1")

    for p in problems:
        print("SELFTEST PROBLEM:", p)
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
