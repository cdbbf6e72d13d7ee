#!/usr/bin/env python3
"""Time ``power_report``, ``classify`` and the generalized range on
weighted shifts, a whole shift case, ``wold_decompose`` on shift (+)
unitary models, and bi-regularity and the generalized-inverse check on a
coisometric row, and write the numbers, with the machine and numpy/BLAS
configuration, as JSON.

Usage:
    python scripts/bench_shift_powers.py OUT.json

Each case runs in its own Python process, with one BLAS thread, against the
package in this checkout's ``src``, three times; the record keeps every
wall time of the first, cold call alone (``wall_s``) and of building its
representation (``build_s``), neither with the import, the fastest cold
call, and the largest max RSS of the three processes.  Each process then
builds the input afresh and calls it ``WARM_CALLS`` more times, and the
record keeps each process's fastest warm call (``warm_s``) and the
fastest of them (``best_warm_s``): a cold call of a few milliseconds is
mostly first-use work (imports inside numpy, caches), which the warm
calls do not repeat.  The cases:
``power_report`` on (n, trunc, n_max) = (2, 120, 4), (3, 216, 4),
(2, 500, 4), (2, 1000, 3) and (2, 1000, 4); ``classify`` on the
n = 3, trunc 216 shift; ``generalized_range`` (R^infty, recorded as its
dim) on the n = 1, trunc 216 and n = 2, trunc 1000 shifts; a shift case
(``shift_pi_criterion`` with power_cap 3, then ``kernel_formula`` and the
oracle ``brute_force_kernel`` for every direction i and power k <= 3,
which must agree) on the n = 3, trunc 216 and n = 2, trunc 64 shifts
with zero set {1, 4}, its ``build_s`` the spec alone; and
``wold_decompose`` (``check_hypotheses=False``) on the forward shift of
size q (+) a Haar unitary of size u = 20 for q = 60, q = 200 and q = 400
(``harness.shift_plus_unitary_fixture``, seed 0), and on the q = 400
model ``power_report`` with n_max 4, ``classify`` and the pseudoinverse
chain inclusions of bi-regularity with n 3, all on its lift held as a
split form (``wold._pinv_chain_inclusions``, called directly, since the
model is not regular and ``is_bi_regular`` refuses it); and
``is_bi_regular`` and ``generalized_inverse_check`` (S the pseudoinverse of the lift, m_bound 3)
on the row of n = 3 Haar unitaries on C^4 scaled by 1/sqrt(3)
(``harness.coisometric_row_fixture``, seed 0), whose kernels of
I_(E^m) (x) T^+ and of tilde_4 are 324 columns wide.  A case whose process
fails is recorded with the last line of its error output.  To compare
two commits, run the script in a checkout of each.
"""

import json
import os
import pathlib
import platform
import subprocess
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]

CASES = [
    {"kind": "power_report", "n": 2, "trunc": 120, "n_max": 4},
    {"kind": "power_report", "n": 3, "trunc": 216, "n_max": 4},
    {"kind": "power_report", "n": 2, "trunc": 500, "n_max": 4},
    {"kind": "power_report", "n": 2, "trunc": 1000, "n_max": 3},
    {"kind": "power_report", "n": 2, "trunc": 1000, "n_max": 4},
    {"kind": "classify", "n": 3, "trunc": 216},
    {"kind": "generalized_range", "n": 1, "trunc": 216},
    {"kind": "generalized_range", "n": 2, "trunc": 1000},
    {"kind": "shift_case", "n": 3, "trunc": 216, "zero_set": [1, 4]},
    {"kind": "shift_case", "n": 2, "trunc": 64, "zero_set": [1, 4]},
    {"kind": "wold", "q": 60, "u": 20},
    {"kind": "wold", "q": 200, "u": 20},
    {"kind": "wold", "q": 400, "u": 20},
    {"kind": "power_report", "q": 400, "u": 20, "n_max": 4},
    {"kind": "classify", "q": 400, "u": 20},
    {"kind": "pinv_chain", "q": 400, "u": 20, "n": 3},
    {"kind": "bi_regular", "n": 3, "d": 4},
    {"kind": "gen_inverse", "n": 3, "d": 4, "m_bound": 3},
]

REPEATS = 3

# Calls of a case timed warm in each process after its first, cold call,
# each on a freshly built input; the record keeps the fastest.
WARM_CALLS = 15

def build(case: dict):
    """The input of ``case``, built afresh."""
    from pirep import harness, shifts
    from pirep.numerics import DEFAULT_TOL

    if "q" in case:
        return harness.shift_plus_unitary_fixture(np.random.default_rng(0), DEFAULT_TOL, q=case["q"], u_dim=case["u"])
    if case["kind"] in ("bi_regular", "gen_inverse"):
        return harness.coisometric_row_fixture(np.random.default_rng(0), DEFAULT_TOL, case["n"], case["d"])
    if case["kind"] == "shift_case":
        return shifts.WeightedShiftSpec(n=case["n"], zero_set=case["zero_set"], trunc=case["trunc"])
    return shifts.build_shift(shifts.WeightedShiftSpec(n=case["n"], trunc=case["trunc"]), DEFAULT_TOL)


def call(case: dict, arg) -> dict:
    """Run ``case`` on its input ``arg``; its result as JSON data."""
    from pirep import powers, shifts, wold
    from pirep.numerics import DEFAULT_TOL, pseudoinverse

    if case["kind"] == "power_report":
        return powers.power_report(arg, case["n_max"]).to_dict()
    if case["kind"] == "wold":
        return wold.wold_decompose(arg, check_hypotheses=False).to_dict()
    if case["kind"] == "generalized_range":
        return {"dim": powers.generalized_range(arg).dim}
    if case["kind"] == "pinv_chain":
        return {"inclusions": wold._pinv_chain_inclusions(arg, case["n"])}
    if case["kind"] == "bi_regular":
        return {"bi_regular": wold.is_bi_regular(arg)}
    if case["kind"] == "gen_inverse":
        return powers.generalized_inverse_check(arg, pseudoinverse(arg.tilde, DEFAULT_TOL), case["m_bound"]).to_dict()
    if case["kind"] == "shift_case":
        result = {"criterion": shifts.shift_pi_criterion(arg, DEFAULT_TOL, power_cap=3).to_dict(), "kernels": {}}
        for k in (1, 2, 3):
            for i in range(1, arg.n + 1):
                formula = shifts.kernel_formula(arg, i, k)
                if formula != shifts.brute_force_kernel(arg, i, k, DEFAULT_TOL):
                    raise AssertionError(f"i={i}, k={k}: the formula and the oracle disagree")
                result["kernels"][f"i={i},k={k}"] = formula
        return result
    return arg.classify().to_dict()


# Runs in the child, with this directory and the checkout's ``src`` on its
# path: times the build and the cold call, then the warm calls, and prints
# one JSON line.
CHILD = """
import json, resource, sys, time
from pirep import harness, powers, shifts, wold
from bench_shift_powers import build, call
case, warm_calls = json.loads(sys.argv[1]), int(sys.argv[2])

start = time.perf_counter()
arg = build(case)
build_s = time.perf_counter() - start
start = time.perf_counter()
result = call(case, arg)
wall = time.perf_counter() - start
warm = []
for _ in range(warm_calls):
    arg = build(case)
    start = time.perf_counter()
    again = call(case, arg)
    warm.append(time.perf_counter() - start)
    if again != result:
        raise AssertionError("a warm call disagrees with the cold one")
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"build_s": build_s, "wall_s": wall, "warm_s": min(warm), "max_rss_mb": rss, "result": result}))
"""

ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def run_once(case: dict) -> dict:
    """One process running ``case``: its wall time, max RSS and result, or
    the last line of its error output."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "scripts")]), **ONE_THREAD)
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(case), str(WARM_CALLS)], capture_output=True, text=True, env=env)
    if done.returncode != 0:
        return {"error": (done.stderr.strip().splitlines() or ["exit %d" % done.returncode])[-1]}
    return json.loads(done.stdout)


def measure(case: dict, repeats: int) -> dict:
    first = run_once(case)
    if "error" in first:
        return {"case": case, **first}
    runs = [first] + [run_once(case) for _ in range(repeats - 1)]
    if any(run["result"] != runs[0]["result"] for run in runs):
        raise RuntimeError(f"{case}: the repeats disagree")
    return {
        "case": case,
        "build_s": [round(run["build_s"], 4) for run in runs],
        "wall_s": [round(run["wall_s"], 4) for run in runs],
        "best_wall_s": round(min(run["wall_s"] for run in runs), 4),
        "warm_s": [round(run["warm_s"], 5) for run in runs],
        "best_warm_s": round(min(run["warm_s"] for run in runs), 5),
        "max_rss_mb": round(max(run["max_rss_mb"] for run in runs), 1),
        "result": runs[0]["result"],
    }


def _cpu_model() -> str:
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "machine": {
            "platform": platform.platform(),
            "cpu": _cpu_model(),
            "cpu_count": os.cpu_count(),
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": 1,
    }


def main(argv: list) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = {**environment(), "repeats": REPEATS, "cases": [measure(case, REPEATS) for case in CASES]}
    pathlib.Path(argv[0]).write_text(json.dumps(out, indent=2) + "\n")
    for record in out["cases"]:
        if "error" in record:
            print(record["case"], record["error"])
        else:
            print(record["case"], f"{record['best_wall_s']:.3f} s cold", f"{record['best_warm_s'] * 1e3:.2f} ms warm", f"{record['max_rss_mb']:.0f} MB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
