#!/usr/bin/env python3
"""Self-test of the pirep benchmark (about a minute on two cores).

    python3 perfbench/selftest.py

Checks, each on small sizes:
  * BENCHMARK.json names exactly the metrics run.py prints;
  * the tracer sees every binding: traced ``numerics.opnorm`` and SVD call
    counts equal counts taken with ``sys.setprofile`` on the original code
    objects;
  * two traced runs at one seed give identical counts and ratios;
  * every workload has no failed op on a seed other than the default;
  * the traced and untraced runs print the same report digest;
  * speed scaling leaves a time alone when the probe runs at its reference
    time and halves it when the probe takes twice as long;
and prints the tracing overhead (untraced over traced pass throughput).
Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import run  # noqa: E402
from speed import SpeedProbe, WideProbe  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Ledger  # noqa: E402

SEED = 7  # not run.DEFAULT_SEED
SECONDS = 0.5  # the smallest work: 2 trials per claim, 1 large-window round
EXACT = ("calls", "svd_calls", "eigh_calls", "raised", "hit_ratio", "repeat_ratio", "skip_ratio",
         "svd_gflop_computed", "max_dense_mb", "spans")

failures = []


def check(ok: bool, message: str):
    print(("ok    " if ok else "FAIL  ") + message)
    if not ok:
        failures.append(message)


def bench(workload: str, trace: int, seed: int = SEED) -> dict:
    """One run of run.py in its own process: the result line, the digest
    and the median pass throughput."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["digest"] = next(line.split()[1] for line in lines if line.startswith("digest "))
    pass_ops = next(line.split()[1:] for line in lines if line.startswith("pass_ops_per_s "))
    result["pass_ops_per_s"] = statistics.median(float(x) for x in pass_ops)
    return result


def check_metric_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END), "end-to-end names match BENCHMARK.json")
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END, "end-to-end units match")
    check({m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units(), "per-layer names and units match")
    check({w["name"] for w in spec["workloads"]} <= set(WORKLOADS), "BENCHMARK.json workloads exist")


def check_bindings():
    """Tracer counts against sys.setprofile counts on the original code."""
    pirep = run.fresh_import()
    opnorm_code = pirep.numerics.opnorm.__code__
    svd = np.linalg.svd
    svd_code = getattr(svd, "_implementation", svd).__code__
    seen = {"opnorm": 0, "svd": 0}

    def profile(frame, event, arg):
        if event == "call":
            if frame.f_code is opnorm_code:
                seen["opnorm"] += 1
            elif frame.f_code is svd_code:
                seen["svd"] += 1

    for name, size in (("claims_scalar", 2), ("claims_two_block", 1)):
        seen.update(opnorm=0, svd=0)
        workload = WORKLOADS[name]
        plan = workload.inputs(pirep, SEED, size)
        tracer = Tracer(pirep)
        tracer.install()
        sys.setprofile(profile)
        try:
            workload.run(pirep, plan, Ledger(), tracer)
        finally:
            sys.setprofile(None)
            tracer.uninstall()
        summary = tracer.summary()
        traced_opnorm = summary["per_name"].get("numerics.opnorm", {}).get("calls", 0)
        traced_svd = summary["counts"].get("svd.calls", 0)
        check(traced_opnorm == seen["opnorm"] > 0,
              f"{name}: traced opnorm calls {traced_opnorm} == setprofile {seen['opnorm']}")
        check(traced_svd == seen["svd"] > 0, f"{name}: traced SVD calls {traced_svd} == setprofile {seen['svd']}")
    check(pirep.numerics.opnorm.__code__ is opnorm_code and pirep.covrep.opnorm is pirep.numerics.opnorm,
          "uninstall restores every binding")


def check_scaling():
    for probe in (SpeedProbe(), WideProbe()):
        probe.times = [10.0, 10.25, 10.5, 10.75]
        probe.values = [probe.reference_s] * 4
        same = run.scaled(probe, [(10.2, 10.3)])[0]
        probe.values = [probe.reference_s * 2] * 4
        half = run.scaled(probe, [(10.2, 10.3)])[0]
        check(abs(same - 0.1) < 1e-12 and abs(half - 0.05) < 1e-12,
              f"{type(probe).__name__} scaling: 0.1 s at reference speed -> {same:.6g}, "
              f"at twice the probe time -> {half:.6g}")


def check_runs():
    overhead = {}
    for name in WORKLOADS:
        plain = bench(name, 0)
        traced = bench(name, 1)
        again = bench(name, 1)
        check(plain["correct"] and plain["failed"] == 0 and traced["failed"] == 0,
              f"{name}: fail_ratio 0 on seed {SEED} ({plain['failed']}/{plain['attempted']})")
        check(plain["digest"] == traced["digest"] == again["digest"], f"{name}: traced digest equals untraced")
        a = {k: v["value"] for k, v in traced["metrics"].items() if k.rsplit(".", 1)[-1] in EXACT}
        b = {k: v["value"] for k, v in again["metrics"].items() if k.rsplit(".", 1)[-1] in EXACT}
        diff = sorted(k for k in a if a[k] != b.get(k))
        check(not diff and len(a) > 30, f"{name}: {len(a)} counts and ratios repeat exactly {diff[:5]}")
        overhead[name] = plain["pass_ops_per_s"] / traced["pass_ops_per_s"]
    for name, ratio in overhead.items():
        print(f"info  {name}: tracing overhead {ratio:.2f}x (untraced over traced pass throughput, small size)")


def main() -> int:
    check_metric_names()
    check_scaling()
    check_bindings()
    check_runs()
    print(f"{len(failures)} failed check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
