#!/usr/bin/env python3
"""Run the benchmark over several seeds and print every end-to-end metric
with its unit, sample count and run-to-run spread.

    python3 perfbench/report.py --seeds 1-10 --seconds 20
    python3 perfbench/report.py --seeds 1-10 --traced --save perfbench/results/series1.json
    python3 perfbench/report.py --compare perfbench/results/series1.json perfbench/results/series2.json

Each run is its own ``run.py`` process.  The spread of a metric is the
distance between the first and third quartile of its values over the
seeds (``statistics.quantiles(values, n=4)``) as a share of their median;
it is compared with the metric's bound in BENCHMARK.json and with a third
of it, and every metric above either is flagged.  The median and spread of
the same metric from unscaled times (run.py's ``unscaled`` line) are
printed beside it.  With ``--traced`` every
workload also gets one traced run at the first seed: the report prints
the tracing overhead, checks that the traced digest equals the untraced
one, and reports whether each workload loads the layers it is meant to
load.  ``--compare`` takes two saved series of the same code and prints,
per workload and metric, how much worse the second median is than the
first, against the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# (workload, numerator metric, bound, "min" or "max"): shares of traced time
LOAD_CHECKS = (
    ("claims_two_block", "correspondence.self_s", 0.40, "min"),
    ("large_window", "numerics.svd_s", 0.50, "min"),
    ("large_window", "correspondence.self_s", 0.05, "max"),
)


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    for line in lines:
        key, _, rest = line.partition(" ")
        if key == "digest":
            out["digest"] = rest
        elif key == "env":
            out["env"] = json.loads(rest)
        elif key == "samples":
            out["samples"] = dict(item.split("=") for item in rest.split())
        elif key == "pass_ops_per_s":
            out["pass_ops_per_s"] = [float(x) for x in rest.split()]
        elif key == "unscaled":
            out["unscaled"] = {k: float(v) for k, v in (item.split("=") for item in rest.split())}
    return out


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``
    (negative when it is better)."""
    return (second - first) / first if better == "lower" else (first - second) / first


def compare(spec: dict, paths: list) -> int:
    first, second = (json.loads(path.read_text()) for path in paths)
    problems = 0
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for workload, entry in first["workloads"].items():
            a = entry["metrics"][name]["median"]
            b = second["workloads"][workload]["metrics"][name]["median"]
            worse = worsening(a, b, metric["better"])
            over = worse > bound
            problems += over
            print(f"{workload:17s} {name:12s} median {a:.5g} -> {b:.5g} {metric['unit']:4s} "
                  f"worse by {worse:+.3f} (bound {bound}){'  <-- ABOVE THE BOUND' if over else ''}")
    print(f"{problems} median(s) worse than the first series by more than the bound")
    return 1 if problems else 0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--save", type=Path, default=None)
    parser.add_argument("--compare", type=Path, nargs=2, default=None, metavar="SERIES.json")
    args = parser.parse_args()
    if args.compare:
        return compare(spec, args.compare)
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    problems = 0

    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            run = bench(workload, seed, args.seconds, 0)
            runs.append(run)
            print(f"{workload} seed={seed} ops={run['samples']['ops']} failed={run['failed']}/{run['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in run["metrics"].items()), flush=True)
        failed = sum(r["failed"] for r in runs)
        problems += failed
        entry = {"env": runs[0]["env"], "failed": failed, "attempted": sum(r["attempted"] for r in runs),
                 "runs": [{"seed": s, "digest": r["digest"], "samples": r["samples"],
                           "pass_ops_per_s": r["pass_ops_per_s"], "unscaled": r["unscaled"],
                           "metrics": {k: v["value"] for k, v in r["metrics"].items()}}
                          for s, r in zip(seeds, runs)],
                 "metrics": {}}
        print(f"== {workload}: fail_ratio {failed}/{entry['attempted']}, samples per run: ops "
              f"{sorted({int(r['samples']['ops']) for r in runs})}, passes {sorted({r['samples']['passes'] for r in runs})}, "
              f"set-ups {sorted({r['samples']['setups'] for r in runs})}")
        for name, meta in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            row = {"unit": meta["unit"], "median": statistics.median(values), "min": min(values), "max": max(values)}
            note = ""
            if len(values) >= 2:
                row["spread"] = spread(values)
                bound = bounds[name]
                note = f"spread {row['spread']:.3f} (bound {bound}, a third {bound / 3:.3f})"
                if row["spread"] > bound:
                    note += "  <-- ABOVE THE BOUND"
                    problems += 1
                elif row["spread"] > bound / 3:
                    note += "  <-- above a third of the bound"
                if name in runs[0]["unscaled"]:
                    plain = [r["unscaled"][name] for r in runs]
                    row["unscaled_median"] = statistics.median(plain)
                    row["unscaled_spread"] = spread(plain)
                    note += f"; unscaled median {row['unscaled_median']:.5g}, spread {row['unscaled_spread']:.3f}"
            entry["metrics"][name] = row
            print(f"   {name:12s} median {row['median']:.5g} {meta['unit']:5s} [{row['min']:.5g}, {row['max']:.5g}]  {note}")

        if args.traced:
            traced = bench(workload, seeds[0], args.seconds, 1)
            m = {k: v["value"] for k, v in traced["metrics"].items()}
            same = traced["digest"] == runs[0]["digest"]
            problems += 0 if same else 1
            untraced = statistics.median(runs[0]["pass_ops_per_s"])
            overhead = untraced / m["trace.ops_per_s"]
            entry["traced"] = {"seed": seeds[0], "digest_equal": same, "overhead": overhead, "metrics": m}
            print(f"   traced seed={seeds[0]}: digest {'equal' if same else 'DIFFERENT'}; "
                  f"tracing overhead {overhead:.2f}x (pass ops/s {untraced:.4g} untraced median, "
                  f"{m['trace.ops_per_s']:.4g} traced; {m['trace.spans']:.0f} spans)")
            for layer in ("numerics", "correspondence", "covrep", "products", "powers", "shifts", "wold",
                          "harness", "serialize"):
                share = m[f"{layer}.self_s"] / m["trace.wall_s"]
                print(f"   {layer:15s} self {m[f'{layer}.self_s']:8.3f} s  {share:6.1%} of traced time  "
                      f"calls {m[f'{layer}.calls']:.0f}  raised {m[f'{layer}.raised']:.0f}")
            print(f"   svd {m['numerics.svd_calls']:.0f} calls {m['numerics.svd_s']:.3f} s "
                  f"({m['numerics.svd_s'] / m['trace.wall_s']:.1%}), {m['numerics.svd_gflop_computed']:.3g} GFLOP computed, "
                  f"largest dense {m['numerics.max_dense_mb']:.3g} MB computed")
            for name, metric, bound, kind in LOAD_CHECKS:
                if name != workload:
                    continue
                share = m[metric] / m["trace.wall_s"]
                met = share >= bound if kind == "min" else share <= bound
                entry["traced"][f"{metric}_share"] = share
                print(f"   load check: {metric} is {share:.1%} of traced time, want {'>=' if kind == 'min' else '<='} "
                      f"{bound:.0%}: {'met' if met else 'NOT MET (reported, not tuned)'}")
        summary["workloads"][workload] = entry

    if args.save:
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
