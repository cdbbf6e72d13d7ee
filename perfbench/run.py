#!/usr/bin/env python3
"""pirep benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload claims_scalar --seed 42 --seconds 30 --trace 0

Run from the repository root (or anywhere: the package is imported from
``src/`` next to this directory).  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` makes the traced run and prints the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Set-up and
op times are scaled to the reference machine's speed by probes timed
through the run (speed.py); the unscaled figures are printed on the
``unscaled`` line.  Every run
also writes its result, with the environment record, under
``.perfbench_out/`` at the repository root; a traced run writes its spans
there too.  See README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import re
import resource
import statistics
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy loads.  With OpenBLAS's default of one
# thread per core, a second thread spins on the tiny matrices of the claim
# battery (1.6-1.7 CPU seconds per wall second on two cores) and the
# throughput of one seed varied by up to 20% between runs; single-threaded
# it varies by about 5% at the same median.  The record lists the setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from speed import SpeedProbe  # noqa: E402
from tracer import COUNTED_ONLY, LAYERS, SPAN_FIELDS, Tracer  # noqa: E402
from workloads import WORKLOADS, Ledger  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DEFAULT_SEED = 42
MIN_PASSES = 2  # a run on a slow host stops after this many passes ...
STOP_AFTER = 1.25  # ... if the next pass would end past STOP_AFTER * --seconds
SETUPS = 15  # timed set-ups per run, shared out before the passes

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p99": "ms",
    "peak_rss_mb": "MB",
}

NAMED_CALLS = {
    "numerics.opnorm.calls": "numerics.opnorm",
    "numerics.partial_isometry_conditions.calls": "numerics.partial_isometry_conditions",
    "correspondence.interior_tensor.calls": "correspondence.interior_tensor",
    "correspondence.tensor_product.calls": "correspondence.tensor_product",
    "correspondence.amplify.calls": "correspondence.amplify",
    "correspondence.sigma_apply.calls": "correspondence.StarRepresentation.apply",
    "covrep.tilde_power.calls": "covrep.CovariantRep.tilde_power",
    "covrep.classify.calls": "covrep.CovariantRep.classify",
    "covrep.is_partial_isometric.calls": "covrep.CovariantRep.is_partial_isometric",
    "powers.kernel_chain_condition.calls": "powers.kernel_chain_condition",
    "serialize.rep_to_json.calls": "serialize.rep_to_json",
}
THEOREM_IDS = (
    "C3.3", "C3.6", "L3.5", "P3.1", "P3.8", "R2.4", "R3.10", "R3.11",
    "T2.2", "T2.3", "T2.5", "T3.2", "T3.9", "W3.12", "W3.13",
)


def per_layer_units() -> dict:
    """Name -> unit of every per-layer metric, in report order."""
    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.self_s": "s", f"{layer}.raised": "count"})
    units.update(
        {
            "numerics.svd_calls": "count",
            "numerics.svd_s": "s",
            "numerics.eigh_calls": "count",
            "numerics.svd_gflop_computed": "GFLOP",
            "numerics.max_dense_mb": "MB",
            "numerics.as_matrix.calls": "count",
        }
    )
    units.update({name: "count" for name in NAMED_CALLS})
    units.update(
        {
            "correspondence.interior_tensor.repeat_ratio": "ratio",
            "correspondence.tensor_product.repeat_ratio": "ratio",
            "covrep.tilde_power.hit_ratio": "ratio",
            "harness.skip_ratio": "ratio",
            "harness.falsify_s": "s",
        }
    )
    units.update({f"harness.verify_s.{tid}": "s" for tid in THEOREM_IDS})
    units.update({"trace.wall_s": "s", "trace.ops_per_s": "1/s", "trace.spans": "count"})
    return units


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, size: int) -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = deps.get("blas", {})
    except (TypeError, AttributeError):  # numpy without show_config(mode=...)
        pass
    config = blas.get("openblas configuration", "")
    max_threads = re.search(r"MAX_THREADS=(\d+)", config)
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "max_threads": int(max_threads.group(1)) if max_threads else None,
        },
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "machine": platform.machine(),
        "git_commit": git_commit(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": size,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# set-up and metrics
# ---------------------------------------------------------------------------


def fresh_import():
    """Import pirep from this checkout's src/, dropping any earlier import
    so each set-up pays the package import again (numpy stays loaded)."""
    for name in [n for n in sys.modules if n == "pirep" or n.startswith("pirep.")]:
        del sys.modules[name]
    return importlib.import_module("pirep")


def percentile_ms(latencies, q: float) -> float:
    return float(np.percentile(np.asarray(latencies), q)) * 1000.0


def digest_of(pirep, reports) -> str:
    h = hashlib.sha256()
    for report in reports:
        h.update(pirep.serialize.dumps(report).encode())
        h.update(b"\n")
    return h.hexdigest()


def layer_metrics(summary: dict, ledger: Ledger, wall: float) -> dict:
    per = summary["per_name"]
    counts = summary["counts"]
    out = {}
    for layer in LAYERS:
        names = [n for n in per if n.split(".", 1)[0] == layer]
        helpers = [n for n in COUNTED_ONLY if n.split(".", 1)[0] == layer]
        out[f"{layer}.calls"] = sum(per[n]["calls"] for n in names) + sum(counts.get(n, 0) for n in helpers)
        out[f"{layer}.self_s"] = sum(per[n]["self_s"] for n in names)
        out[f"{layer}.raised"] = sum(per[n]["raised"] for n in names)
    out["numerics.svd_calls"] = counts.get("svd.calls", 0)
    out["numerics.svd_s"] = counts.get("svd.s", 0.0)
    out["numerics.eigh_calls"] = counts.get("eigh.calls", 0)
    out["numerics.svd_gflop_computed"] = counts.get("svd.flops", 0.0) / 1e9
    out["numerics.max_dense_mb"] = counts.get("dense.bytes", 0) / 2**20
    out["numerics.as_matrix.calls"] = counts.get("numerics.as_matrix", 0)

    def calls(name):
        return per.get(name, {}).get("calls", 0)

    for metric, name in NAMED_CALLS.items():
        out[metric] = calls(name)
    for name in ("correspondence.interior_tensor", "correspondence.tensor_product"):
        out[f"{name}.repeat_ratio"] = counts.get(name + ".repeats", 0) / max(1, calls(name))
    out["covrep.tilde_power.hit_ratio"] = counts.get("covrep.tilde_power.hits", 0) / max(
        1, calls("covrep.CovariantRep.tilde_power")
    )
    out["harness.skip_ratio"] = ledger.skips / max(1, ledger.trials)
    out["harness.falsify_s"] = ledger.falsify_s
    for tid in THEOREM_IDS:
        out[f"harness.verify_s.{tid}"] = ledger.verify_s.get(tid, 0.0)
    out["trace.wall_s"] = wall
    out["trace.ops_per_s"] = ledger.attempted / wall
    out["trace.spans"] = summary["spans"]
    return out


def write_spans(tracer: Tracer, path: Path):
    np.save(path.parent / (path.name + ".npy"), tracer.spans())
    (path.parent / (path.name + ".names.json")).write_text(json.dumps({"fields": SPAN_FIELDS, "names": tracer.names}))


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0, help="sets the work size (see README.md)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def set_up(workload, seed: int, size: int, setups: list, probe):
    """Fresh set-ups, each timed as (start, end) and each after a speed
    probe; the last one is used.  Set-up is the same kind of work on every
    workload (mostly the Python import of pirep), and its time is always
    scaled."""
    for _ in range(SETUPS // workload.passes):
        if probe is not None:
            probe.sample()
        gc.collect()
        t0 = time.perf_counter()
        pirep = fresh_import()
        plan = workload.inputs(pirep, seed, size)
        setups.append((t0, time.perf_counter()))
    return pirep, plan


def run_pass(workload, pirep, plan, tracer, probe):
    """One pass over the plan: (ledger, wall seconds, report digest).  The
    wall time leaves out the time spent probing."""
    ledger = Ledger()
    if tracer is not None:
        tracer.install()
    probing = probe.spent if probe is not None else 0.0
    t0 = time.perf_counter()
    try:
        workload.run(pirep, plan, ledger, tracer, probe)
        if probe is not None:
            probe.sample()  # so the pass's last ops have a probe after them
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    if probe is not None:
        wall -= probe.spent - probing
    digest = digest_of(pirep, workload.check(pirep, ledger))
    ledger.results.clear()
    return ledger, wall, digest


def scaled(probe, spans):
    """Each (start, end) interval's length at the reference machine's speed."""
    return np.array([(end - start) * probe.factor(start, end) for start, end in spans])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pirep" / "__init__.py").is_file():
        print(f"perfbench: no pirep package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    size = workload.size_for(args.seconds / workload.passes)

    # Identical passes over the same inputs, each after its own set-ups, so
    # that set-up samples and op repetitions are spread over the whole run.
    # The traced run makes one pass, so its counts are those of one pass,
    # and it takes no speed probes (their SVDs would be counted).  Set-up
    # is scaled by the small probe on every workload (it is mostly the
    # import of pirep); ops by the workload's own probe.
    setup_probe = None if args.trace else SpeedProbe()
    op_probe = None if args.trace else workload.probe()
    setups, ledgers, walls, digests = [], [], [], []
    start = time.perf_counter()
    while len(ledgers) < (1 if args.trace else workload.passes):
        elapsed = time.perf_counter() - start
        if len(ledgers) >= MIN_PASSES and elapsed + walls[-1] > STOP_AFTER * args.seconds:
            break
        pirep, plan = set_up(workload, args.seed, size, setups, setup_probe)
        if Path(pirep.__file__).resolve().parent != (SRC / "pirep").resolve():
            print(f"perfbench: imported pirep from {pirep.__file__}, not from {SRC}", file=sys.stderr)
            return 2
        tracer = Tracer(pirep) if args.trace else None
        ledger, wall, digest = run_pass(workload, pirep, plan, tracer, op_probe)
        ledgers.append(ledger)
        walls.append(wall)
        digests.append(digest)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = [message for ledger in ledgers for message in ledger.failures]
    if len(set(digests)) != 1:
        failures.append(f"passes printed different report digests {sorted(set(digests))}")
    attempted = sum(ledger.attempted for ledger in ledgers)
    raw = np.array([ledger.latencies for ledger in ledgers])
    setup_times = [end - start for start, end in setups]
    n_ops = raw.shape[1]

    env = environment(args, size)
    if args.trace:
        values = layer_metrics(tracer.summary(), ledgers[0], walls[0])
        units = per_layer_units()
    else:
        # Times are scaled to the reference machine's speed (speed.py); an
        # op's latency is then the fastest of its repetitions, one per pass.
        per_pass = [scaled(op_probe, zip(ledger.starts, np.add(ledger.starts, ledger.latencies)))
                    for ledger in ledgers]
        latencies = np.min(per_pass, axis=0)
        values = {
            "setup_s": statistics.median(scaled(setup_probe, setups)),
            "ops_per_s": n_ops / float(latencies.sum()),
            "op_ms_p50": percentile_ms(latencies, 50),
            "op_ms_p99": percentile_ms(latencies, 99),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    # The same metrics from the unscaled times, for the record.
    fastest = raw.min(axis=0)
    unscaled = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": n_ops / float(fastest.sum()),
        "op_ms_p50": percentile_ms(fastest, 50),
        "op_ms_p99": percentile_ms(fastest, 99),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-seconds{args.seconds:g}-trace{args.trace}"
    if tracer is not None:
        write_spans(tracer, stem)
    record = {
        "env": env,
        "digest": digests[0],
        "ops": n_ops,
        "passes": len(ledgers),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "pass_wall_s": walls,
        "setup_times_s": setup_times,
        "unscaled": unscaled,
        "speed_probes_s": {"setup": setup_probe.values, "ops": op_probe.values} if op_probe is not None else {},
        "metrics": metrics,
    }
    (stem.parent / (stem.name + ".json")).write_text(json.dumps(record, indent=1, sort_keys=True))

    print(f"perfbench {args.workload} seed={args.seed} size={size} trace={args.trace} passes={len(ledgers)}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"digest {digests[0]}")
    print(f"samples ops={n_ops} beyond_p99={int(n_ops * 0.01)} passes={len(ledgers)} setups={len(setup_times)}")
    print("pass_ops_per_s " + " ".join(f"{n_ops / wall:.6g}" for wall in walls))
    print("unscaled " + " ".join(f"{name}={value:.6g}" for name, value in unscaled.items()))
    for role, probe in (("setup", setup_probe), ("ops", op_probe)):
        if probe is not None:
            speeds = probe.relative_speeds()
            print(f"speed {role} {type(probe).__name__} probes={len(speeds)} probe_s={probe.spent:.3g} "
                  f"relative_speed median={statistics.median(speeds):.4g} min={min(speeds):.4g} max={max(speeds):.4g}")
    print(f"fail_ratio {len(failures)}/{attempted} = {len(failures) / max(1, attempted)}")
    for message in failures[:20]:
        print(f"failure {message}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
