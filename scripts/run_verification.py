#!/usr/bin/env python3
"""Run the full registered-claim battery and print a one-line summary per
claim; optionally dump the JSON reports.

Usage:
    python scripts/run_verification.py [--trials 200] [--seed 42]
                                       [--algebra mixed] [--out reports/]
"""

import argparse
import pathlib
import sys
import time

from pirep import harness
from pirep.numerics import DEFAULT_TOL
from pirep.serialize import dumps


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--algebra", default="mixed", choices=["scalar", "two_block", "mixed"])
    parser.add_argument("--out", type=str, default=None, help="directory for JSON reports")
    args = parser.parse_args()

    out_dir = None
    if args.out:
        out_dir = pathlib.Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)

    failures = 0
    for theorem_id in harness.theorem_ids():
        config = harness.TrialConfig(
            master_seed=args.seed, trials=args.trials, algebra_shape=args.algebra
        )
        start = time.perf_counter()
        report = harness.verify(theorem_id, config, DEFAULT_TOL)
        elapsed = time.perf_counter() - start
        status = "ok" if report.equivalence_violations == 0 else "VIOLATIONS"
        print(
            f"{theorem_id:>6}  {status:>10}  trials={report.trials_run}"
            f"  skips={report.hypothesis_skips}"
            f"  max_residual={report.max_residual:.3e}  ({elapsed:.2f}s)"
        )
        if report.equivalence_violations:
            failures += 1
        if out_dir is not None:
            (out_dir / f"{theorem_id.replace('.', '_')}.json").write_text(
                dumps(report.to_dict(), indent=2)
            )

    # sanity: the engine must refute a deliberately false claim
    falsified = harness.verify(
        "T2.2",
        harness.TrialConfig(master_seed=args.seed, trials=100),
        DEFAULT_TOL,
        falsify=True,
    )
    found = falsified.equivalence_violations
    print(f"falsify  {'ok' if found else 'MISSED':>10}  counterexamples={found}/100")
    if not found:
        failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
