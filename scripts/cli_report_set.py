#!/usr/bin/env python3
"""Write the CLI report set: 38 representation files drawn from the
harness generators at fixed seeds, and the output of 249 ``pirep``
invocations on them.

Usage:
    python scripts/cli_report_set.py OUT_DIR

The rep files go to OUT_DIR/reps/.  Each invocation runs the CLI in its
own process (``python -m pirep.cli``, one BLAS thread, working directory
OUT_DIR) and is saved as OUT_DIR/NNN_<label>.json, holding its argv, exit
code, stdout (parsed when it is JSON) and stderr, so that

    python scripts/report_diff.py OLD_DIR NEW_DIR

compares two sets: exit codes, messages and report structure must be
identical, and only float leaves may move.  The package run is the one
``import pirep`` finds, and the CLI processes import that same package.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

import numpy as np

import pirep
from pirep import harness as hz
from pirep import serialize, shifts
from pirep.correspondence import SCALARS, FdCorrespondence, StarRepresentation
from pirep.numerics import DEFAULT_TOL

SEED = 1615
REP_COMMANDS = (
    ("classify", ["classify"]),
    ("powers3", ["powers", "--nmax", "3"]),
    ("powers4", ["powers", "--nmax", "4"]),
    ("root", ["root"]),
    ("wold", ["wold"]),
    ("wold_skip", ["wold", "--skip-hypotheses"]),
)
SHIFT_RUNS = (
    ("shift_n2_zero_set", ["shift", "--n", "2", "--B", "0,3", "--M", "64", "--power", "3"]),
    ("shift_n3", ["shift", "--n", "3", "--M", "216", "--power", "3"]),
    ("shift_n1", ["shift", "--n", "1", "--B", "2,5", "--M", "30", "--power", "4"]),
)
VERIFY_CLAIMS = ("W3.12", "W3.13", "R3.10", "R3.11", "T3.2", "C3.6")


def _complex_gram_rep(rng, n: int, d: int, pi: bool):
    """A scalar rep over C^n with a generic complex Gram g g* + I/2."""
    g = hz.crandn(rng, n, n)
    gram = (g @ g.conj().T + 0.5 * np.eye(n)).reshape(n, n, 1, 1)
    action = np.eye(n, dtype=np.complex128).reshape(1, n, n)
    corr = FdCorrespondence(SCALARS, gram, action, action.copy())
    draw = hz.random_pi_rep if pi else hz.random_contractive_rep
    return draw(corr, StarRepresentation(SCALARS, [d]), rng, DEFAULT_TOL)


def _surjective_two_block(index: int):
    """A two-block rep whose lift is a coisometry, from the first draw
    that admits one."""
    config = hz.TrialConfig(algebra_shape="two_block")
    for attempt in range(100):
        stream = 1000 * index + attempt
        corr, sigma = hz.draw_setting(hz.rng_stream(SEED + 1, stream), config)
        rep = hz.coisometric_covariant_rep(corr, sigma, hz.rng_stream(SEED + 2, stream), DEFAULT_TOL)
        if rep is not None:
            return rep
    raise RuntimeError("no coisometric two-block draw")


def rep_files() -> dict:
    """name -> representation, in run order."""
    tol = DEFAULT_TOL
    reps = {}
    for shape in ("scalar", "two_block"):
        config = hz.TrialConfig(algebra_shape=shape)
        for i in range(6):
            a, b = hz.random_pi_pair(hz.rng_stream(SEED, i + (0 if shape == "scalar" else 100)), config, tol)
            reps[f"{shape}_pair{i}_a"], reps[f"{shape}_pair{i}_b"] = a, b
    reps["shift_n3_trunc216"] = shifts.build_shift(shifts.WeightedShiftSpec(n=3, trunc=216), tol)
    reps["shift_n2_zero_set"] = shifts.build_shift(
        shifts.WeightedShiftSpec(n=2, zero_set=frozenset({0, 3}), trunc=64), tol
    )
    for i, size in enumerate(((None, None), (None, None), (60, 20))):
        reps[f"shift_plus_unitary{i}"] = hz.shift_plus_unitary_fixture(hz.rng_stream(SEED + 3, i), tol, *size)
    for i in range(4):
        reps[f"regular{i}"] = hz.regular_fixture(hz.rng_stream(SEED + 4, i), tol, want_pi=i % 2 == 0)
    for i in range(3):
        reps[f"surjective_two_block{i}"] = _surjective_two_block(i)
    for i, (n, d) in enumerate(((2, 3), (3, 2))):
        reps[f"complex_gram{i}"] = _complex_gram_rep(hz.rng_stream(SEED + 5, i), n, d, pi=i == 0)
    return reps


def invocations(names) -> list:
    """(label, rep file names read, argv) for every run."""
    runs = []
    for name in names:
        for label, argv in REP_COMMANDS:
            runs.append((f"{label}_{name}", [name], argv[:1] + ["--rep", f"reps/{name}.json"] + argv[1:]))
    for shape in ("scalar", "two_block"):
        for i in range(6):
            pair = [f"{shape}_pair{i}_a", f"{shape}_pair{i}_b"]
            argv = ["product", "--reps", *(f"reps/{p}.json" for p in pair), "--all-conditions"]
            runs.append((f"product_{shape}_pair{i}", pair, argv))
    runs += [(label, [], argv) for label, argv in SHIFT_RUNS]
    for claim in VERIFY_CLAIMS:
        argv = ["verify", "--theorem", claim, "--trials", "20", "--seed", "42", "--algebra", "mixed"]
        runs.append((f"verify_{claim}", [], argv))
    return runs


def write_reps(out: pathlib.Path, reps: dict) -> None:
    (out / "reps").mkdir(parents=True, exist_ok=True)
    for name, rep in reps.items():
        (out / "reps" / f"{name}.json").write_text(serialize.dumps(serialize.rep_to_json(rep)))


def cli_env() -> dict:
    """One BLAS thread, and the package that ``import pirep`` found."""
    package_root = str(pathlib.Path(pirep.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=package_root, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def run(out: pathlib.Path, stem: str, argv: list, env: dict) -> dict:
    """Run one CLI process in OUT_DIR and save its argv, exit code, stdout
    and stderr as OUT_DIR/<stem>.json."""
    done = subprocess.run(
        [sys.executable, "-m", "pirep.cli", *argv], cwd=out, env=env, capture_output=True, text=True, timeout=900
    )
    try:
        stdout = json.loads(done.stdout)
    except json.JSONDecodeError:
        stdout = done.stdout
    record = {"argv": argv, "exit": done.returncode, "stdout": stdout, "stderr": done.stderr}
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("out")
    out = pathlib.Path(parser.parse_args(argv).out)
    reps = rep_files()
    write_reps(out, reps)
    runs = invocations(reps)
    env = cli_env()
    for index, (label, _, cmd) in enumerate(runs):
        run(out, f"{index:03d}_{label}", cmd, env)
    print(f"rep files {len(reps)}, invocations {len(runs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
