"""The scripts under ``scripts/`` run against the package in ``src``."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=600,
    )


def test_run_verification_writes_every_report(tmp_path):
    out = tmp_path / "reports"
    done = run_script("run_verification.py", "--trials", "2", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    assert len(list(out.glob("*.json"))) == 15


def test_wold_shift_demo_runs():
    done = run_script("wold_shift_demo.py")
    assert done.returncode == 0, done.stdout + done.stderr


def test_settable_values_prints_a_total():
    done = run_script("settable_values.py")
    assert done.returncode == 0, done.stdout + done.stderr
    label, count = done.stdout.strip().splitlines()[-1].split(": ")
    assert label == "total" and int(count) > 0
