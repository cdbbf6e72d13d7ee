"""The scripts under ``scripts/`` run against the package in ``src``."""

import json
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


def test_report_diff_allows_only_float_leaves_to_move(tmp_path):
    old = {"flag": True, "count": 3, "name": "T2.2", "none": None, "residuals": [1e-15, 0.5], "nested": {"x": 2.0}}
    moved = dict(old, residuals=[3e-15, 0.5], nested={"x": 2.0 + 1e-12})
    broken = [
        dict(old, flag=False),
        dict(old, count=4),
        dict(old, count=3.0),
        dict(old, name="T2.3"),
        dict(old, none=0.0),
        dict(old, residuals=[1e-15]),
        dict(old, residuals=[1e-15, float("nan")]),
        {k: v for k, v in old.items() if k != "nested"},
        {"count": 3, **{k: v for k, v in old.items() if k != "count"}},
    ]
    a = tmp_path / "old.json"
    a.write_text(json.dumps(old))
    (tmp_path / "b.json").write_text(json.dumps(moved))
    same = run_script("report_diff.py", str(a), str(a))
    assert same.returncode == 0 and same.stdout.strip().endswith("max |delta| over float leaves 0"), same.stdout
    done = run_script("report_diff.py", str(a), str(tmp_path / "b.json"))
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.strip().endswith("max |delta| over float leaves 1e-12"), done.stdout
    for index, doc in enumerate(broken):
        path = tmp_path / f"broken{index}.json"
        path.write_text(json.dumps(doc))
        done = run_script("report_diff.py", str(a), str(path))
        assert done.returncode == 1 and "structural:" in done.stdout, (index, done.stdout)


def test_report_diff_compares_directories_by_file_name(tmp_path):
    for side in ("old", "new"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "a.json").write_text(json.dumps({"r": 1.0 if side == "old" else 1.5}))
    done = run_script("report_diff.py", str(tmp_path / "old"), str(tmp_path / "new"))
    assert done.returncode == 0 and "documents 1," in done.stdout, done.stdout
    (tmp_path / "new" / "b.json").write_text("{}")
    done = run_script("report_diff.py", str(tmp_path / "old"), str(tmp_path / "new"))
    assert done.returncode == 1 and "files:" in done.stdout, done.stdout
