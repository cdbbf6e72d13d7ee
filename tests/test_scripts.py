"""The scripts under ``scripts/`` run against the package in ``src``."""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=600,
    )


def load_script(name):
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_verification_writes_every_report(tmp_path):
    out = tmp_path / "reports"
    done = run_script("run_verification.py", "--trials", "2", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    assert len(list(out.glob("*.json"))) == 15


def test_run_verification_falsifies_on_the_algebra_it_verifies(tmp_path):
    from pirep import harness
    from pirep.numerics import DEFAULT_TOL

    out = tmp_path / "reports"
    done = run_script("run_verification.py", "--trials", "2", "--algebra", "two_block", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    assert {json.loads(p.read_text())["config"]["algebra_shape"] for p in out.glob("*.json")} == {"two_block"}
    config = harness.TrialConfig(master_seed=42, trials=100, algebra_shape="two_block")
    found = harness.verify("T2.2", config, DEFAULT_TOL, falsify=True).equivalence_violations
    assert done.stdout.splitlines()[-1].split()[-1] == f"counterexamples={found}/100", done.stdout


def test_wold_shift_demo_runs():
    done = run_script("wold_shift_demo.py")
    assert done.returncode == 0, done.stdout + done.stderr


# A ratchet: a change that adds a settable value raises this ceiling and
# says why in CHANGES.md; a change that removes some may lower it.
SETTABLE_VALUES_CEILING = 72

# A ratchet: a change that adds code lines to src/pirep raises this
# ceiling and says why in CHANGES.md; a change that removes some may lower it.
CODE_LINES_CEILING = 3134


def test_settable_values_prints_a_total():
    done = run_script("settable_values.py")
    assert done.returncode == 0, done.stdout + done.stderr
    label, count = done.stdout.strip().splitlines()[-1].split(": ")
    assert label == "total" and 0 < int(count) <= SETTABLE_VALUES_CEILING, count


def test_code_lines_of_the_package_stay_under_the_ceiling():
    done = run_script("code_lines.py", str(ROOT / "src" / "pirep"))
    assert done.returncode == 0, done.stderr
    count, label = done.stdout.splitlines()[-1].split()
    assert label == "total" and 0 < int(count) <= CODE_LINES_CEILING, count


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
    assert "largest |delta|" not in same.stdout and "moved" not in same.stdout, same.stdout
    done = run_script("report_diff.py", str(a), str(tmp_path / "b.json"))
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.strip().splitlines() == [
        f"largest |delta| at b.json.nested.x: 2.0 -> {2.0 + 1e-12!r}",
        "float leaves moved: 2 of 3",
        "documents 1, structural differences 0, max |delta| over float leaves 1e-12",
    ], done.stdout
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


def test_cli_report_set_lists_249_invocations():
    script = load_script("cli_report_set.py")
    reps = script.rep_files()
    assert len(reps) == 38 and len(script.invocations(reps)) == 249


def test_cli_report_set_runs_one_rep_file(tmp_path):
    script = load_script("cli_report_set.py")
    name = "scalar_pair0_a"
    reps = script.rep_files()
    out = tmp_path / "set"
    script.write_reps(out, {name: reps[name]})
    runs = [(label, argv) for label, names, argv in script.invocations(reps) if names == [name]]
    assert [label for label, _ in runs] == [
        f"{command}_{name}" for command in ("classify", "powers3", "powers4", "root", "wold", "wold_skip")
    ]
    env = script.cli_env()
    for label, argv in runs:
        record = script.run(out, label, argv, env)
        assert json.loads((out / f"{label}.json").read_text()) == record
        assert record["argv"][record["argv"].index("--rep") + 1] == f"reps/{name}.json"
        assert record["exit"] == 0, record["stderr"]
        assert isinstance(record["stdout"], dict)
    same = run_script("report_diff.py", str(out), str(out))
    assert same.returncode == 0 and "documents 6, structural differences 0" in same.stdout, same.stdout


def test_bench_shift_powers_times_the_smallest_case():
    script = load_script("bench_shift_powers.py")
    smallest = script.CASES[0]
    assert smallest == {"kind": "power_report", "n": 2, "trunc": 120, "n_max": 4}
    record = script.measure(smallest, 1)
    assert record["case"] == smallest and len(record["wall_s"]) == len(record["build_s"]) == 1
    assert record["build_s"][0] > 0
    assert 0 < record["best_wall_s"] == record["wall_s"][0] and record["max_rss_mb"] > 0
    assert len(record["warm_s"]) == 1 and 0 < record["best_warm_s"] == record["warm_s"][0]
    assert record["result"]["applicable"] and record["result"]["pi_flags"] == [True] * 4
    wold = {"kind": "wold", "q": 60, "u": 20}
    assert wold in script.CASES
    primal = script.measure(wold, 1)["result"]["primal"]
    assert (primal["wandering_dim"], primal["generated_dim"], primal["residual_dim"]) == (1, 60, 20)
    case = {"kind": "shift_case", "n": 2, "trunc": 64, "zero_set": [1, 4]}
    assert case in script.CASES
    shift = script.measure(case, 1)
    assert shift["build_s"][0] >= 0 and shift["wall_s"][0] > 0 and shift["best_warm_s"] > 0
    assert shift["result"]["criterion"] == {"is_pi": True, "weights_unit_off_zero_set": True, "power_pi_up_to": 3}
    assert len(shift["result"]["kernels"]) == 6
    assert shift["result"]["kernels"]["i=1,k=1"] == [1, 4] and shift["result"]["kernels"]["i=1,k=2"] == [0, 1, 4]
    r_infty = {"kind": "generalized_range", "n": 1, "trunc": 216}
    assert r_infty in script.CASES
    assert script.measure(r_infty, 1)["result"] == {"dim": 0}
    bi_regular = {"kind": "bi_regular", "n": 3, "d": 4}
    assert bi_regular in script.CASES
    assert script.measure(bi_regular, 1)["result"] == {"bi_regular": True}
    gen_inverse = {"kind": "gen_inverse", "n": 3, "d": 4, "m_bound": 3}
    assert gen_inverse in script.CASES
    result = script.measure(gen_inverse, 1)["result"]
    assert result["is_gen_inverse"] and result["lemma_holds_up_to"] == 3
    env = script.environment()
    assert env["numpy"] == np.__version__ and env["blas_threads"] == 1 and env["machine"]["cpu_count"]
    usage = run_script("bench_shift_powers.py")
    assert usage.returncode == 2 and "Usage" in usage.stderr


def test_code_lines_counts_no_blank_comment_or_docstring_line(tmp_path):
    # code lines 3, 6, 8 and 9 (a two-line call), 11 and 14: the module,
    # class and function docstrings, the comments and the blank lines do
    # not count, and a string that is not a docstring does
    source = '''"""Module docstring,
over two lines."""
import math

# a comment
class Box:
    """One line."""
    size = max(1,
               2)  # a trailing comment is on a code line

    def area(self):
        """Two
        lines."""
        return "not a docstring"
'''
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "box.py").write_text(source)
    (tmp_path / "pkg" / "empty.py").write_text('"""Only a docstring."""\n\n# and a comment\n')
    done = run_script("code_lines.py", str(tmp_path / "pkg"))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [f"6 {tmp_path / 'pkg' / 'box.py'}", f"0 {tmp_path / 'pkg' / 'empty.py'}", "6 total"]


def test_reach_lists_the_unreached_statements_of_a_package_by_function(tmp_path, monkeypatch):
    # f(1) runs lines 7-10 of the fixture; the rest of f, unused() and the
    # nested inner() do not run.  Statements inside functions count (10 of
    # them: not the docstrings, the import or the class body), a statement
    # over two lines is reached by either, and a raise or a return None is
    # listed apart, as a refusal
    source = '''"""Module docstring."""
import math


def f(x):
    """Docstring."""
    if x > 0:
        y = (x +
             1)
        return y
    if x is None:
        raise ValueError("no x")
    return None


def unused():
    return math.pi


class Box:
    size = 2

    def g(self):
        def inner():
            return 1
        return 3
'''
    package = tmp_path / "fixture"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(source)
    monkeypatch.syspath_prepend(str(tmp_path))
    reach = load_script("reach.py")

    def run():
        from fixture import mod

        assert mod.f(1) == 2 and mod.Box().g() == 3

    code, refusals, count = reach.unreached(package, run)
    assert code == {"mod.f": [11], "mod.unused": [17], "mod.Box.g.inner": [25]}
    assert refusals == {"mod.f": [12, 13]}
    assert count == 10
    usage = run_script("reach.py", "--help")
    assert usage.returncode == 2 and "Usage" in usage.stderr
