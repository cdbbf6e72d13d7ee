#!/usr/bin/env python3
"""Run the production set under ``sys.settrace`` and print the statements
of ``src/pirep`` that it leaves unreached.

Usage:
    python scripts/reach.py

The production set runs in this one process, against the package in this
checkout's ``src``:

- the CLI report set (``cli_report_set.py``): its 38 rep files and its
  249 invocations, each through ``pirep.cli.main`` in a scratch directory;
- 30 trials of every registered claim at seed 42, then the falsify run
  of T2.2 (30 trials) and the replay of its first counterexample, on each
  of the algebras ``scalar``, ``two_block`` and ``mixed``;
- every case of ``bench_shift_powers.py``, called once;
- one round of the benchmark's ``large_window`` workload at seeds 42 and 7,
  run and checked as ``perfbench`` does.

A statement counts when it lies inside a function (a docstring does not),
and it is reached when any line it spans runs.  The unreached ones are
printed by function, as ``module.qualname: line, line, ...``, first the
code and then, apart, the refusals: a ``raise``, or a ``return None``
that answers "not decided here".  The last line gives the counts.
"""

import ast
import contextlib
import io
import os
import pathlib
import sys
import tempfile
import threading

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pirep"


def is_refusal(node: ast.stmt) -> bool:
    """A ``raise``, or a ``return None`` written out."""
    if isinstance(node, ast.Raise):
        return True
    return isinstance(node, ast.Return) and isinstance(node.value, ast.Constant) and node.value.value is None


def function_statements(source: str) -> list:
    """(qualname, first line, last line, refusal) for each statement inside
    a function of a module's source, in nested blocks and nested
    functions too; docstrings are left out."""
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstrings.add(id(first))
    out = []

    def visit(node: ast.AST, qualname: str, inside: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt) and inside and id(child) not in docstrings:
                out.append((qualname, child.lineno, child.end_lineno, is_refusal(child)))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{qualname}.{child.name}" if qualname else child.name
                visit(child, name, not isinstance(child, ast.ClassDef))
            else:
                visit(child, qualname, inside)

    visit(tree, "", False)
    return out


@contextlib.contextmanager
def traced(package: pathlib.Path, lines: set):
    """Record into ``lines`` each (file, line) that runs in a module under
    ``package``, in this thread and in threads started meanwhile."""
    prefix = str(package.resolve()) + os.sep

    def local(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def hook(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    previous = sys.gettrace(), threading.gettrace()
    sys.settrace(hook)
    threading.settrace(hook)
    try:
        yield lines
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])


def unreached(package: pathlib.Path, run) -> tuple:
    """Call ``run()`` traced, then return (code, refusals, count): the first
    lines of the unreached statements inside functions of the modules under
    ``package``, each a dict from ``module.qualname`` to its lines in
    order, and the number of statements inside functions."""
    lines = set()
    with traced(package, lines):
        run()
    code, refusals, count = {}, {}, 0
    for path in sorted(package.resolve().rglob("*.py")):
        module = ".".join(path.relative_to(package.resolve()).with_suffix("").parts)
        ran = {line for file, line in lines if file == str(path)}
        for qualname, first, last, refusal in function_statements(path.read_text(encoding="utf-8")):
            count += 1
            if ran.isdisjoint(range(first, last + 1)):
                (refusals if refusal else code).setdefault(f"{module}.{qualname}", []).append(first)
    return code, refusals, count


def _load(path: pathlib.Path, name: str):
    import importlib.util

    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def production_set() -> None:
    """Run the production set described in the module docstring."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import pirep
    from pirep import cli, harness
    from pirep.numerics import DEFAULT_TOL

    report_set = _load(ROOT / "scripts" / "cli_report_set.py", "cli_report_set")
    with tempfile.TemporaryDirectory() as out:
        reps = report_set.rep_files()
        report_set.write_reps(pathlib.Path(out), reps)
        here = os.getcwd()
        os.chdir(out)
        try:
            for _, _, argv in report_set.invocations(reps):
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    cli.main(argv)
        finally:
            os.chdir(here)
    for algebra in ("scalar", "two_block", "mixed"):
        config = harness.TrialConfig(master_seed=42, trials=30, algebra_shape=algebra)
        for claim in harness.theorem_ids():
            harness.verify(claim, config, DEFAULT_TOL)
        falsified = harness.verify("T2.2", config, DEFAULT_TOL, falsify=True)
        if falsified.counterexamples:
            harness.replay_counterexample(falsified.counterexamples[0], DEFAULT_TOL)
    bench = _load(ROOT / "scripts" / "bench_shift_powers.py", "bench_shift_powers")
    for case in bench.CASES:
        bench.call(case, bench.build(case))
    import workloads

    window = workloads.WORKLOADS["large_window"]
    for seed in (42, 7):
        ledger = workloads.Ledger()
        window.run(pirep, window.inputs(pirep, seed, 1), ledger, None)
        window.check(pirep, ledger)


def main(argv) -> int:
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    code, refusals, count = unreached(PACKAGE, production_set)
    for title, found in (("code", code), ("refusals", refusals)):
        print(f"{title}:")
        for function, lines in found.items():
            print(f"  {function}: {', '.join(map(str, lines))}")
    missed = [sum(map(len, found.values())) for found in (code, refusals)]
    print(f"unreached: code {missed[0]}, refusals {missed[1]}, of {count} statements inside functions")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
