import argparse
import ast
import json
import pathlib

import numpy as np
import pytest

import pirep
from pirep import harness as hz
from pirep import numerics as nx
from pirep import serialize as sz
from pirep.cli import build_parser, main
from pirep.correspondence import SCALARS, StarRepresentation, scalar_correspondence
from pirep.covrep import CovariantRep
from pirep.errors import ResourceLimit
from pirep.numerics import DEFAULT_TOL

from conftest import direct_sum


@pytest.fixture
def rep_file(tmp_path):
    parts = [hz.truncated_shift_fixture(DEFAULT_TOL, 3), hz.unitary_fixture(hz.rng_stream(100, 0), DEFAULT_TOL, 2)]
    rep = direct_sum(parts, DEFAULT_TOL)
    path = tmp_path / "rep.json"
    path.write_text(sz.dumps(sz.rep_to_json(rep)))
    return str(path)


@pytest.fixture
def pi_pair_files(tmp_path):
    tol = DEFAULT_TOL
    v1 = np.diag([1.0, 0.0]).astype(complex)
    v2 = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex) / np.sqrt(2.0)
    sigma = StarRepresentation(SCALARS, [2])
    paths = []
    for name, v in (("a.json", v1), ("b.json", v2)):
        rep = CovariantRep(scalar_correspondence(1), sigma, [v], tol)
        p = tmp_path / name
        p.write_text(sz.dumps(sz.rep_to_json(rep)))
        paths.append(str(p))
    return paths


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_classify_command(rep_file, capsys):
    code, out = run_cli(capsys, "classify", "--rep", rep_file)
    assert code == 0
    assert out["is_partial_isometric"] is True
    assert out["consistent"] is True


def test_product_command_all_conditions(pi_pair_files, capsys):
    code, out = run_cli(capsys, "product", "--reps", *pi_pair_files, "--all-conditions")
    assert code == 0
    assert out["product_classification"]["is_partial_isometric"] is False
    assert out["commuting_projections"]["projections_commute"] is False
    assert out["sufficient_intertwining"] is False
    assert out["pinv_factorization"]["is_pi"] is False


def test_product_command_reports_not_applicable_criteria(tmp_path, capsys):
    # a contraction that is no partial isometry as the first factor: every
    # criterion that presupposes partially isometric factors says so
    sigma = StarRepresentation(SCALARS, [2])
    paths = []
    for name, v in (("half.json", 0.5 * np.eye(2)), ("one.json", np.eye(2))):
        rep = CovariantRep(scalar_correspondence(1), sigma, [v.astype(complex)], DEFAULT_TOL)
        (tmp_path / name).write_text(sz.dumps(sz.rep_to_json(rep)))
        paths.append(str(tmp_path / name))
    code, out = run_cli(capsys, "product", "--reps", *paths, "--all-conditions")
    assert code == 0
    assert out["sufficient_intertwining"] == {"not_applicable": "factors are not both partially isometric"}
    assert out["commuting_projections"] == {"not_applicable": "first factor is not partially isometric"}
    assert out["chain_conditions"] == {"not_applicable": "factor 1 is not partially isometric"}
    assert out["defect_dilation"] == {"m_is_pi": False, "rep1_is_pi": False}


def test_powers_command(rep_file, capsys):
    code, out = run_cli(capsys, "powers", "--rep", rep_file, "--nmax", "3")
    assert code == 0
    assert out["applicable"] is True
    assert out["pi_flags"] == [True, True, True]
    assert out["generalized_range_dim"] == 2
    assert out["regular"] is False


def test_powers_refuses_nmax_below_one(rep_file, capsys):
    # like root --k 1: no power m >= 1 is asked for, so there is nothing to report
    for nmax in ("0", "-1"):
        assert main(["powers", "--rep", rep_file, "--nmax", nmax]) == 2, nmax
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "power_report needs n_max >= 1" in captured.err
    assert main(["root", "--rep", rep_file, "--k", "1"]) == 2


def test_running_out_of_memory_exits_2(rep_file, capsys, monkeypatch):
    # an allocation that fails is an input failure like any other: a
    # one-line error and exit 2, not a traceback
    from pirep import powers

    for exc in (MemoryError(), MemoryError("Unable to allocate 2.00 GiB")):

        def exhausted(*args, exc=exc):
            raise exc

        monkeypatch.setattr(powers, "power_report", exhausted)
        assert main(["powers", "--rep", rep_file, "--nmax", "16"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {str(exc) or 'out of memory'}\n"


def test_root_command(rep_file, capsys):
    code, out = run_cli(capsys, "root", "--rep", rep_file, "--k", "2")
    assert code == 0
    assert out["hypothesis_ok"] is True
    assert out["rep_is_pi"] is True


def test_wold_command_hypothesis_gate(rep_file, capsys):
    code, out = run_cli(capsys, "wold", "--rep", rep_file)
    assert code == 0
    assert "not_applicable" in out
    code, out = run_cli(capsys, "wold", "--rep", rep_file, "--skip-hypotheses")
    assert code == 0
    assert out["primal"]["generated_dim"] == 3
    assert out["primal"]["residual_dim"] == 2
    assert out["dual_gap"] <= 1e-8


def test_shift_command(tmp_path, capsys):
    wfile = tmp_path / "w.json"
    wfile.write_text('{"1,1": 0.5}')
    code, out = run_cli(
        capsys, "shift", "--n", "2", "--B", "0,3", "--M", "64", "--power", "2",
        "--weights", str(wfile),
    )
    assert code == 0
    assert out["criterion"]["is_pi"] is False  # the 0.5 weight sits off the zero set
    assert out["spec"]["zero_set"] == [0, 3]
    code, out = run_cli(capsys, "shift", "--n", "2", "--B", "0,3", "--M", "64", "--power", "2")
    assert code == 0
    assert out["criterion"]["is_pi"] is True
    assert out["kernel_formula"]["i=1,k=1"] == [0, 3]  # zero set inside the window
    for bad in ('{"1,x": 0.5}', '[0.5]', '{"1,1": '):
        wfile.write_text(bad)
        assert main(["shift", "--n", "2", "--M", "64", "--weights", str(wfile)]) == 2, bad


def test_shift_zero_set_must_be_nonnegative_integers(capsys):
    # a malformed --B is an input error (exit 2), not "violations found"
    # (exit 1); a negative entry would name a zero set no index can match
    for zero_set in ("a", "1,,x", "0,1.5", "-3", "2,-1"):
        assert main(["shift", "--n", "2", "--B", zero_set, "--M", "64"]) == 2, zero_set
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err, zero_set


def test_shift_refuses_power_below_one(capsys):
    # like powers --nmax 0: no power k >= 1 is asked for, so there is nothing to certify
    for power in ("0", "-1"):
        assert main(["shift", "--n", "2", "--B", "0,3", "--M", "64", "--power", power]) == 2, power
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "shift criterion needs power_cap >= 1" in captured.err


def test_infinite_tolerances_exit_2(rep_file, capsys):
    # an infinite cutoff would accept every identity and inclusion vacuously
    for flag in ("--tol-rank", "--tol-eq", "--tol-incl"):
        for argv in (["shift", "--n", "2"], ["classify", "--rep", rep_file]):
            assert main([*argv, flag, "inf"]) == 2, (argv, flag)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "must be finite and strictly positive" in captured.err


def test_verify_command_exit_codes(capsys):
    code, out = run_cli(capsys, "verify", "--theorem", "T2.2", "--trials", "25", "--seed", "7")
    assert code == 0
    assert out["equivalence_violations"] == 0
    code, out = run_cli(
        capsys, "verify", "--theorem", "T2.2", "--trials", "25", "--seed", "7", "--falsify"
    )
    assert code == 1  # the naive claim is false: violations found
    assert out["equivalence_violations"] >= 1


def test_verify_determinism_bytes(capsys):
    argv = ["verify", "--theorem", "R2.4", "--trials", "20", "--seed", "5", "--indent", "0"]
    code1 = main(list(argv))
    blob1 = capsys.readouterr().out
    code2 = main(list(argv))
    blob2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert blob1 == blob2


def test_verify_refuses_jobs_below_one(capsys):
    # --jobs is gone: argparse refuses it as unrecognized, with exit 2
    # (the library's jobs >= 1 check is test_harness.py's)
    for jobs in ("0", "-1", "1", "4"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--theorem", "T2.2", "--trials", "2", "--jobs", jobs])
        assert exc.value.code == 2, jobs
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: --jobs {jobs}" in captured.err


def test_verify_refuses_a_seed_outside_64_bits(capsys):
    # the trial streams key Philox with the seed in the high 64 bits; a
    # seed outside them is an input error (exit 2), not a violation (exit 1)
    for seed in ("-1", str(2**64)):
        assert main(["verify", "--theorem", "T2.2", "--trials", "2", "--seed", seed]) == 2, seed
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "master seed must be in [0, 2**64)" in captured.err
    assert main(["verify", "--theorem", "T2.2", "--trials", "1", "--seed", str(2**64 - 1)]) == 0


def test_tolerance_policy_is_stated_once():
    # every function takes its tolerance from the caller, so no parameter
    # of the package defaults to DEFAULT_TOL, and the CLI's defaults are its fields
    defaulted = []
    for path in sorted(pathlib.Path(pirep.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for default in node.args.defaults + [d for d in node.args.kw_defaults if d is not None]:
                    if "DEFAULT_TOL" in ast.unparse(default):
                        defaulted.append(f"{path.name}:{default.lineno}")
    assert defaulted == []
    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags = {a.dest: a.default for a in sub._actions if a.dest.startswith("tol_")}
                assert flags == {
                    "tol_rank": DEFAULT_TOL.rank_rel,
                    "tol_eq": DEFAULT_TOL.eq_rel,
                    "tol_incl": DEFAULT_TOL.incl_abs,
                }


# The reads of a Tolerance field outside numerics that make no verdict:
# the CLI's flag defaults and verify's input check, each read once.
TOLERANCE_READS_OUTSIDE_NUMERICS = [
    ("cli.py", "_common_flags", "DEFAULT_TOL.eq_rel"),
    ("cli.py", "_common_flags", "DEFAULT_TOL.incl_abs"),
    ("cli.py", "_common_flags", "DEFAULT_TOL.rank_rel"),
    ("harness.py", "verify", "tol.eq_rel"),
]


def _tolerance_reads(node, function=None):
    """(innermost function enclosing it or None, source) of every read of
    a Tolerance field under ``node``."""
    if isinstance(node, ast.Attribute) and node.attr in ("rank_rel", "eq_rel", "incl_abs"):
        yield function, ast.unparse(node)
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    for child in ast.iter_child_nodes(node):
        yield from _tolerance_reads(child, function)


def test_only_numerics_reads_the_tolerance_fields():
    # every thresholded verdict is decided by a numerics seam, so no other
    # module writes a cutoff formula of its own
    reads = [
        (path.name, *read)
        for path in sorted(pathlib.Path(pirep.__file__).parent.glob("*.py"))
        if path.name != "numerics.py"
        for read in _tolerance_reads(ast.parse(path.read_text()))
    ]
    assert sorted(reads) == TOLERANCE_READS_OUTSIDE_NUMERICS


def _lapack_calls(path) -> list:
    """Source of every call of an ``svd``, ``eigh`` or ``eigvalsh`` in a
    module, through any name or attribute."""
    return [
        ast.unparse(node.func)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "attr", None) or getattr(node.func, "id", None)) in ("svd", "eigh", "eigvalsh")
    ]


def test_only_numerics_calls_the_lapack_factorizations():
    # one seam, so a LinAlgError is always typed and a collector wrapping
    # numerics sees every factorization
    modules = sorted(pathlib.Path(pirep.__file__).parent.glob("*.py"))
    calls = {path.name: _lapack_calls(path) for path in modules}
    assert sorted(calls.pop("numerics.py")) == ["np.linalg.eigh", "np.linalg.eigvalsh", "np.linalg.svd"]
    assert {name: found for name, found in calls.items() if found} == {}


def _index_form_uses(path) -> list:
    """Every read of an index form's fields (its row indices ``_at``, its
    values ``_val`` and its kept array ``_dense``) and every construction
    of one (``_Monomial(...)``) in a module, through any name."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and node.attr in ("_at", "_val", "_dense"):
            found.append(node.attr)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "_Monomial":
            found.append("_Monomial()")
    return found


def test_only_numerics_builds_or_reads_the_index_form():
    # one module holds monomial arrays by index: every gather, product and
    # dense array of an index form is formed there, so no other module can
    # read an index with a value that a scan would not have found
    modules = sorted(pathlib.Path(pirep.__file__).parent.glob("*.py"))
    uses = {path.name: _index_form_uses(path) for path in modules}
    assert sorted(set(uses.pop("numerics.py"))) == ["_Monomial()", "_at", "_dense", "_val"]
    assert {name: found for name, found in uses.items() if found} == {}


def _basis_action_reads(path) -> list:
    """Every read of ``induced_action`` or of the memoized basis actions
    in a module, through any attribute."""
    return [
        node.attr
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in ("induced_action", "_basis_actions")
    ]


def test_only_correspondence_reads_the_induced_actions():
    # one seam decides intertwining and covariance, so every induced
    # action it compares is read in that one module
    modules = sorted(pathlib.Path(pirep.__file__).parent.glob("*.py"))
    reads = {path.name: _basis_action_reads(path) for path in modules}
    assert sorted(set(reads.pop("correspondence.py"))) == ["_basis_actions", "induced_action"]
    assert {name: found for name, found in reads.items() if found} == {}


def _classify_tree(tree, tmp_path, capsys) -> tuple:
    """(exit code, stdout, stderr) of ``classify`` on a rep tree, with
    numpy's overflow warnings silenced."""
    path = tmp_path / "big_gram.json"
    path.write_text(json.dumps(tree))
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["classify", "--rep", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _two_block_tree(index: int) -> dict:
    rep, _ = hz.random_pi_pair(hz.rng_stream(1615, index), hz.TrialConfig(algebra_shape="two_block"), DEFAULT_TOL)
    return sz.rep_to_json(rep)


def test_a_gram_near_the_float_maximum_is_accepted(tmp_path, capsys):
    # the Hermitian part is formed as G / 2 + G* / 2, which does not
    # overflow: the scalar Gram [[1e308]] is positive, and the lift, of norm
    # 1e-154, is the zero operator under the rank_rel rule
    tree = sz.rep_to_json(hz.truncated_shift_fixture(DEFAULT_TOL, 3))
    tree["correspondence"]["gram"][0][0]["data"][0] = [1e308, 0.0]
    code, out, err = _classify_tree(tree, tmp_path, capsys)
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["norm"] <= DEFAULT_TOL.rank_rel
    assert report["is_partial_isometric"] and report["consistent"]
    # one such entry in a two-block Gram, whose eigenvalues used to be NaN
    tree = _two_block_tree(100)
    assert tree["correspondence"]["gram"][0][0]["data"][0] == [1.0, 0.0]
    tree["correspondence"]["gram"][0][0]["data"][0] = [1e308, 0.0]
    code, out, err = _classify_tree(tree, tmp_path, capsys)
    assert code == 0 and err == "" and json.loads(out)["consistent"]


def test_a_gram_that_overflows_is_refused(tmp_path, capsys):
    # a Gram with every entry 1e308 has an eigenvalue past the float
    # maximum: it is inf, and the positivity floor -10 eq_rel inf decides
    # nothing; on the scalar C^2 and on the two-block algebra
    rep, _ = hz.random_pi_pair(hz.rng_stream(1615, 0), hz.TrialConfig(module_dim_range=(2, 2)), DEFAULT_TOL)
    for tree in (sz.rep_to_json(rep), _two_block_tree(101)):
        for row in tree["correspondence"]["gram"]:
            for element in row:
                element["data"] = [[1e308, 0.0]] * len(element["data"])
        code, out, err = _classify_tree(tree, tmp_path, capsys)
        assert code == 2 and out == ""
        assert "gram block matrix is not positive semidefinite: eigenvalues 0.000e+00 to inf" in err


def test_missing_file_is_usage_error(capsys):
    code = main(["classify", "--rep", "/nonexistent/rep.json"])
    assert code == 2


def test_malformed_matrix_entry_is_usage_error(rep_file, capsys):
    obj = json.loads(open(rep_file).read())
    obj["V"][0]["data"][0] = [1.0]  # an entry must be a [re, im] pair
    with open(rep_file, "w") as fh:
        json.dump(obj, fh)
    assert main(["classify", "--rep", rep_file]) == 2
    assert "malformed matrix JSON" in capsys.readouterr().err


def test_declared_sizes_must_match_the_data(rep_file, capsys):
    obj = json.loads(open(rep_file).read())
    corr = obj["correspondence"]
    for bad in ({**corr, "module_dim": 10**7, "gram": []}, {**corr, "block_sizes": [3000]}):
        with open(rep_file, "w") as fh:
            json.dump({**obj, "correspondence": bad}, fh)
        assert main(["classify", "--rep", rep_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "declared sizes need" in captured.err


def test_shift_allocation_checked_from_shapes(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("shift matrices allocated past the budget")

    monkeypatch.setattr(np, "zeros", refuse)
    # n = 1, M + 1 = 2^18 is a 1 TiB matrix
    for n, m in ((2, 10**8), (1, 2**18 - 1)):
        assert main(["shift", "--n", str(n), "--M", str(m)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        need = 16 * n * ((m + 1) ** 2 + 3 * n)
        assert f"the shift needs {need} bytes, over the budget" in captured.err


def test_invalid_json_rep_is_usage_error(tmp_path, capsys):
    path = tmp_path / "rep.json"
    path.write_text('{"correspondence": ')
    assert main(["classify", "--rep", str(path)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


REP_COMMANDS = ("classify", "product", "powers", "root", "wold")


def rep_argv(command, path):
    return [command, "--reps", path, path] if command == "product" else [command, "--rep", path]


def test_tensor_cap_covers_the_first_tensor_space(rep_file, capsys, monkeypatch):
    # the byte budget that replaced the tensor cap: sigma(a) on the 5-dim
    # direct sum takes 400 bytes, refused by every subcommand that loads it
    monkeypatch.setattr(nx, "DENSE_BYTES", 16 * 5**2 - 1)
    for command in REP_COMMANDS:
        assert main(rep_argv(command, rep_file)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "H of dimension 5 needs 400 bytes, over the budget 399" in captured.err
    monkeypatch.setattr(nx, "DENSE_BYTES", 16 * 5**2)
    code, out = run_cli(capsys, "classify", "--rep", rep_file)
    assert code == 0 and out["is_partial_isometric"] is True


def test_tensor_cap_only_where_a_representation_is_loaded(rep_file, capsys):
    # --tensor-cap is gone: every subcommand refuses it as unrecognized
    for argv in (
        *(rep_argv(command, rep_file) for command in REP_COMMANDS),
        ["shift", "--n", "2", "--B", "0,3", "--M", "20", "--power", "3"],
        ["verify", "--theorem", "T3.2", "--trials", "5"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--tensor-cap", "1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --tensor-cap 1" in captured.err


def test_oversized_multiplicity_exits_2_before_allocating(tmp_path, capsys):
    # a file of under 300 bytes declaring dim H = 100000 on a zero module:
    # sigma(a) alone would take 160 GB, so the reader refuses it from the
    # declared size
    empty = {"rows": 0, "cols": 0, "data": []}
    tree = {
        "correspondence": {
            "block_sizes": [1, 1],
            "module_dim": 0,
            "gram": [],
            "left_action": [empty, empty],
            "right_action": [empty, empty],
        },
        "multiplicities": [100000, 0],
        "V": [],
    }
    with pytest.raises(ResourceLimit, match="H of dimension 100000 needs 160000000000 bytes"):
        sz.rep_from_json(tree, DEFAULT_TOL)
    path = tmp_path / "oversized.json"
    path.write_text(json.dumps(tree))
    for command in REP_COMMANDS:
        assert main(rep_argv(command, str(path))) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "needs 160000000000 bytes" in captured.err


def test_indent_is_range_checked(rep_file, capsys):
    for indent in ("0", "8"):
        assert main(["classify", "--rep", rep_file, "--indent", indent]) == 0
        assert json.loads(capsys.readouterr().out)["consistent"] is True
    for indent in ("-1", "9"):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--rep", rep_file, "--indent", indent])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--indent" in captured.err
