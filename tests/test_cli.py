import json

import numpy as np
import pytest

from pirep import harness as hz
from pirep import numerics as nx
from pirep import serialize as sz
from pirep.cli import main
from pirep.correspondence import SCALARS, StarRepresentation, scalar_correspondence
from pirep.covrep import CovariantRep
from pirep.errors import ResourceLimit
from pirep.numerics import DEFAULT_TOL


@pytest.fixture
def rep_file(tmp_path):
    rng = hz.rng_stream(100, 0)
    rep = hz.structured_fixture("direct_sum", 100, DEFAULT_TOL,
                                parts=[("truncated_shift", {"d": 3}), ("unitary", {"d": 2})])
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


def test_powers_command(rep_file, capsys):
    code, out = run_cli(capsys, "powers", "--rep", rep_file, "--nmax", "3")
    assert code == 0
    assert out["applicable"] is True
    assert out["pi_flags"] == [True, True, True]
    assert out["generalized_range_dim"] == 2
    assert out["regular"] is False


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
    code2 = main(list(argv) + ["--jobs", "4"])
    blob2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert blob1 == blob2


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
