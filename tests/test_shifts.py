import math

import numpy as np
import pytest

from pirep import numerics as nx
from pirep import shifts as sh
from pirep.errors import DimensionMismatch, ResourceLimit, WindowError
from pirep.numerics import Subspace
from pirep.shifts import WeightedShiftSpec

from conftest import (
    chain_inclusion_check,
    dense_amplified,
    dense_budget,
    dense_opnorm,
    dense_pi_residual,
    dense_tilde_power,
    rng_for,
)


# ---------------------------------------------------------------------------
# shift data and construction
# ---------------------------------------------------------------------------


def test_default_trunc_supports_power_three():
    for n in (1, 2, 3):
        spec = WeightedShiftSpec(n=n)
        assert len(spec.window(3)) >= 1
        assert spec.trunc == sh.minimal_trunc(n, 3)


def test_plain_unilateral_shift(tol):
    spec = WeightedShiftSpec(n=1, trunc=5)
    (v,) = sh.shift_matrices(spec)
    expected = np.diag([1.0] * 5, -1)
    np.testing.assert_allclose(v, expected, atol=1e-15)


def test_zero_set_kills_columns(tol):
    spec = WeightedShiftSpec(n=2, zero_set={0}, trunc=20)
    v1, v2 = sh.shift_matrices(spec)
    assert np.linalg.norm(v1[:, 0]) == 0.0 and np.linalg.norm(v2[:, 0]) == 0.0
    for m in (1, 2, 3):
        assert v1[2 * m + 1, m] == 1.0
        assert v2[2 * m + 2, m] == 1.0


def test_weight_override_entry(tol):
    spec = WeightedShiftSpec(n=2, weights={(1, 1): 0.5}, trunc=20)
    v1, _ = sh.shift_matrices(spec)
    assert v1[3, 1] == 0.5  # V_1 e_1 = 0.5 e_3


def test_spec_validation(monkeypatch):
    with pytest.raises(DimensionMismatch):
        WeightedShiftSpec(n=0)
    with pytest.raises(DimensionMismatch):
        WeightedShiftSpec(n=2, weights={(3, 0): 1.0})
    with pytest.raises(DimensionMismatch):
        WeightedShiftSpec(n=1, weights={(1, 0): -0.5})
    with pytest.raises(DimensionMismatch, match="zero set index -3"):
        WeightedShiftSpec(n=2, zero_set={0, -3})
    for w in (math.nan, math.inf):
        with pytest.raises(DimensionMismatch):
            WeightedShiftSpec(n=1, weights={(1, 0): w})
    # the byte budget is checked from n and M alone: a spec allocates nothing
    dense_budget(monkeypatch, 2**16, sh)
    d = math.isqrt(2**16 // 16 - 3)
    assert WeightedShiftSpec(n=1, trunc=d - 1).h_dim() == d
    with pytest.raises(ResourceLimit, match=f"the shift needs {16 * ((d + 1) ** 2 + 3)} bytes"):
        WeightedShiftSpec(n=1, trunc=d)


def test_build_shift_is_covariant_rep(tol):
    rep = sh.build_shift(WeightedShiftSpec(n=2, trunc=30), tol)
    assert rep.h_dim == 31
    assert rep.corr.module_dim == 2
    # ranges of the two directions are orthogonal
    v1, v2 = rep.v_on_basis
    assert nx.opnorm(nx.herm(v1) @ v2) <= 1e-14


def test_lift_columns_match_shift_formula(tol):
    # column (i, m) of the lift is w_{i,m} alpha_m e_{n m + i}, entrywise
    spec = WeightedShiftSpec(n=2, weights={(1, 1): 0.5, (2, 3): 1.3}, zero_set={2}, trunc=20)
    rep = sh.build_shift(spec, tol)
    d = spec.h_dim()
    tilde = rep.tilde
    for i in range(1, spec.n + 1):
        for m in range(d):
            column = tilde[:, (i - 1) * d + m]
            expected = np.zeros(d, dtype=complex)
            target = spec.n * m + i
            if target <= spec.trunc:
                expected[target] = spec.weight(i, m) * spec.alpha(m)
            np.testing.assert_array_equal(column, expected)


# ---------------------------------------------------------------------------
# kernel formula
# ---------------------------------------------------------------------------


def test_kernel_formula_power_one_is_zero_set(tol):
    spec = WeightedShiftSpec(n=2, zero_set={0, 3}, trunc=40)
    got = sh.kernel_formula(spec, i=1, k=1)
    window = spec.window(1)
    assert got == [m for m in window if m in {0, 3}]


def test_kernel_formula_frozen_examples(tol):
    # n = 2, i = 1, B = {0}, k = 2: p = 2 would need 2m + 1 = 0, impossible
    spec = WeightedShiftSpec(n=2, zero_set={0}, trunc=64)
    assert sh.kernel_formula(spec, i=1, k=2) == [0]
    # n = 2, i = 2, B = {4}, k = 2: p = 2 gives 2m + 2 = 4, so m = 1
    spec = WeightedShiftSpec(n=2, zero_set={4}, trunc=64)
    assert sh.kernel_formula(spec, i=2, k=2) == [1, 4]


def test_kernel_formula_matches_bruteforce(tol):
    # oracle: kernels of the truncated matrix powers on the faithful window
    rng = rng_for(70)
    for trial in range(100):
        n = int(rng.integers(1, 4))
        b = frozenset(int(x) for x in rng.integers(0, 12, size=rng.integers(0, 5)))
        spec = WeightedShiftSpec(n=n, zero_set=b, trunc=max(sh.minimal_trunc(n, 3), n**3 * 8))
        weights = {}
        for _ in range(int(rng.integers(0, 4))):
            weights[(int(rng.integers(1, n + 1)), int(rng.integers(0, 10)))] = float(
                rng.uniform(0.3, 1.7)
            )
        spec = WeightedShiftSpec(n=n, weights=weights, zero_set=b, trunc=spec.trunc)
        for k in (1, 2, 3):
            for i in range(1, n + 1):
                assert sh.kernel_formula(spec, i, k) == sh.brute_force_kernel(spec, i, k, tol), (
                    trial,
                    n,
                    sorted(b),
                    i,
                    k,
                )


def test_brute_force_kernel_matches_the_dense_matrix_power(tol):
    # the window columns of V_i^k equal those of np.linalg.matrix_power bit
    # for bit when each orbit meets at most one weight other than 1 (a product
    # with 1 is exact); with more, the weights multiply in another order
    rng = rng_for(72)
    for trial in range(40):
        n = int(rng.integers(1, 4))
        b = frozenset(int(x) for x in rng.integers(0, 12, size=rng.integers(0, 5)))
        weights = {}
        for _ in range(1 if trial % 2 else int(rng.integers(2, 30))):
            weights[(int(rng.integers(1, n + 1)), int(rng.integers(0, 20)))] = float(rng.uniform(0.0, 1.7))
        spec = WeightedShiftSpec(n=n, weights=weights, zero_set=b, trunc=max(sh.minimal_trunc(n, 3), n**3 * 8))
        for k in (1, 2, 3):
            window = list(spec.window(k))
            for i in range(1, n + 1):
                dense = np.linalg.matrix_power(sh.shift_matrices(spec)[i - 1], k)[:, window]
                want = [m for m, column in zip(window, dense.T) if np.linalg.norm(column) <= tol.incl_abs]
                assert sh.brute_force_kernel(spec, i, k, tol) == want, (trial, i, k)
                power = sh._shift_matrix(spec, i)[:, window]
                for _ in range(k - 1):
                    power = sh._shift_matrix(spec, i) @ power
                if len(weights) == 1:
                    assert power.tobytes() == dense.tobytes(), (trial, i, k)
                else:
                    np.testing.assert_allclose(power, dense, rtol=4 * 2.0**-53, atol=0.0)


def test_kernel_formula_window_error():
    spec = WeightedShiftSpec(n=3, trunc=5)
    with pytest.raises(WindowError) as err:
        sh.kernel_formula(spec, i=1, k=3)
    assert err.value.minimal_trunc == sh.minimal_trunc(3, 3)


# ---------------------------------------------------------------------------
# partial isometry criterion
# ---------------------------------------------------------------------------


def test_unit_weights_always_pi(tol):
    for b in (frozenset(), frozenset({0}), frozenset({1, 4})):
        spec = WeightedShiftSpec(n=2, zero_set=b)
        res = sh.shift_pi_criterion(spec, tol, power_cap=3)
        assert res.is_pi and res.weights_unit_off_zero_set
        assert res.power_pi_up_to >= 2


def test_offending_weight_breaks_pi(tol):
    spec = WeightedShiftSpec(n=1, weights={(1, 2): 0.7}, trunc=10)
    res = sh.shift_pi_criterion(spec, tol, power_cap=3)
    assert not res.is_pi and not res.weights_unit_off_zero_set
    # oracle: classify the truncated lift directly
    assert not sh.build_shift(spec, tol).is_partial_isometric()


def test_weights_on_zero_set_are_irrelevant(tol):
    spec = WeightedShiftSpec(n=2, weights={(1, 0): 7.5, (2, 0): 0.1}, zero_set={0}, trunc=30)
    res = sh.shift_pi_criterion(spec, tol, power_cap=3)
    assert res.is_pi and res.weights_unit_off_zero_set


def test_criterion_equivalence_random(tol):
    rng = rng_for(71)
    for trial in range(60):
        n = int(rng.integers(1, 4))
        b = frozenset(int(x) for x in rng.integers(0, 8, size=rng.integers(0, 4)))
        weights = {}
        if trial % 2 == 0:
            # possibly non-unit weight at an in-window, off-zero-set slot
            m = int(rng.integers(0, 4))
            weights[(int(rng.integers(1, n + 1)), m)] = float(rng.uniform(0.3, 0.9))
        spec = WeightedShiftSpec(n=n, weights=weights, zero_set=b)
        res = sh.shift_pi_criterion(spec, tol, power_cap=3)
        assert res.is_pi == res.weights_unit_off_zero_set, (trial, spec.to_dict())
        if res.is_pi:
            assert res.power_pi_up_to == spec.window_bound(cap=3)


def shift_lift_specs() -> list:
    """Shifts of the benchmark's sizes: n = 2 and 3 at truncation 8 n^3,
    unit weights or one broken weight, with and without a zero set."""
    specs = []
    for n in (2, 3):
        trunc = max(sh.minimal_trunc(n, 3), 8 * n**3)
        specs.append(WeightedShiftSpec(n=n, trunc=trunc))
        specs.append(WeightedShiftSpec(n=n, zero_set={0, 4, 9}, trunc=trunc))
        specs.append(WeightedShiftSpec(n=n, weights={(1, 2): 0.6}, zero_set={5}, trunc=trunc))
    return specs


def test_shift_lift_powers_and_verdicts_are_the_dense_ones(tol):
    # every entry of a product of shift matrices is a one-term sum, so
    # skipping exactly-zero columns and rows changes no bit
    for spec in shift_lift_specs():
        rep = sh.build_shift(spec, tol)
        for m in (1, 2, 3):
            tm = rep.tilde_power(m)
            assert tm.tobytes() == dense_tilde_power(rep, m).tobytes(), (spec.to_dict(), m)
            residual, verdict = nx.partial_isometry_residual(tm, tol)
            dense, scale = dense_pi_residual(tm), dense_opnorm(tm)
            assert residual == dense, (spec.to_dict(), m)
            dense_verdict = scale <= tol.rank_rel or dense <= tol.eq_rel * scale
            assert verdict == nx.is_partial_isometry(tm, tol) == dense_verdict, (spec.to_dict(), m)


def test_shift_criterion_factors_no_array_wider_than_the_rank(tol, monkeypatch):
    # the n = 3, trunc 216 shift: T_3 is 217 x 5859 with 204 nonzero columns;
    # no SVD and no partial-isometry product sees more than 217 columns
    widths = []
    real_svd, real_verdict = np.linalg.svd, nx._partial_isometry_verdict

    def svd(a, *args, **kwargs):
        widths.append(np.shape(a)[-1])
        return real_svd(a, *args, **kwargs)

    def verdict(a, *args):
        widths.append(a.shape[1])
        return real_verdict(a, *args)

    monkeypatch.setattr(np.linalg, "svd", svd)
    monkeypatch.setattr(np.linalg._linalg, "svd", svd)  # np.linalg.norm(a, 2) calls this one
    monkeypatch.setattr(nx, "_partial_isometry_verdict", verdict)
    spec = WeightedShiftSpec(n=3, trunc=216)
    res = sh.shift_pi_criterion(spec, tol, power_cap=3)
    assert res.is_pi and res.power_pi_up_to == 3
    assert widths and max(widths) <= 217


def test_shift_lifts_take_no_svd(tol, monkeypatch):
    # every entry of the n = 3, trunc 216 shift lift (217 x 651) and of its
    # T_3 (217 x 5,859) is isolated, alone in its row and its column, so
    # their norms, contraction verdicts and cokernel frames factor nothing
    rep = sh.build_shift(WeightedShiftSpec(n=3, trunc=216), tol)
    lifts = [rep.tilde, rep.tilde_power(3)]
    shapes, real_svd = [], nx._svd

    def svd(a, *args, **kwargs):
        shapes.append(a.shape)
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(nx, "_svd", svd)
    for t in lifts:
        rank = int(np.count_nonzero(t))
        assert nx.opnorm(t) == 1.0 and nx.is_contraction(t, tol)
        frame = nx.range_frame(nx.herm(t), tol)
        assert frame.shape == (t.shape[1], rank) and np.count_nonzero(frame) == rank
    assert shapes == []


def test_shift_criterion_takes_the_lift_verdict_once(tol, monkeypatch):
    # rep.is_partial_isometric() is the first power's verdict: three powers, three verdicts
    calls = []
    real = nx.is_partial_isometry
    monkeypatch.setattr(nx, "is_partial_isometry", lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    res = sh.shift_pi_criterion(WeightedShiftSpec(n=2, trunc=64), tol, power_cap=3)
    assert res.is_pi and res.power_pi_up_to == 3
    assert len(calls) == 3


def count_gathers(monkeypatch) -> tuple:
    """(gathers, dense): the monomial operands matmul and the amplifications
    found, and the np.matmul calls made."""
    gathers, dense = [], []
    real_single, real_matmul = nx.Operand.single_entries, np.matmul

    def single_entries(self):
        out = real_single(self)
        if out is not None:
            gathers.append(self.array.shape)
        return out

    monkeypatch.setattr(nx.Operand, "single_entries", single_entries)
    monkeypatch.setattr(np, "matmul", lambda *args, **kwargs: dense.append(1) or real_matmul(*args, **kwargs))
    return gathers, dense


def test_shift_lifts_powers_and_frames_take_the_gather_at_every_site(tol, monkeypatch):
    # the n = 3, trunc 216 shift: the lift, T_2, T_3 and their cokernel frames
    # are monomial, so every listed product is a gather and none a GEMM
    from pirep import powers as pw

    rep = sh.build_shift(WeightedShiftSpec(n=3, trunc=216), tol)
    powers = {m: rep.tilde_power(m) for m in (1, 2, 3)}
    frames = {m: rep.cokernel_subspace(m) for m in (0, 1, 2, 3)}
    gathers, dense = count_gathers(monkeypatch)

    def site(expected, run):
        gathers.clear()
        dense.clear()
        out = run()
        assert len(gathers) == expected and dense == [], (expected, gathers, len(dense))
        return out

    for m in (1, 2, 3):
        tm, frame = powers[m], frames[m].frame
        amp = rep.amplified(rep.tilde, m - 1, 1, 0)
        if m > 1:
            built = site(1, lambda: powers[m - 1] @ amp)  # __rmatmul__: the block
            assert built.tobytes() == tm.tobytes()
        moved = site(1, lambda: amp @ frame)  # __matmul__: the frame
        assert np.array_equal(moved, dense_amplified(rep, rep.tilde, m - 1, 1, 0) @ frame)
        gap = site(2, lambda: nx._inclusion_gap(Subspace(moved), frames[m - 1]))
        assert not gap.any()
        assert site(2, lambda: nx.partial_isometry_residual(tm, tol)) == (dense_pi_residual(tm), True)
        assert site(2, lambda: nx.is_partial_isometry(tm, tol))
        # T T*, the image of the cokernel under I (x) T T*, and its inclusion
        assert site(4, lambda: pw.range_invariance_condition(rep, m))
    # the lift's classification: T*T and T T* (2), F F* for its two frames
    # (2), the two frame Grams F* X* X F (6) and the triple product (2)
    report = site(12, lambda: nx.classify_operator(rep.tilde, tol))
    assert report.is_partial_isometric and report.consistent


def test_a_conjugated_shift_takes_the_dense_path_to_the_same_power_flags(tol, monkeypatch):
    # conjugated by a Haar unitary the lift is dense: no operand but the
    # identity frame of H (the cokernel of T_0) is monomial, and the power
    # report's flags are those of the shift
    from pirep import harness as hz
    from pirep import powers as pw
    from pirep.correspondence import SCALARS, StarRepresentation, scalar_correspondence
    from pirep.covrep import CovariantRep

    gathers, dense = count_gathers(monkeypatch)
    specs = [WeightedShiftSpec(n=2, zero_set={0, 4, 9}, trunc=64), WeightedShiftSpec(n=2, weights={(1, 2): 0.6}, trunc=64)]
    for spec in specs:
        shift = sh.build_shift(spec, tol)
        u = hz.haar_unitary(rng_for(334), shift.h_dim)
        sigma = StarRepresentation(SCALARS, [shift.h_dim])
        conjugated = CovariantRep(scalar_correspondence(2), sigma, [u @ v @ nx.herm(u) for v in shift.v_on_basis], tol)
        want = pw.power_report(shift, 3)
        gathers.clear()
        dense.clear()
        got = pw.power_report(conjugated, 3)
        assert set(gathers) <= {(shift.h_dim, shift.h_dim)}
        assert len(dense) > 0 if want.applicable else not got.applicable
        for key in ("applicable", "pi_flags", "chain_flags", "range_flags"):
            assert getattr(got, key) == getattr(want, key), (spec.to_dict(), key)


# ---------------------------------------------------------------------------
# chain inclusion
# ---------------------------------------------------------------------------


def test_power_report_at_n_max_4_on_the_n3_trunc216_shift(tol):
    # dense, I_{E^3} (x) tilde would be 5,859 x 17,577 (1.6 GB, over the
    # budget); applied block by block the report fits the default budget
    from pirep import powers as pw

    report = pw.power_report(sh.build_shift(WeightedShiftSpec(n=3, trunc=216), tol), 4)
    assert report.applicable
    assert report.pi_flags == report.chain_flags == report.range_flags == [True] * 4


def test_chain_inclusion_pure_shift(tol):
    assert chain_inclusion_check(WeightedShiftSpec(n=1, trunc=8), k=1, tol=tol)
    assert chain_inclusion_check(WeightedShiftSpec(n=1, trunc=8), k=2, tol=tol)


def test_chain_inclusion_with_zero_set(tol):
    spec = WeightedShiftSpec(n=2, zero_set={0, 3}, trunc=64)
    for k in (1, 2):
        assert chain_inclusion_check(spec, k, tol)


def test_chain_inclusion_random_sweep(tol):
    rng = rng_for(72)
    for trial in range(100):
        n = int(rng.integers(1, 4))
        b = frozenset(int(x) for x in rng.integers(0, 10, size=rng.integers(0, 5)))
        spec = WeightedShiftSpec(n=n, zero_set=b, trunc=max(sh.minimal_trunc(n, 3), 32))
        for k in (1, 2):
            assert chain_inclusion_check(spec, k, tol), (trial, n, sorted(b), k)


def test_chain_inclusion_window_error(tol):
    with pytest.raises(WindowError):
        chain_inclusion_check(WeightedShiftSpec(n=3, trunc=4), k=3, tol=tol)


# ---------------------------------------------------------------------------
# row structure
# ---------------------------------------------------------------------------


def test_row_pi_iff_each_direction_pi(tol):
    # the target indices n m + i have distinct residues mod n, so the
    # ranges are pairwise orthogonal and the row verdict splits
    rng = rng_for(73)
    for trial in range(30):
        n = int(rng.integers(2, 4))
        weights = {}
        if trial % 3 == 0:
            weights[(1, 0)] = 0.5
        spec = WeightedShiftSpec(n=n, weights=weights, trunc=40)
        rep = sh.build_shift(spec, tol)
        for i in range(n):
            for j in range(i + 1, n):
                assert nx.opnorm(nx.herm(rep.v_on_basis[i]) @ rep.v_on_basis[j]) <= 1e-14
        each = all(nx.is_partial_isometry(v, tol) for v in rep.v_on_basis)
        assert rep.is_partial_isometric() == each, trial
