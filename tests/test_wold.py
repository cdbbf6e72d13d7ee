from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pirep import harness as hz
from pirep import numerics as nx
from pirep import wold
from pirep.correspondence import SCALARS, StarRepresentation, scalar_correspondence
from pirep.covrep import CovariantRep
from pirep.errors import DimensionMismatch, NotApplicable, ResourceLimit
from pirep.numerics import Subspace

from conftest import (
    adjoint_regularity_check,
    crandn,
    dense_budget,
    gated_iteration_reps,
    generated_subspace_by_amplification,
    rng_for,
    subspace_iteration_reps,
)


def scalar_rep(v_list, tol):
    d = v_list[0].shape[0]
    sigma = StarRepresentation(SCALARS, [d])
    return CovariantRep(
        scalar_correspondence(len(v_list)), sigma, [np.asarray(v, dtype=complex) for v in v_list], tol
    )


def haar_unitary(rng, d):
    q, r = np.linalg.qr(crandn(rng, d, d))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def forward_shift(d):
    return np.diag([1.0] * (d - 1), -1).astype(complex)


def shift_plus_unitary(rng, q, u_dim, tol):
    """Forward truncated shift (+) unitary: the standard two-part model."""
    u = haar_unitary(rng, u_dim)
    v = np.block(
        [
            [forward_shift(q), np.zeros((q, u_dim), dtype=complex)],
            [np.zeros((u_dim, q), dtype=complex), u],
        ]
    )
    return scalar_rep([v], tol)


# ---------------------------------------------------------------------------
# Cauchy dual
# ---------------------------------------------------------------------------


def test_cauchy_dual_of_partial_isometry_is_itself(tol):
    rep = shift_plus_unitary(rng_for(80), 3, 2, tol)
    assert rep.is_partial_isometric()
    assert nx.opnorm(wold.cauchy_dual(rep) - rep.tilde) <= 1e-10


def test_cauchy_dual_inverts_scaling(tol):
    rng = rng_for(81)
    u = haar_unitary(rng, 3)
    rep = scalar_rep([2.0 * u], tol)
    np.testing.assert_allclose(wold.cauchy_dual(rep), 0.5 * u, atol=1e-12)


def test_cauchy_dual_pinv_identity_random(tol):
    # oracle: T'* T is the projection onto R(T*)
    rng = rng_for(17)
    rep = scalar_rep([crandn(rng, 4, 4) for _ in range(2)], tol)
    dual = wold.cauchy_dual(rep)
    lhs = nx.herm(dual) @ rep.tilde
    f = nx.range_frame(nx.herm(rep.tilde), tol)
    np.testing.assert_allclose(lhs, f @ nx.herm(f), atol=1e-9)


def test_cauchy_dual_is_involution(tol):
    rng = rng_for(82)
    for trial in range(20):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(1, 3))
        rep = scalar_rep([crandn(rng, d, d) for _ in range(n)], tol)
        dual = wold.cauchy_dual(rep)
        back = wold.cauchy_dual_of_matrix(dual, tol)
        assert nx.opnorm(back - rep.tilde) <= 1e-8 * max(1.0, nx.opnorm(rep.tilde)), trial


# ---------------------------------------------------------------------------
# bi-regularity
# ---------------------------------------------------------------------------


def test_bi_regular_regular_pi(tol):
    rng = rng_for(83)
    reps = [
        scalar_rep([haar_unitary(rng, 3)], tol),
        scalar_rep([haar_unitary(rng, 3) / np.sqrt(2), haar_unitary(rng, 3) / np.sqrt(2)], tol),
    ]
    for rep in reps:
        assert rep.is_partial_isometric()
        assert wold.is_bi_regular(rep)


def test_bi_regular_not_applicable_for_non_regular(tol):
    rep = scalar_rep([np.diag([1.0, 0.0]).astype(complex) @ forward_shift(2)], tol)
    with pytest.raises(NotApplicable):
        wold.is_bi_regular(rep)


def test_bi_regular_invertible_contraction_bruteforce(tol):
    # oracle: explicit kernel/range frames; invertible lifts have trivial
    # kernels, so every inclusion holds
    rng = rng_for(84)
    u, s, vh = np.linalg.svd(crandn(rng, 3, 3), full_matrices=False)
    v = u @ ((0.3 + 0.6 * s / s.max())[:, None] * vh)
    rep = scalar_rep([v], tol)
    assert wold.is_bi_regular(rep)
    dagger = nx.pseudoinverse(rep.tilde, tol)
    assert nx.kernel_frame(dagger, tol).shape[1] == 0


def test_adjoint_regularity_for_regular_reps(tol):
    rng = rng_for(85)
    reps = [
        scalar_rep([haar_unitary(rng, 3)], tol),
        scalar_rep([haar_unitary(rng, 2) / np.sqrt(2), haar_unitary(rng, 2) / np.sqrt(2)], tol),
    ]
    for rep in reps:
        assert adjoint_regularity_check(rep, n_max=3)


# ---------------------------------------------------------------------------
# generated invariant subspaces
# ---------------------------------------------------------------------------


def test_generated_whole_space(tol):
    rng = rng_for(86)
    rep = scalar_rep([haar_unitary(rng, 3)], tol)
    got = wold.generated_invariant_subspace(rep, rep.tilde, Subspace.whole(3))
    assert got.dim == 3


def test_generated_zero_space(tol):
    rng = rng_for(87)
    rep = scalar_rep([haar_unitary(rng, 3)], tol)
    got = wold.generated_invariant_subspace(rep, rep.tilde, Subspace.zero(3))
    assert got.dim == 0


def test_generated_shift_orbit(tol):
    # oracle: the explicit orbit e_0 -> e_1 -> ... covers everything
    rep = scalar_rep([forward_shift(4)], tol)
    seed = Subspace(np.eye(4, 1).astype(complex))
    got = wold.generated_invariant_subspace(rep, rep.tilde, seed)
    assert got.dim == 4


def test_generated_stabilizes_quickly(tol):
    rep = scalar_rep([forward_shift(5)], tol)
    seed = Subspace(np.eye(5, 1).astype(complex))
    got = wold.generated_invariant_subspace(rep, rep.tilde, seed)
    assert got.dim == 5


def test_generated_matches_the_dense_oracle(tol):
    # each layer X(E (x) L) spanned from the frame of L against the span of
    # the dense X(I (x) P_L), from the wandering subspace, for X = tilde and
    # its Cauchy dual; on scalar, shift (+) unitary, regular and
    # quotient-coordinate reps
    dims = set()
    for index, rep in enumerate(subspace_iteration_reps(tol)):
        w = nx.ortho_complement(rep.range_subspace(1), tol)
        for x in (rep.tilde, wold.cauchy_dual(rep)):
            got = wold.generated_invariant_subspace(rep, x, w)
            want = generated_subspace_by_amplification(rep, x, w)
            assert got.dim == want.dim, index
            assert nx.opnorm(got.projector() - want.projector()) <= 1e-12, index
            dims.add(0 < got.dim < rep.h_dim)
    assert dims == {True, False}


def test_subspace_iterations_refuse_operands_of_the_wrong_shape(tol):
    # X must map E (x) H to H and W must lie in H; anything else is a typed
    # error raised before the first product
    from pirep import harness as hz
    from pirep import powers

    rep = hz.shift_plus_unitary_fixture(rng_for(90), tol, q=3, u_dim=2)
    h = rep.h_dim
    w = nx.ortho_complement(rep.range_subspace(1), tol)
    with pytest.raises(DimensionMismatch, match="E \\(x\\) H to H"):
        powers.iterated_range(rep, np.eye(h + 1))
    with pytest.raises(DimensionMismatch, match="E \\(x\\) H to H"):
        wold.generated_invariant_subspace(rep, np.eye(h + 1), w)
    with pytest.raises(DimensionMismatch, match="subspace of H"):
        wold.generated_invariant_subspace(rep, rep.tilde, Subspace.whole(h + 1))


def test_generated_past_the_gate_matches_the_dense_oracle(tol):
    # the same comparison on representations whose X has at least
    # _DEFLATE_MIN_SIZE entries: unit-vector blocks are held by their rows,
    # and the first block that is not moves the span to the dense frame
    for index, rep in enumerate(gated_iteration_reps(tol)):
        w = nx.ortho_complement(rep.range_subspace(1), tol)
        for x in (rep.tilde, wold.cauchy_dual(rep)):
            got = wold.generated_invariant_subspace(rep, x, w)
            want = generated_subspace_by_amplification(rep, x, w)
            assert got.dim == want.dim, index
            assert nx.opnorm(got.projector() - want.projector()) <= 1e-12, index


def test_a_span_held_by_rows_drops_what_returns_into_it(tol, monkeypatch):
    # X e_j = e_(j+1) + e_0 / 2 on a 40-dimensional H, from W = e_0: every
    # image returns into the held row 0, and setting the held rows to zero
    # (Gram-Schmidt against unit vectors) leaves the unit vector e_(j+1), so
    # the span is held by its rows up to all of H, as the oracle has it,
    # each step read off X's nonzeros with no dense residual
    from pirep import harness as hz

    rep = hz.shift_plus_unitary_fixture(rng_for(99), tol, q=32, u_dim=8)
    x = np.diag(np.ones(39), -1).astype(complex)
    x[0] += 0.5
    w = Subspace(np.eye(40, 1, dtype=complex))
    with monkeypatch.context() as patch:
        patch.setattr(nx._RowSteps, "residual_product", None)
        got = wold.generated_invariant_subspace(rep, x, w)
    want = generated_subspace_by_amplification(rep, x, w)
    assert type(got._frame) is nx._Monomial and got.dim == want.dim == 40
    assert nx.opnorm(got.projector() - want.projector()) <= 1e-12


def spy_iterations(monkeypatch) -> dict:
    """Record, for one ``wold_decompose``: every stepper (``nx._RowSteps``),
    every read of X's nonzeros that is not kept from an earlier one (a
    scan of an array, or a form read off its parts) and every scan of an
    array for its zero lines, each ``step``, ``residual`` and ``walk`` as (stepper,
    rows in, what it returned), each ``peel`` as (stepper, rows out), each
    dense residual and product a stepper builds, and the
    ``_range_frame_cut_as`` calls and Subspaces made inside the two
    subspace iterations, with how many iterations ran."""
    from pirep import powers as pw

    seen = {name: [] for name in ("steppers", "scans", "lines", "steps", "peels", "residuals", "walks", "dense", "cuts", "built", "iterations")}
    inside = []

    def record(owner, name, key):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            out = real(*args, **kwargs)
            if key in ("steps", "residuals", "walks"):
                seen[key].append((args[0], args[1], out))
            else:
                seen[key].append((args[0], out) if key == "peels" else args[0])
            return out

        monkeypatch.setattr(owner, name, wrapper)

    def iteration(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            seen["iterations"].append(name)
            inside.append(1)
            try:
                return real(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(module, name, wrapper)

    record(nx._RowSteps, "__init__", "steppers")
    real_nonzeros, real_lines = nx._column_nonzeros, nx._nonzero_lines
    fresh = lambda x: type(x) is not nx._Monomial or x._scan is None
    monkeypatch.setattr(nx, "_column_nonzeros", lambda x: (seen["scans"].append(x) if fresh(x) else None) or real_nonzeros(x))
    monkeypatch.setattr(nx, "_nonzero_lines", lambda a: seen["lines"].append(a.shape) or real_lines(a))
    record(nx._RowSteps, "step", "steps")
    record(nx._RowSteps, "peel", "peels")
    record(nx._RowSteps, "residual", "residuals")
    record(nx._RowSteps, "walk", "walks")
    record(nx._RowSteps, "product", "dense")
    record(nx._RowSteps, "residual_product", "dense")
    real_cut, real_post = nx._range_frame_cut_as, nx.Subspace.__post_init__
    monkeypatch.setattr(nx, "_range_frame_cut_as", lambda a, *args: (seen["cuts"].append(a.shape) if inside else None) or real_cut(a, *args))
    monkeypatch.setattr(nx.Subspace, "__post_init__", lambda self: (seen["built"].append(self) if inside else None) or real_post(self))
    for module in (pw, wold):
        iteration(module, "iterated_range")
    iteration(wold, "generated_invariant_subspace")
    return seen


def assert_one_pass_per_iteration(seen: dict, q: int, u: int) -> None:
    """The four iterations of a ``wold_decompose`` on the q + u shift (+)
    unitary, as ``spy_iterations`` saw them: the lift and its Cauchy dual
    are split forms, and the nonzeros of each are read once, off its parts,
    and shared by its two iterations (two reads, four steppers), and no
    array is scanned; each R^infty iteration takes one step, from every
    row, and peels the rest to the u core rows; each generated span is one
    walk of q - 1 unit columns from the wandering line, which ends at an
    exactly zero residual; no residual step, no dense product or residual,
    no cut, and one Subspace per iteration, at its end."""
    h = q + u
    assert sorted(seen["iterations"]) == ["generated_invariant_subspace"] * 2 + ["iterated_range"] * 2
    assert len(seen["steppers"]) == 4 and len(seen["scans"]) == 2 and all(nx._has_core(x) for x in seen["scans"])
    assert not seen["lines"] and not seen["dense"] and not seen["cuts"]
    assert [(rows.tolist(), out.size) for _, rows, out in seen["steps"]] == [(list(range(h)), h - 1)] * 2
    assert [(stepper, out.tolist()) for stepper, out in seen["peels"]] == [(stepper, list(range(q, h))) for stepper, _, _ in seen["steps"]]
    assert [(row, out[0].tolist(), out[1]) for _, row, out in seen["walks"]] == [(0, list(range(1, q)), True)] * 2
    assert not seen["residuals"]
    assert len(seen["built"]) == 4 and all(type(s._frame) is nx._Monomial for s in seen["built"])


def test_wold_factors_only_the_unitary_core_and_thin_residuals(tol, monkeypatch):
    # on the q = 60, u = 20 shift (+) unitary the lift is a split form, the
    # shift entries beside the 20 x 20 unitary core, and its Cauchy dual is
    # composed by parts, so LAPACK sees only that core.  Each of the four
    # subspace iterations (R^infty and the generated span, of tilde and of
    # its Cauchy dual) makes one pass over its X's nonzeros, read once per
    # operator: each R^infty iteration steps once and peels the shift chain,
    # taking the singular values of the core once; each generated span
    # walks the chain of unit columns, and no residual is factored
    from pirep import harness as hz

    rep = hz.shift_plus_unitary_fixture(rng_for(98), tol, q=60, u_dim=20)
    calls, real_svd = [], nx._svd
    monkeypatch.setattr(nx, "_svd", lambda m, full, compute_uv=True: calls.append((m.shape, compute_uv)) or real_svd(m, full, compute_uv))
    seen = spy_iterations(monkeypatch)
    out = wold.wold_decompose(rep, check_hypotheses=False)
    assert all(max(shape) <= 20 for shape, _ in calls), sorted(set(calls))
    assert_one_pass_per_iteration(seen, 60, 20)
    # the two steppers of one operator share its cache of core values
    assert len({id(stepper.values) for stepper in seen["steppers"]}) == 2
    assert all([s.shape for s in stepper.values.values()] == [(20,)] for stepper in seen["steppers"])
    # only the Cauchy dual's pseudoinverse factors the core with vectors; the
    # kernel N(tilde) that regularity reads, the range R(tilde), the two
    # first steps and the dual gap take its values alone
    assert calls.count(((20, 20), True)) == 1 and len(calls) == 6
    for side in (out.primal, out.dual):
        assert (side.generated.dim, side.residual.dim) == (60, 20)
        assert side.orthogonality_defect <= 1e-12 and side.direct_sum_residual <= 1e-12


def test_wold_scales_to_q_400_with_one_scan_per_iteration(tol, monkeypatch):
    # the q = 400, u = 20 shift (+) unitary: each of the four iterations
    # scans its X (420 x 420) once and makes as many steps, peels and walks
    # as at q = 60 (no step count grows with q), with no dense product or
    # residual, no cut and one Subspace per iteration
    from pirep import harness as hz

    rep = hz.shift_plus_unitary_fixture(rng_for(98), tol, q=400, u_dim=20)
    seen = spy_iterations(monkeypatch)
    out = wold.wold_decompose(rep, check_hypotheses=False)
    assert_one_pass_per_iteration(seen, 400, 20)
    for side in (out.primal, out.dual):
        assert (side.generated.dim, side.residual.dim) == (400, 20)
        assert side.orthogonality_defect == 0.0 and side.direct_sum_residual == 0.0


def benchmark_wold_reps(tol) -> list:
    """The shift (+) unitary reps (q = 60, u = 20) of four ``large_window``
    rounds of the benchmark at seeds 42 and 7: each round's generator first
    draws its four shift specs (n = 2 and 3, with and without a broken
    weight), as ``perfbench/workloads.py`` does, then the rep."""
    reps = []
    for seed in (42, 7):
        for r in range(4):
            rng = np.random.default_rng([seed, r])
            for n in (2, 3):
                for broken in (False, True):
                    zero_set = frozenset(int(x) for x in rng.integers(0, 12, size=rng.integers(0, 5)))
                    weights = {}
                    if broken:
                        m = int(rng.choice([m for m in range(6) if m not in zero_set]))
                        weights[(int(rng.integers(1, n + 1)), m)] = float(rng.uniform(0.3, 0.9))
            reps.append(hz.shift_plus_unitary_fixture(rng, tol, q=60, u_dim=20))
    return reps


def test_split_lifts_decide_as_the_dense_lifts(tol):
    # the shift (+) unitary past the gate is held as a split form and
    # composed by parts; against the same lift held as an array (a
    # read-only copy that ``CovariantRep`` does not split), for q in
    # {40, 60, 200} and u in {2, 20}: the Cauchy dual and the dual gap to
    # 1e-15, the partial-isometry verdict, and the frames of R(T) and N(T)
    # byte for byte; on the benchmark's eight Wold reps the Cauchy dual and
    # the dual gap are the dense ones bit for bit
    def dense_side(rep):
        t = rep.tilde
        t_dual = wold.cauchy_dual_of_matrix(t, tol)
        frames = nx.range_frame(t, tol, 1.0), nx.kernel_frame(t, tol, 1.0)
        return t_dual, nx.opnorm(t_dual - t), nx.is_partial_isometry(t, tol), frames

    def split_side(rep):
        t_dual = wold._dual(rep._lift, tol)
        frames = rep.range_subspace(1).frame, rep.kernel_subspace(1).frame
        return nx.dense(t_dual, "T'"), nx.opnorm(nx._difference(t_dual, rep._lift)), rep.is_partial_isometric(), frames

    rng = rng_for(344)
    grid = [hz.shift_plus_unitary_fixture(rng, tol, q=q, u_dim=u) for q in (40, 60, 200) for u in (2, 20)]
    for index, rep in enumerate(grid + benchmark_wold_reps(tol)):
        assert nx._has_core(rep._lift), index
        got, want = split_side(rep), dense_side(rep)
        if index < len(grid):
            assert nx.opnorm(got[0] - want[0]) <= 1e-15 and abs(got[1] - want[1]) <= 1e-15, index
        else:
            assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1], index
        assert got[2] == want[2] is True, index
        for frame, dense_frame in zip(got[3], want[3]):
            assert frame.tobytes() == dense_frame.tobytes(), index


def test_a_conjugated_shift_plus_unitary_stays_dense(tol):
    # U (S (+) W) U* for a Haar U past the gate has no isolated entry, so
    # its lift is kept as the array, and the decomposition is the dense one
    rng = rng_for(345)
    u = haar_unitary(rng, 36)
    v = u @ hz.shift_plus_unitary_fixture(rng, tol, q=30, u_dim=6).tilde @ nx.herm(u)
    rep = scalar_rep([v], tol)
    assert v.size >= nx._DEFLATE_MIN_SIZE and rep._lift is rep.tilde and nx._index_form(v, split=True) is None
    out = wold.wold_decompose(rep, check_hypotheses=False)
    assert out.primal.generated.dim == 30 and out.dual.residual.dim == 6
    assert out.dual_gap == nx.opnorm(wold.cauchy_dual(rep) - rep.tilde)


def test_wold_at_q_400_multiplies_only_the_core(tol, monkeypatch):
    # on the q = 400, u = 20 shift (+) unitary the partial-isometry verdict,
    # the Cauchy dual and the dual gap multiply no operand wider than the
    # 20-column core, and build no 420 x 420 array; no array the size of
    # the lift is scanned in the whole decomposition
    rep = hz.shift_plus_unitary_fixture(rng_for(98), tol, q=400, u_dim=20)
    t = rep._lift
    assert nx._has_core(t) and t._core[2].shape == (20, 20)
    shapes, real_matmul = [], np.matmul
    monkeypatch.setattr(nx.np, "matmul", lambda a, b: shapes.append((np.shape(a), np.shape(b))) or real_matmul(a, b))
    t_dual = wold._dual(t, tol)
    gap = nx.opnorm(nx._difference(t_dual, t))
    assert rep.is_partial_isometric() and gap <= 1e-14
    monkeypatch.setattr(nx.np, "matmul", real_matmul)
    assert shapes and all(max(a[1], b[1]) <= 20 for a, b in shapes), shapes
    assert nx._has_core(t_dual) and t_dual._dense is None and t._dense is rep.tilde
    seen = spy_iterations(monkeypatch)
    wold.wold_decompose(rep, check_hypotheses=False)
    assert all(max(shape) < 420 for shape in seen["lines"]) and all(nx._has_core(x) for x in seen["scans"])


def test_held_rows_grow_the_span_as_dense_gram_schmidt(tol, monkeypatch):
    # the span held as rows and grown from X's nonzeros equals the dense
    # Gram-Schmidt growth of the same W and X (to 1e-12), on the gated
    # representations and the q = 60 shift (+) unitary
    from pirep import harness as hz

    reps = gated_iteration_reps(tol) + [hz.shift_plus_unitary_fixture(rng_for(98), tol, q=60, u_dim=20)]
    held = []
    for index, rep in enumerate(reps):
        w = nx.ortho_complement(rep.range_subspace(1), tol)
        for x in (rep.tilde, wold.cauchy_dual(rep)):
            got = wold.generated_invariant_subspace(rep, x, w)
            with monkeypatch.context() as patch:
                patch.setattr(wold, "_unit_rows_of", lambda *args: None)
                want = wold.generated_invariant_subspace(rep, x, w)
            assert got.dim == want.dim, index
            assert nx.opnorm(got.projector() - want.projector()) <= 1e-12, index
            held.append(type(got._frame) is nx._Monomial)
    assert sum(held) >= 2


def test_wold_defects_of_unit_frames_are_read_from_their_rows(tol):
    # frames of unit vectors on disjoint rows: the orthogonality defect is
    # the 0.0 the dense opnorm gives, and the direct-sum residual too when
    # the rows cover H; shared rows or dense frames keep the dense norms
    h = 120
    units = lambda rows: Subspace(nx._units(h, np.asarray(rows, dtype=np.intp)))
    low, high, rest = units(range(0, 90)), units(range(90, 120)), units(range(90, 110))
    assert all(type(s._frame) is nx._Monomial for s in (low, high, rest))
    for a, b in ((low, high), (low, rest), (low, low), (high, low)):
        ortho, complete = nx._unit_frame_defects(a, b)
        dense_ortho = nx.opnorm(nx.herm(a.frame) @ b.frame)
        dense_complete = nx.opnorm(a.projector() + b.projector() - np.eye(h))
        assert ortho in (None, dense_ortho) and complete in (None, dense_complete)
        assert (ortho is None) == (a is b) and (complete is None) == (b is not high and a is not high)
    dense = Subspace(np.eye(h)[:, 90:])
    assert nx._unit_frame_defects(low, dense) == (None, None)


def test_one_unit_column_is_its_own_range_frame(tol):
    # the premise of the generated span's shortcut: the range frame of one
    # column e_r of value 1, cut as the stacked matrix it stands in for, is
    # +e_r (LAPACK's zeros may carry a sign; past the gate the split SVD
    # keeps an isolated entry's unit vector of phase 1), so the rows the
    # held span reads off it are [r]; an exactly zero column has rank 0
    for h in (2, 7, 80, 421, 1500):
        for r in sorted({0, h // 3, h - 1}):
            column = np.zeros((h, 1), dtype=np.complex128)
            column[r] = 1.0
            frame = nx.dense(nx._range_frame_cut_as(column, (h, h + 5), tol, 1.0), "a frame")
            assert np.array_equal(frame, column) and list(nx._unit_rows(frame)) == [r], (h, r)
        zero = nx._range_frame_cut_as(np.zeros((h, 1), dtype=np.complex128), (h, h + 5), tol, 1.0)
        assert zero.shape == (h, 0)


def test_wold_iterations_check_the_scan_of_x_before_building_it(tol, monkeypatch):
    # the iterations of the q = 60, u = 20 shift (+) unitary scan X, 80 x 80,
    # once each: a mask of 6,400 bytes, as large as anything they build (the
    # generated span holds its rows, no dense frame); one byte less refuses
    # the scan before it is taken, and at the scan's size both iterations
    # run, with the budgeted numpy refusing any unchecked array past it
    from pirep import harness as hz
    from pirep import powers as pw

    rep = hz.shift_plus_unitary_fixture(rng_for(98), tol, q=60, u_dim=20)
    xs = (rep.tilde, wold.cauchy_dual(rep))
    w = nx.ortho_complement(rep.range_subspace(1), tol)
    want = [(pw.iterated_range(rep, x), wold.generated_invariant_subspace(rep, x, w)) for x in xs]
    scan = rep.tilde.size
    dense_budget(monkeypatch, scan - 1, nx, pw, wold)
    with pytest.raises(ResourceLimit, match=f"the scan of X needs {scan} bytes, over the budget {scan - 1}"):
        pw.iterated_range(rep, rep.tilde)
    monkeypatch.setattr(nx, "DENSE_BYTES", scan)
    got = [(pw.iterated_range(rep, x), wold.generated_invariant_subspace(rep, x, w)) for x in xs]
    monkeypatch.undo()
    for pair, want_pair in zip(got, want):
        for s, t in zip(pair, want_pair):
            assert s.frame.tobytes() == t.frame.tobytes()


# ---------------------------------------------------------------------------
# the peel and the walk against the stepped iterations
# ---------------------------------------------------------------------------


def iteration_x(h, blocks, core, cycles, chains, end, kind, seed, near=None, tol=nx.DEFAULT_TOL) -> tuple:
    """(X, chain starts): an h x (blocks * h) X on disjoint rows drawn from
    ``seed``: a Haar unitary on ``core`` rows (their columns in block 0;
    none below 2 rows), cycles and chains of the given lengths whose edge
    r -> s puts one entry at row s of row r's column in a drawn block, and
    each chain's last column empty (``end`` "open") or holding one entry
    in a core row ("core") or a cycle row ("cycle").  Edge values by
    ``kind``: exactly 1, weights in [0.3, 1) or unit phases.  With ``near``
    (-1, 0 or 1) the first cycle's first edge is set one ulp below, at or
    one ulp above the cut of the step from every row."""
    rng = np.random.default_rng(seed)
    free = rng.permutation(h).tolist()
    x = np.zeros((h, blocks * h), dtype=complex)
    values = {"one": lambda: 1.0, "weights": lambda: rng.uniform(0.3, 1.0), "phases": lambda: np.exp(2j * np.pi * rng.uniform())}[kind]
    edges = []

    def edge(r, s):
        edges.append((s, int(rng.integers(blocks)) * h + r))
        x[edges[-1]] = values()

    core_rows = [free.pop() for _ in range(core if core >= 2 else 0)]
    x[np.ix_(core_rows, core_rows)] = haar_unitary(rng, len(core_rows))
    cycle_rows, starts = [], []
    for n in cycles:
        ring = [free.pop() for _ in range(n)]
        for r, s in zip(ring, ring[1:] + ring[:1]):
            edge(r, s)
        cycle_rows += ring
    first_cycle_edge = edges[0] if cycles else None
    for n in chains:
        path = [free.pop() for _ in range(n)]
        for r, s in zip(path, path[1:]):
            edge(r, s)
        target = {"core": core_rows, "cycle": cycle_rows}.get(end, [])
        if target:
            edge(path[-1], target[int(rng.integers(len(target)))])
        starts.append(path[0])
    if near is not None and first_cycle_edge is not None:
        x[first_cycle_edge] = 1e-300  # a placeholder that is no largest value
        steps = nx._RowSteps(x, blocks)
        steps.step(np.arange(h), (h, blocks * h), tol, 1.0)
        top = max(0.0 if steps.s is None else steps.s[:1].max(initial=0.0), steps.mod.max())
        cut = nx.rank_threshold(np.array([top]), (h, blocks * h), tol, 1.0)
        x[first_cycle_edge] = cut if near == 0 else np.nextafter(cut, np.inf * near)
    return x, starts


def stepped_and_peeled(x, blocks, starts, tol) -> dict:
    """The R^infty iteration and the generated span of X from the unit
    vector of the first of ``starts`` (or e_0), each with the peel and the walk and
    with both refused (the stepped iterations), and what the peels and
    walks returned."""
    from pirep import powers as pw

    h = x.shape[0]
    rep = scalar_rep([np.zeros((h, h))] * blocks, tol)
    w = Subspace(nx._units(h, np.array(starts[:1] or [0], dtype=np.intp)))
    seen = {"peels": [], "walks": []}
    real_peel, real_walk = nx._RowSteps.peel, nx._RowSteps.walk
    with mock.patch.object(nx._RowSteps, "peel", lambda self, *a: seen["peels"].append(real_peel(self, *a)) or seen["peels"][-1]):
        with mock.patch.object(nx._RowSteps, "walk", lambda self, *a: seen["walks"].append(real_walk(self, *a)) or seen["walks"][-1]):
            seen["got"] = (pw.iterated_range(rep, x), wold.generated_invariant_subspace(rep, x, w))
    with mock.patch.object(nx._RowSteps, "peel", lambda self, *a: None):
        with mock.patch.object(nx._RowSteps, "walk", lambda self, *a: (np.zeros(0, dtype=np.intp), False)):
            seen["want"] = (pw.iterated_range(rep, x), wold.generated_invariant_subspace(rep, x, w))
    for got, want in zip(seen["got"], seen["want"]):
        assert got.frame.shape == want.frame.shape and got.frame.tobytes() == want.frame.tobytes()
    return seen


@st.composite
def iteration_draws(draw) -> tuple:
    h, blocks = draw(st.sampled_from([40, 64])), draw(st.sampled_from([1, 2]))
    core = draw(st.sampled_from([0, 2, 8, 12]))
    cycles = draw(st.lists(st.integers(1, 20), max_size=3))
    chains = draw(st.lists(st.integers(1, 30), min_size=1, max_size=3))
    while core + sum(cycles) + sum(chains) > h:
        (chains if len(chains) > 1 or not cycles else cycles).pop()
        chains = chains or [1]
    if draw(st.booleans()):  # the rows left over, as one more chain
        chains += [h - core - sum(cycles) - sum(chains)] if core + sum(cycles) + sum(chains) < h else []
    end = draw(st.sampled_from(["open", "open", "core", "cycle"]))
    kind = draw(st.sampled_from(["one", "weights", "phases"]))
    near = draw(st.sampled_from([None, None, None, -1, 0, 1]))
    tol = nx.Tolerance(rank_rel=draw(st.sampled_from([1e-10, 1 / 90])))
    return (h, blocks, core, cycles, chains, end, kind, draw(st.integers(0, 2**16)), near), tol


# (h, blocks, core, cycles, chains, end, kind, seed, near): one draw per
# outcome of the peel, past the gate of 16 rows at h = 64
PEELED = {
    "a chain to a fixed core and cycle": ((64, 1, 8, [8], [20, 10], "open", "weights", 1, None), True),
    "two blocks": ((64, 2, 8, [8, 3], [25, 10], "open", "phases", 2, None), True),
    "no core": ((64, 1, 0, [12, 5], [30], "open", "weights", 3, None), True),
    "a chain into the core": ((64, 1, 8, [8], [20, 10], "core", "weights", 4, None), False),
    "a chain into a cycle": ((64, 1, 0, [20], [10], "cycle", "weights", 5, None), False),
    "a modulus one ulp below the cut": ((64, 1, 0, [20, 4], [10], "open", "weights", 6, -1), False),
    "a modulus at the cut": ((64, 2, 8, [10], [10], "open", "one", 7, 0), False),
    "a modulus one ulp above the cut": ((64, 1, 0, [20, 4], [10], "open", "weights", 6, 1), True),
    "a fixed point one row below the gate": ((64, 1, 8, [7], [20, 10], "open", "weights", 8, None), False),
    "a fixed point at the gate": ((64, 2, 8, [8], [20, 10], "open", "weights", 8, None), True),
    "no fixed point": ((64, 1, 0, [], [40, 24], "open", "weights", 9, None), True),
}


@pytest.mark.parametrize("case", sorted(PEELED))
def test_the_peel_refuses_where_the_steps_would_differ(case, tol):
    # each kind of refusal (a dropped column with a core entry, an isolated
    # modulus not clearing the first step's cut, a fixed point below the
    # gate but not empty) and each acceptance, an empty fixed point among
    # them, against the stepped iteration byte for byte
    args, peeled = PEELED[case]
    x, starts = iteration_x(*args)
    seen = stepped_and_peeled(x, args[1], starts, tol)
    assert len(seen["peels"]) == 1 and (seen["peels"][0] is not None) == peeled
    if peeled:
        size = seen["peels"][0].size
        assert seen["got"][0].dim == size
        assert size == 0 if case == "no fixed point" else size >= -(-nx._DEFLATE_MIN_SIZE // 64)


@settings(max_examples=150, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(iteration_draws())
def test_the_peel_and_the_walk_are_the_stepped_iterations(draw):
    # random chains, cycles and unitary cores over one or two blocks, with
    # chains running into the core, moduli at the cut and fixed points on
    # either side of the gate: the frames are the stepped ones, byte for byte
    args, tol = draw
    x, starts = iteration_x(*args, tol=tol)
    stepped_and_peeled(x, args[1], starts, tol)


def unit_chain(h, values, tail=()) -> np.ndarray:
    """X e_j = values[j] e_(j+1) for the given values, and the (row,
    column, value) entries of ``tail``."""
    x = np.zeros((h, h), dtype=complex)
    for j, v in enumerate(values):
        x[j + 1, j] = v
    for r, c, v in tail:
        x[r, c] = v
    return x


WALKS = {
    # name: (X, tolerance, the walk's (rows added, ended))
    "a chain to a zero column": (unit_chain(40, [1.0] * 30), nx.DEFAULT_TOL, (list(range(1, 31)), True)),
    "a chain back into a held row": (unit_chain(40, [1.0] * 30, [(0, 30, 1.0)]), nx.DEFAULT_TOL, (list(range(1, 31)), True)),
    "a weight": (unit_chain(40, [1.0] * 10 + [0.5] + [1.0] * 5), nx.DEFAULT_TOL, (list(range(1, 11)), False)),
    "a signed zero": (unit_chain(40, [1.0] * 12 + [complex(1.0, -0.0)]), nx.DEFAULT_TOL, (list(range(1, 13)), False)),
    "two rows outside the held": (unit_chain(40, [1.0] * 7, [(20, 7, 1.0), (21, 7, 1.0)]), nx.DEFAULT_TOL, (list(range(1, 8)), False)),
    "the cut": (unit_chain(40, [1.0] * 30), nx.Tolerance(rank_rel=1 / 50.5), (list(range(1, 11)), False)),
}


@pytest.mark.parametrize("case", sorted(WALKS))
def test_the_walk_hands_back_each_residual_it_does_not_decide(case):
    # from W = e_0 on h = 40 (a 1,600-entry X): a unit column of value
    # exactly 1 whose stacked cut 1 clears is its own block; an exactly zero
    # residual ends the growth; any other residual goes to the residual
    # step, and the span is the stepped one byte for byte
    x, tol, walked = WALKS[case]
    seen = stepped_and_peeled(x, 1, [0], tol)
    assert (seen["walks"][0][0].tolist(), seen["walks"][0][1]) == walked


# ---------------------------------------------------------------------------
# the decomposition
# ---------------------------------------------------------------------------


def test_wold_unitary_trivial(tol):
    rng = rng_for(88)
    rep = scalar_rep([haar_unitary(rng, 4)], tol)
    out = wold.wold_decompose(rep)
    for side in (out.primal, out.dual):
        assert side.wandering.dim == 0
        assert side.generated.dim == 0
        assert side.residual.dim == 4
        assert side.direct_sum_residual <= 1e-10
    assert out.dual_gap <= 1e-10


def test_bi_regular_takes_one_pseudoinverse(tol, monkeypatch):
    # the pseudoinverse chain is extended one amplified factor per power,
    # so the lift is pseudo-inverted once, not once per power as well
    rng = rng_for(89)
    rep = scalar_rep(
        [haar_unitary(rng, 3) / np.sqrt(2), haar_unitary(rng, 3) / np.sqrt(2)], tol
    )
    calls = []
    real = nx.pseudoinverse

    def counting(m, tol=nx.DEFAULT_TOL):
        calls.append(np.shape(m))
        return real(m, tol)

    monkeypatch.setattr(nx, "pseudoinverse", counting)
    assert wold.is_bi_regular(rep)
    assert calls == [(3, 6)]


def pinv_chain_inclusions_by_dense_kernels(rep, n_max: int) -> bool:
    """wold._pinv_chain_inclusions with each amplification I (x) T^+ built
    (``to_dense``): its kernel from the whole matrix, and the chain
    extended by a dense product."""
    dagger = nx.pseudoinverse(rep.tilde, rep.tol)
    chain = dagger
    for n in range(1, n_max + 1):
        amp = rep.amplified(dagger, n, 0, 1).to_dense()
        if not nx.is_subset(Subspace.kernel(amp, rep.tol), Subspace.span(chain, rep.tol), rep.tol):
            return False
        chain = amp @ chain
    return True


def test_bi_regular_inclusions_match_the_dense_kernels(tol):
    # 50 regular fixtures (T^+ injective, so the kernels are zero) and 50
    # root instances (nilpotent rows and power-PI models, whose T^+ has a
    # kernel that the chain's range may or may not hold)
    rng = rng_for(90)
    reps = [hz.regular_fixture(rng, tol, want_pi=bool(index % 2)) for index in range(50)]
    reps += [hz._root_instance(rng, hz.TrialConfig(), tol) for _ in range(50)]
    verdicts = [wold._pinv_chain_inclusions(rep, 3) for rep in reps]
    assert verdicts == [pinv_chain_inclusions_by_dense_kernels(rep, 3) for rep in reps]
    assert all(verdicts[:50]) and True in verdicts[50:] and False in verdicts[50:]


def test_bi_regular_inclusions_factor_only_the_block(tol, monkeypatch):
    # on the n = 3 coisometric row over C^4 the kernels of I_(E^m) (x) T^+,
    # up to 324 x 108, come from the 12 x 4 block T^+, and a zero kernel
    # spans no chain: no SVD has more than N h = 12 rows
    rep = hz.coisometric_row_fixture(np.random.default_rng(0), tol, 3, 4)
    shapes, real = [], nx._svd
    monkeypatch.setattr(nx, "_svd", lambda m, *args, **kwargs: shapes.append(m.shape) or real(m, *args, **kwargs))
    assert wold._pinv_chain_inclusions(rep, 3)
    assert shapes and max(rows for rows, _ in shapes) <= 12


def test_wold_takes_the_generalized_range_once(tol, monkeypatch):
    # R^infty(tilde) decides regularity, bi-regularity's regularity and the
    # dual side's residual; the primal side's residual is R^infty(T')
    from pirep import powers

    rng = rng_for(89)
    rep = scalar_rep(
        [haar_unitary(rng, 3) / np.sqrt(2), haar_unitary(rng, 3) / np.sqrt(2)], tol
    )
    calls = []
    real = powers.iterated_range

    def counting(rep_, x=None):
        calls.append("tilde" if x is None or x is rep.tilde else "other")
        return real(rep_, x)

    monkeypatch.setattr(powers, "iterated_range", counting)
    monkeypatch.setattr(wold, "iterated_range", counting)
    out = wold.wold_decompose(rep)
    assert out.regular and out.bi_regular
    assert sorted(calls) == ["other", "tilde"]


def test_wold_strictly_regular_coisometric_row(tol):
    rng = rng_for(89)
    rep = scalar_rep(
        [haar_unitary(rng, 3) / np.sqrt(2), haar_unitary(rng, 3) / np.sqrt(2)], tol
    )
    out = wold.wold_decompose(rep)
    assert out.regular and out.bi_regular and out.is_partial_isometric
    assert out.primal.residual.dim == 3 and out.primal.generated.dim == 0


def test_wold_shift_plus_unitary_blocks(tol):
    # truncation of the standard two-part model: identities hold although
    # strict regularity fails in finite dimensions
    rng = rng_for(90)
    rep = shift_plus_unitary(rng, 3, 2, tol)
    with pytest.raises(NotApplicable):
        wold.wold_decompose(rep)
    out = wold.wold_decompose(rep, check_hypotheses=False)
    assert not out.regular and out.is_partial_isometric
    shift_block = Subspace(np.eye(5, 3).astype(complex))
    unitary_block = Subspace(np.vstack([np.zeros((3, 2)), np.eye(2)]).astype(complex))
    for side in (out.primal, out.dual):
        assert side.wandering.dim == 1
        assert nx.opnorm(side.generated.projector() - shift_block.projector()) <= 1e-8
        assert nx.opnorm(side.residual.projector() - unitary_block.projector()) <= 1e-8
        assert side.orthogonality_defect <= 1e-8
        assert side.direct_sum_residual <= 1e-8
    assert out.dual_gap <= 1e-8  # partial isometry: dual equals the lift


def test_wold_random_direct_sums(tol):
    rng = rng_for(91)
    for trial in range(25):
        q = int(rng.integers(2, 5))
        u_dim = int(rng.integers(1, 4))
        rep = shift_plus_unitary(rng, q, u_dim, tol)
        out = wold.wold_decompose(rep, check_hypotheses=False)
        for side in (out.primal, out.dual):
            assert side.orthogonality_defect <= 1e-8, trial
            assert side.direct_sum_residual <= 1e-8, trial
            assert side.generated.dim == q and side.residual.dim == u_dim, trial
        assert out.dual_gap <= 1e-8
        # primal and dual coincide subspace by subspace for partial isometries
        assert (
            nx.opnorm(out.primal.generated.projector() - out.dual.generated.projector()) <= 1e-8
        )
        assert (
            nx.opnorm(out.primal.residual.projector() - out.dual.residual.projector()) <= 1e-8
        )


def test_wold_block_algebra_surjective_pi(tol):
    # strict decomposition on a two-block coefficient algebra: scan seeds
    # for a partially isometric covariant lift with full range (regular)
    from pirep import harness as hz
    from pirep.correspondence import FdCStarAlgebra, diagonal_correspondence
    from pirep.covrep import CovariantRep

    alg = FdCStarAlgebra([1, 1])
    e = diagonal_correspondence(alg, left_tags=[0, 1], right_tags=[1, 0])
    sigma = StarRepresentation(alg, [2, 2])
    found = 0
    for index in range(40):
        rep = hz.random_pi_rep(e, sigma, hz.rng_stream(93, index), tol)
        if nx.range_frame(rep.tilde, tol).shape[1] < rep.h_dim:
            continue
        found += 1
        out = wold.wold_decompose(rep)
        assert out.regular and out.is_partial_isometric
        assert out.dual_gap <= 1e-8
        for side in (out.primal, out.dual):
            assert side.wandering.dim == 0
            assert side.residual.dim == rep.h_dim
            assert side.direct_sum_residual <= 1e-8
        if found >= 3:
            break
    assert found >= 1  # the seed scan must produce at least one instance


def test_wold_non_pi_regular_contraction_two_sided(tol):
    # invertible non-PI contraction: bi-regular, decomposition trivial on
    # both sides but through genuinely different operators (dual gap > 0)
    rng = rng_for(92)
    u, s, vh = np.linalg.svd(crandn(rng, 3, 3), full_matrices=False)
    v = u @ ((0.3 + 0.5 * s / s.max())[:, None] * vh)
    rep = scalar_rep([v], tol)
    out = wold.wold_decompose(rep)
    assert out.bi_regular and not out.is_partial_isometric
    assert out.dual_gap > 0.01
    for side in (out.primal, out.dual):
        assert side.wandering.dim == 0
        assert side.residual.dim == 3
        assert side.direct_sum_residual <= 1e-8
