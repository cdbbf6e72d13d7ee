import numpy as np
import pytest

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
    """Record, for one ``wold_decompose``: every scan of X (one per
    ``nx._RowSteps``), each ``step`` and ``residual`` as (stepper, rows in,
    rows out), each dense residual and product a stepper builds, and the
    ``_range_frame_cut_as`` calls and Subspaces made inside the two
    subspace iterations, with how many iterations ran."""
    from pirep import powers as pw

    seen = {name: [] for name in ("scans", "steps", "residuals", "dense", "cuts", "built", "iterations")}
    inside = []

    def record(owner, name, key):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            out = real(*args, **kwargs)
            seen[key].append((args[0], args[1], out) if key in ("steps", "residuals") else args[0])
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

    record(nx._RowSteps, "__init__", "scans")
    record(nx._RowSteps, "step", "steps")
    record(nx._RowSteps, "residual", "residuals")
    record(nx._RowSteps, "product", "dense")
    record(nx._RowSteps, "residual_product", "dense")
    real_cut, real_post = nx._range_frame_cut_as, nx.Subspace.__post_init__
    monkeypatch.setattr(nx, "_range_frame_cut_as", lambda a, *args: (seen["cuts"].append(a.shape) if inside else None) or real_cut(a, *args))
    monkeypatch.setattr(nx.Subspace, "__post_init__", lambda self: (seen["built"].append(self) if inside else None) or real_post(self))
    for module in (pw, wold):
        iteration(module, "iterated_range")
    iteration(wold, "generated_invariant_subspace")
    return seen


def test_wold_factors_only_the_unitary_core_and_thin_residuals(tol, monkeypatch):
    # on the q = 60, u = 20 shift (+) unitary every shift direction is an
    # isolated entry of its frame, so LAPACK sees only the 20 x 20 unitary
    # core.  Each of the four subspace iterations (R^infty and the generated
    # span, of tilde and of its Cauchy dual) scans its X once and steps
    # rows; each R^infty iteration takes the singular values of the core,
    # the same at every step, once; each generated step reads one unit
    # column of X, which is its own frame, and no residual is factored
    from pirep import harness as hz

    rep = hz.shift_plus_unitary_fixture(rng_for(98), tol, q=60, u_dim=20)
    calls, real_svd = [], nx._svd
    monkeypatch.setattr(nx, "_svd", lambda m, full, compute_uv=True: calls.append((m.shape, compute_uv)) or real_svd(m, full, compute_uv))
    seen = spy_iterations(monkeypatch)
    out = wold.wold_decompose(rep, check_hypotheses=False)
    assert all(max(shape) <= 20 for shape, _ in calls), sorted(set(calls))
    assert sorted(seen["iterations"]) == ["generated_invariant_subspace"] * 2 + ["iterated_range"] * 2
    assert len(seen["scans"]) == 4 and not seen["dense"] and not seen["cuts"]
    # two R^infty iterations of 61 steps, each on its own scan with one
    # values-only SVD of the core, every frame a set of unit-vector rows
    steppers = {id(stepper) for stepper, _, _ in seen["steps"]}
    assert len(steppers) == 2 and len(seen["steps"]) == 2 * 61
    assert all(rows is not None and 80 * rows.size >= nx._DEFLATE_MIN_SIZE for _, _, rows in seen["steps"])
    for stepper in seen["scans"]:
        assert [s.shape for s in stepper.values.values()] == ([(20,)] if id(stepper) in steppers else [])
    # only the Cauchy dual's pseudoinverse and the kernel N(tilde) that
    # regularity reads factor the core with vectors
    assert calls.count(((20, 20), True)) == 2 and len(calls) == 6
    # per side, 59 residuals grow the span from the wandering line to 60
    # dimensions, one row each, and one more, exactly zero, stops it
    sizes = [rows.size for _, _, rows in seen["residuals"]]
    assert len(sizes) == 2 * 60 and sizes.count(1) == 2 * 59 and sizes.count(0) == 2
    # one Subspace per iteration, at its end
    assert len(seen["built"]) == 4 and all(type(s._frame) is nx._Monomial for s in seen["built"])
    for side in (out.primal, out.dual):
        assert (side.generated.dim, side.residual.dim) == (60, 20)
        assert side.orthogonality_defect <= 1e-12 and side.direct_sum_residual <= 1e-12


def test_wold_scales_to_q_400_with_one_scan_per_iteration(tol, monkeypatch):
    # the q = 400, u = 20 shift (+) unitary: each of the four iterations
    # scans its X (420 x 420) once, no step on unit vectors builds a
    # Subspace or calls _range_frame_cut_as, and the held span reads X's
    # nonzeros with no dense h-row gather; one Subspace per iteration
    from pirep import harness as hz

    rep = hz.shift_plus_unitary_fixture(rng_for(98), tol, q=400, u_dim=20)
    seen = spy_iterations(monkeypatch)
    out = wold.wold_decompose(rep, check_hypotheses=False)
    assert len(seen["iterations"]) == 4 and len(seen["scans"]) == 4
    assert not seen["cuts"] and not seen["dense"] and len(seen["built"]) == 4
    assert len(seen["steps"]) == 2 * 401 and len(seen["residuals"]) == 2 * 400
    for side in (out.primal, out.dual):
        assert (side.generated.dim, side.residual.dim) == (400, 20)
        assert side.orthogonality_defect == 0.0 and side.direct_sum_residual == 0.0


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
