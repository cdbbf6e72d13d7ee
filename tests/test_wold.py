import numpy as np
import pytest

from pirep import numerics as nx
from pirep import wold
from pirep.correspondence import SCALARS, StarRepresentation, scalar_correspondence
from pirep.covrep import CovariantRep
from pirep.errors import NotApplicable
from pirep.numerics import Subspace

from conftest import crandn, rng_for


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
    np.testing.assert_allclose(lhs, nx.range_projector(nx.herm(rep.tilde), tol), atol=1e-9)


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
    assert wold.is_bi_regular(rep, n_max=3)
    dagger = nx.pseudoinverse(rep.tilde, tol)
    assert nx.kernel_frame(dagger, tol).shape[1] == 0


def test_adjoint_regularity_for_regular_reps(tol):
    rng = rng_for(85)
    reps = [
        scalar_rep([haar_unitary(rng, 3)], tol),
        scalar_rep([haar_unitary(rng, 2) / np.sqrt(2), haar_unitary(rng, 2) / np.sqrt(2)], tol),
    ]
    for rep in reps:
        assert wold.adjoint_regularity_check(rep, n_max=3)


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
    got = wold.generated_invariant_subspace(rep, rep.tilde, seed, bound=5)
    assert got.dim == 5


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
    assert wold.is_bi_regular(rep, n_max=3)
    assert calls == [(3, 6)]


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
