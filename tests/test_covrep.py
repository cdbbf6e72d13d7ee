from collections import Counter
from unittest import mock

import numpy as np
import pytest

from pirep import correspondence, covrep
from pirep import harness as hz
from pirep import numerics as nx
from pirep.correspondence import (
    SCALARS,
    FdCorrespondence,
    FdCStarAlgebra,
    StarRepresentation,
    diagonal_correspondence,
    scalar_correspondence,
)
from pirep.covrep import CovariantRep, rep_from_tilde
from pirep.shifts import WeightedShiftSpec, build_shift
from pirep.errors import DomainError, IntertwinerError, InvalidRepresentation, ResourceLimit

from conftest import (
    assert_verdicts_match_classify,
    count_sigma_work,
    crandn,
    dense_amplified,
    dense_budget,
    dense_tilde_power,
    empty_correspondence,
    planted_zero_lines,
    rng_for,
    subspace_iteration_reps,
)


def scalar_rep(v_list, tol, d=None):
    """Representation of E = C^n over the scalar algebra from n matrices."""
    n = len(v_list)
    d = v_list[0].shape[0] if d is None else d
    sigma = StarRepresentation(SCALARS, [d])
    return CovariantRep(scalar_correspondence(n), sigma, v_list, tol)


def haar_unitary(rng, d):
    q, r = np.linalg.qr(crandn(rng, d, d))
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# the lift
# ---------------------------------------------------------------------------


def test_tilde_is_row_block_for_scalar_algebra(tol):
    rng = rng_for(1)
    v1, v2 = crandn(rng, 3, 3), crandn(rng, 3, 3)
    rep = scalar_rep([v1, v2], tol)
    np.testing.assert_allclose(rep.tilde, np.hstack([v1, v2]), atol=1e-14)


def test_tilde_of_zero_rep(tol):
    rep = scalar_rep([np.zeros((2, 2)), np.zeros((2, 2))], tol)
    np.testing.assert_allclose(rep.tilde, np.zeros((2, 4)))


def test_round_trip_tilde_exact(tol):
    rng = rng_for(2)
    tilde = crandn(rng, 3, 6)
    sigma = StarRepresentation(SCALARS, [3])
    rep = rep_from_tilde(scalar_correspondence(2), sigma, tilde, tol)
    np.testing.assert_array_equal(rep.tilde, tilde)  # exact in identity coordinates


def test_block_algebra_rep_roundtrip_and_covariance(tol):
    alg = FdCStarAlgebra([1, 1])
    e = diagonal_correspondence(alg, left_tags=[0, 1], right_tags=[0, 1])
    sigma = StarRepresentation(alg, [2, 1])
    rng = rng_for(3)
    # intertwiner space: build by linear solve, then round-trip
    from pirep.correspondence import interior_tensor

    space = interior_tensor(e, sigma, tol)
    rows = []
    for u in alg.basis():
        rows.append(
            np.kron(space.induced_action(u).T, np.eye(sigma.h_dim))
            - np.kron(np.eye(space.dim), sigma.apply(u))
        )
    kernel = nx.kernel_frame(np.vstack(rows), tol)
    x = (kernel @ crandn(rng, kernel.shape[1])).reshape(space.dim, sigma.h_dim).T.copy()
    rep = rep_from_tilde(e, sigma, x, tol)
    assert rep.intertwining_residual() <= 1e-10
    np.testing.assert_allclose(rep.tilde, x, atol=1e-12)


def test_covariance_violation_rejected(tol):
    alg = FdCStarAlgebra([1, 1])
    e = diagonal_correspondence(alg, left_tags=[0, 1], right_tags=[0, 1])
    sigma = StarRepresentation(alg, [1, 1])
    rng = rng_for(4)
    with pytest.raises(InvalidRepresentation):
        CovariantRep(e, sigma, [crandn(rng, 2, 2), crandn(rng, 2, 2)], tol)


# ---------------------------------------------------------------------------
# tensor powers
# ---------------------------------------------------------------------------


def test_tilde_power_one_is_tilde(tol):
    rng = rng_for(5)
    rep = scalar_rep([crandn(rng, 2, 2)], tol)
    np.testing.assert_array_equal(rep.tilde_power(1), rep.tilde)


def test_tilde_power_nilpotent_square_vanishes(tol):
    v = np.array([[0.0, 1.0], [0.0, 0.0]])
    rep = scalar_rep([v], tol)
    np.testing.assert_allclose(rep.tilde_power(2), np.zeros((2, 2)), atol=1e-14)


def test_tilde_power_matches_defining_formula(tol):
    # oracle: tilde_m(simple tensor) = V(xi_1)...V(xi_m) h on random tensors
    rng = rng_for(13)
    vs = [crandn(rng, 3, 3) for _ in range(2)]
    rep = scalar_rep(vs, tol)
    for m in (2, 3):
        tm = rep.tilde_power(m)
        for _ in range(20):
            xis = [crandn(rng, 2) for _ in range(m)]
            h = crandn(rng, 3)
            formal = xis[0]
            for xi in xis[1:]:
                formal = np.kron(formal, xi)
            coords = np.kron(formal, h)
            direct = h
            for xi in reversed(xis):
                direct = (xi[0] * vs[0] + xi[1] * vs[1]) @ direct
            np.testing.assert_allclose(tm @ coords, direct, atol=1e-10)


def test_tilde_power_coisometric_row(tol):
    # a d x 2d lift cannot be isometric, but the coisometric row
    # V_i = U_i / sqrt(2) satisfies tilde_m tilde_m* = I for every m
    rng = rng_for(13)
    d = 3
    v1, v2 = haar_unitary(rng, d) / np.sqrt(2), haar_unitary(rng, d) / np.sqrt(2)
    rep = scalar_rep([v1, v2], tol)
    t2 = rep.tilde_power(2)
    assert nx.opnorm(t2 @ t2.conj().T - np.eye(d)) <= 1e-10


def test_semigroup_law(tol):
    rng = rng_for(17)
    vs = [crandn(rng, 2, 2) / 2 for _ in range(2)]
    rep = scalar_rep(vs, tol)
    for m, k in [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1)]:
        lhs = rep.tilde_power(m + k)
        amp = rep.amplified(rep.tilde_power(k), m, k, 0).to_dense()
        rhs = rep.tilde_power(m) @ amp
        assert nx.opnorm(lhs - rhs) <= 1e-10, (m, k)


# ---------------------------------------------------------------------------
# amplifications as operators
# ---------------------------------------------------------------------------


def amplification_reps(tol) -> list:
    """(label, rep): identity coordinates (scalar), and quotient coordinates
    over the two-block algebra and over a generic complex Gram."""
    rng = rng_for(161)
    scalar = rep_from_tilde(scalar_correspondence(2), StarRepresentation(SCALARS, [3]), crandn(rng, 3, 6) / 3, tol)
    config = hz.TrialConfig(algebra_shape="two_block", module_dim_range=(2, 2))
    corr, sigma = hz.draw_setting(hz.rng_stream(162, 1), config)
    two_block = hz.random_contractive_rep(corr, sigma, rng, tol)
    g = crandn(rng, 2, 2)
    gram = (g @ nx.herm(g) + 0.5 * np.eye(2)).reshape(2, 2, 1, 1)
    act = np.eye(2, dtype=np.complex128).reshape(1, 2, 2)
    corr = FdCorrespondence(SCALARS, gram, act, act.copy())
    generic = hz.random_contractive_rep(corr, StarRepresentation(SCALARS, [2]), rng, tol)
    return [("scalar", scalar), ("two_block", two_block), ("complex_gram", generic)]


def _norm_or_one(a) -> float:
    return 1.0 if a is None else nx.opnorm(a)


def application_bound(amp, other) -> float:
    """Rounding bound on left (I (x) block) right applied to ``other``,
    against the same product with the dense matrix: each of the at most
    four products on either side is off by at most its inner dimension
    times 2**-53 times the norms of its factors."""
    inner = sum(amp.shape) + amp.n * sum(amp.block.shape)
    norms = _norm_or_one(amp.left) * nx.opnorm(amp.block) * _norm_or_one(amp.right)
    return 4 * inner * 2.0**-53 * norms * nx.opnorm(other)


def blocks_times(dense, n, f):
    """I_n (x) X times F, one product per diagonal block of the dense matrix."""
    p, q = dense.shape[0] // n, dense.shape[1] // n
    return np.vstack([dense[j * p : (j + 1) * p, j * q : (j + 1) * q] @ f[j * q : (j + 1) * q] for j in range(n)])


def times_blocks(g, dense, n):
    """G times I_n (x) X, one product per diagonal block of the dense matrix."""
    p, q = dense.shape[0] // n, dense.shape[1] // n
    return np.hstack([g[:, j * p : (j + 1) * p] @ dense[j * p : (j + 1) * p, j * q : (j + 1) * q] for j in range(n)])


@pytest.mark.parametrize("label", ["scalar", "two_block", "complex_gram"])
def test_amplification_operator_matches_the_dense_matrix(label, tol):
    # identity coordinates (scalar) bit for bit against the dense matrix's
    # blocks; quotient coordinates within application_bound of the dense
    # products, for m = 0..3 and X going down (E (x) H -> H, E^2 (x) H -> H),
    # up (H -> E (x) H) and across (H -> H)
    rep = dict(amplification_reps(tol))[label]
    assert (rep.space(1).embed is None) == (label == "scalar")
    rng = rng_for(163)
    t = rep.tilde
    cases = [(t, 1, 0), (rep.tilde_power(2), 2, 0), (nx.herm(t), 0, 1), (t @ nx.herm(t), 0, 0)]
    for m in range(4):
        for x, dom_power, cod_power in cases:
            amp = rep.amplified(x, m, dom_power, cod_power)
            dense = dense_amplified(rep, x, m, dom_power, cod_power)
            key = (m, dom_power, cod_power)
            assert amp.shape == dense.shape, key
            assert np.array_equal(amp.to_dense(), dense), key
            f = crandn(rng, dense.shape[1], 3)
            g = crandn(rng, 4, dense.shape[0])
            pairs = [
                (amp @ f, dense @ f, blocks_times(dense, amp.n, f), application_bound(amp, f)),
                (g @ amp, g @ dense, times_blocks(g, dense, amp.n), application_bound(amp, g)),
            ]
            for got, want, blockwise, bound in pairs:
                assert nx.opnorm(got - want) <= bound, key
                if label == "scalar":
                    assert np.array_equal(got, blockwise), key


@pytest.mark.parametrize("label", ["scalar", "two_block", "complex_gram"])
def test_amplified_kernel_is_the_kernel_of_the_dense_matrix(label, tol):
    # in identity coordinates (scalar) the kernel is I_n (x) F from the
    # block, factored with no SVD past the block's size; with coordinates
    # the matrix is built; either way it is the subspace to_dense()'s
    # kernel gives, for m = 0..3 and X going down, up and across
    rep = dict(amplification_reps(tol))[label]
    t = rep.tilde
    cases = [(t, 1, 0), (rep.tilde_power(2), 2, 0), (nx.herm(t), 0, 1), (t @ nx.herm(t), 0, 0)]
    dims = []
    for m in range(4):
        for x, dom_power, cod_power in cases:
            amp = rep.amplified(x, m, dom_power, cod_power)
            want = nx.Subspace.kernel(amp.to_dense(), tol)
            with mock.patch.object(nx, "_svd", side_effect=nx._svd) as svd:
                got = nx.Subspace.kernel(amp, tol)
            if label == "scalar":
                assert all(call.args[0].size <= amp.block.size for call in svd.call_args_list), (m, dom_power)
            assert got.dim == want.dim and nx.is_subset(got, want, tol) and nx.is_subset(want, got, tol), (m, dom_power)
            dims.append(got.dim)
    assert max(dims) > 0


def test_amplification_applied_from_the_right_skips_zero_columns(tol):
    # the exactly-zero columns of M contribute exact zeros to M @ A, and
    # the stacked product over all columns stays within the dense bound
    rep = dict(amplification_reps(tol))["scalar"]
    amp = rep.amplified(rep.tilde, 3, 1, 0)  # 8 blocks of 3 x 6
    g = planted_zero_lines(rng_for(164), (200, amp.shape[0]), (150, 10), np.ones(10))
    assert nx._live_lines(g)[1] is not None
    dense = dense_amplified(rep, rep.tilde, 3, 1, 0)
    assert nx.opnorm(g @ amp - g @ dense) <= application_bound(amp, g)


def test_amplification_with_a_dense_block_scans_no_live_columns(tol, monkeypatch):
    # with a dense block M @ A is the stacked product, and M is not
    # scanned for its live columns
    rep = dict(amplification_reps(tol))["scalar"]
    amp = rep.amplified(rep.tilde, 3, 1, 0)
    g = planted_zero_lines(rng_for(165), (200, amp.shape[0]), (150, 10), np.ones(10))
    want = dense_amplified(rep, rep.tilde, 3, 1, 0)
    calls, real = [], nx._live_lines
    monkeypatch.setattr(nx, "_live_lines", lambda *args: calls.append(1) or real(*args))
    got = g @ amp
    assert calls == []
    assert nx.opnorm(got - g @ want) <= application_bound(amp, g)


def test_amplification_applications_check_their_bytes(monkeypatch, tol):
    # an application is refused from shapes before it allocates; the dense
    # matrix keeps its own check
    rep = dict(amplification_reps(tol))["two_block"]
    amp = rep.amplified(rep.tilde, 2, 1, 0)
    per_vector = 16 * amp.n * max(amp.block.shape)
    rows, cols = amp.shape
    dense_budget(monkeypatch, 5 * per_vector, nx)
    assert (amp @ np.ones((cols, 5))).shape == (rows, 5)
    assert (np.ones((5, rows)) @ amp).shape == (5, cols)
    with pytest.raises(ResourceLimit, match=f"an amplification applied to 6 vectors needs {6 * per_vector} bytes"):
        amp @ np.ones((cols, 6))
    with pytest.raises(ResourceLimit, match=f"an amplification applied to 6 vectors needs {6 * per_vector} bytes"):
        np.ones((6, rows)) @ amp
    with pytest.raises(ResourceLimit, match="an amplification needs"):
        amp.to_dense()


def test_tilde_power_block_algebra_defining_formula(tol):
    # exercises the general (quotient-coordinate) composition path
    alg = FdCStarAlgebra([1, 1])
    e = diagonal_correspondence(alg, left_tags=[0, 1], right_tags=[1, 0])
    sigma = StarRepresentation(alg, [2, 2])
    from pirep.correspondence import interior_tensor, tensor_power

    space = interior_tensor(e, sigma, tol)
    rng = rng_for(14)
    rows = []
    for u in alg.basis():
        rows.append(
            np.kron(space.induced_action(u).T, np.eye(sigma.h_dim))
            - np.kron(np.eye(space.dim), sigma.apply(u))
        )
    kernel = nx.kernel_frame(np.vstack(rows), tol)
    tilde = (kernel @ crandn(rng, kernel.shape[1])).reshape(space.dim, sigma.h_dim).T.copy()
    rep = rep_from_tilde(e, sigma, tilde, tol)
    t2 = rep.tilde_power(2)
    space2 = interior_tensor(tensor_power(e, 2), sigma, tol)
    n, d = e.module_dim, sigma.h_dim
    for a in range(n):
        for b in range(n):
            for j in range(d):
                xi = np.zeros(n); xi[a] = 1.0
                eta = np.zeros(n); eta[b] = 1.0
                h = np.zeros(d); h[j] = 1.0
                lhs = t2 @ space2.coords_of_simple(np.kron(xi, eta), h)
                rhs = rep.v_on_basis[a] @ rep.v_on_basis[b] @ h
                np.testing.assert_allclose(lhs, rhs, atol=1e-10)
    # semigroup law through the general amplification path
    amp = rep.amplified(rep.tilde, 1, 1, 0).to_dense()
    np.testing.assert_allclose(t2, rep.tilde @ amp, atol=1e-10)


def test_tensor_cap_enforced(tol, monkeypatch):
    # the byte budget that replaced the tensor cap refuses a lift power
    rng = rng_for(18)
    vs = [crandn(rng, 4, 4) for _ in range(2)]
    rep = CovariantRep(scalar_correspondence(2), StarRepresentation(SCALARS, [4]), vs, tol)
    monkeypatch.setattr(nx, "DENSE_BYTES", 1024)
    with pytest.raises(ResourceLimit):
        rep.tilde_power(3)


def test_tensor_cap_checked_from_shapes(tol, monkeypatch):
    # T_m is 4 x 2^m * 4: T_2 takes 1024 bytes, T_3 2048, and the Gram of
    # E^(x 3) only 1024, so the budget sits between the two lift powers
    rng = rng_for(18)
    vs = [crandn(rng, 4, 4) for _ in range(2)]
    rep = CovariantRep(scalar_correspondence(2), StarRepresentation(SCALARS, [4]), vs, tol)
    dense_budget(monkeypatch, 1024, covrep, correspondence, nx)
    assert rep.tilde_power(2).shape == (4, 16)
    with pytest.raises(ResourceLimit, match="the lift power T_3 needs 2048 bytes, over the budget 1024"):
        rep.tilde_power(3)
    assert rep.space(3).dim == 32


# ---------------------------------------------------------------------------
# pseudoinverse chains
# ---------------------------------------------------------------------------


def test_pinv_chain_one_is_pinv(tol):
    rng = rng_for(19)
    rep = scalar_rep([crandn(rng, 3, 3) for _ in range(2)], tol)
    np.testing.assert_allclose(
        rep.pinv_chain(1), nx.pseudoinverse(rep.tilde, tol), atol=1e-12
    )


def test_pinv_chain_unitary_case(tol):
    rng = rng_for(20)
    u = haar_unitary(rng, 3)
    rep = scalar_rep([u], tol)
    for m in (1, 2, 3):
        np.testing.assert_allclose(
            rep.pinv_chain(m), rep.tilde_power(m).conj().T, atol=1e-12
        )


def test_pinv_chain_block_algebra_adjoint_identity(tol):
    # for any partially isometric lift (any algebra), the pseudoinverse
    # chain is the adjoint of the corresponding power: both sides unwind to
    # the same amplified-adjoint composition
    alg = FdCStarAlgebra([1, 1])
    e = diagonal_correspondence(alg, left_tags=[0, 1], right_tags=[0, 1])
    sigma = StarRepresentation(alg, [2, 2])
    from pirep.correspondence import interior_tensor
    from pirep import harness as hz

    rep = hz.random_pi_rep(e, sigma, hz.rng_stream(29, 0), tol)
    assert rep.classify().is_partial_isometric
    for m in (1, 2, 3):
        np.testing.assert_allclose(
            rep.pinv_chain(m), rep.tilde_power(m).conj().T, atol=1e-10
        )


def test_pinv_chain_partial_isometric_equals_adjoint_when_power_pi(tol):
    # truncated shift: every power is a partial isometry
    v = np.diag([1.0] * 3, -1)  # shift on C^4
    rep = scalar_rep([v], tol)
    t2 = rep.tilde_power(2)
    assert nx.is_partial_isometry(t2, tol)
    np.testing.assert_allclose(rep.pinv_chain(2), nx.pseudoinverse(t2, tol), atol=1e-12)
    np.testing.assert_allclose(rep.pinv_chain(2), t2.conj().T, atol=1e-12)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classify_isometric(tol):
    rng = rng_for(21)
    rep = scalar_rep([haar_unitary(rng, 3)], tol)
    report = rep.classify()
    assert report.is_partial_isometric and report.is_isometric and report.is_contractive
    assert report.consistent


def test_classify_scaled_isometry(tol):
    rng = rng_for(22)
    rep = scalar_rep([0.5 * haar_unitary(rng, 3)], tol)
    report = rep.classify()
    assert report.is_contractive
    assert not report.is_partial_isometric and not report.is_isometric


def test_classify_row_partial_isometry(tol):
    # tilde = (1/sqrt 2)[1 1] has the single singular value 1
    rep = scalar_rep(
        [np.array([[1.0 / np.sqrt(2.0)]]), np.array([[1.0 / np.sqrt(2.0)]])], tol
    )
    assert np.allclose(np.linalg.svd(rep.tilde, compute_uv=False), [1.0])
    assert rep.classify().is_partial_isometric


def test_classify_pinv_chain_adjoint_link(tol):
    rng = rng_for(23)
    u, s, vh = np.linalg.svd(crandn(rng, 3, 6), full_matrices=False)
    tilde = u @ (np.round(s / s.max())[:, None] * vh)
    rep = rep_from_tilde(scalar_correspondence(2), StarRepresentation(SCALARS, [3]), tilde, tol)
    if rep.classify().is_partial_isometric:
        assert nx.opnorm(rep.pinv_chain(1) - rep.tilde.conj().T) <= tol.eq_rel


def test_verdicts_match_classify_around_the_zero_cutoff(tol):
    # a lift of norm <= rank_rel counts as the zero operator, which is a
    # partial isometry; just above the cutoff a generic lift is not one
    base = crandn(rng_for(25), 3, 6)
    base = base / np.linalg.norm(base, 2)
    sigma = StarRepresentation(SCALARS, [3])
    for factor, expected in ((0.0, True), (0.5, True), (0.999, True), (1.001, False), (2.0, False)):
        tilde = factor * tol.rank_rel * base
        rep = rep_from_tilde(scalar_correspondence(2), sigma, tilde, tol)
        assert rep.is_partial_isometric() == expected, factor
        assert_verdicts_match_classify(rep)


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------


def test_subspaces_at_power_zero(tol):
    # tilde_0 = I_H: trivial kernel, cokernel and range all of H
    rng = rng_for(26)
    rep = scalar_rep([crandn(rng, 3, 3), crandn(rng, 3, 3)], tol)
    kernel = rep.kernel_subspace(0)
    assert kernel.dim == 0 and kernel.ambient_dim == 3
    for sub in (rep.cokernel_subspace(0), rep.range_subspace(0)):
        np.testing.assert_array_equal(sub.projector(), np.eye(3))
    # m = 1: kernel and cokernel split E (x) H, the range is all of H
    assert rep.kernel_subspace(1).dim + rep.cokernel_subspace(1).dim == rep.space(1).dim
    assert rep.range_subspace(1).dim == 3


def test_memoized_arrays_are_read_only(tol):
    # the chain caches T_m and the cokernels, so a caller cannot write into them
    rep = rep_from_tilde(scalar_correspondence(2), StarRepresentation(SCALARS, [3]), crandn(rng_for(27), 3, 6) / 3, tol)
    for array in (rep.tilde, rep.tilde_power(2), rep.cokernel_subspace(1).frame):
        with pytest.raises(ValueError):
            array[0, 0] = 1.0
    assert rep.cokernel_subspace(1) is rep.cokernel_subspace(1)


def test_each_space_is_folded_once(tol, monkeypatch):
    # the chain memoizes the space of each segment (start, stop), so a power
    # report folds FdCorrespondence.tensor over a segment at most once
    # however often it reads that space
    from pirep.powers import power_report

    rep = build_shift(WeightedShiftSpec(n=2, trunc=6), tol)
    for m in range(4):
        assert rep.space(m) is rep.space(m)
    segments, folds = set(), []
    real_space, real_tensor = covrep.LiftChain._space, FdCorrespondence.tensor
    monkeypatch.setattr(covrep.LiftChain, "_space", lambda self, a, b: segments.add((a, b)) or real_space(self, a, b))
    monkeypatch.setattr(FdCorrespondence, "tensor", lambda e, f: folds.append((e, f)) or real_tensor(e, f))
    power_report(rep, 4)
    assert max(b for _, b in segments) == 4
    assert 0 < len(folds) <= sum(max(b - a - 1, 0) for a, b in segments)


def test_a_rep_keeps_no_array_of_its_caller(tol):
    # V is read from the matrix the lift is built from: writing into the
    # arrays passed in changes neither V nor its JSON nor the lift
    from pirep.serialize import rep_to_json

    rng = rng_for(28)
    for corr, sigma in (
        (scalar_correspondence(2), StarRepresentation(SCALARS, [2])),
        (diagonal_correspondence(hz.TWO_BLOCK, [0, 1], [1, 0]), StarRepresentation(hz.TWO_BLOCK, [1, 1])),
    ):
        x = hz.random_covariant_matrix(corr, sigma, rng, tol)
        vs = [v.copy() for v in rep_from_tilde(corr, sigma, x, tol).v_on_basis]
        rep = CovariantRep(corr, sigma, vs, tol)
        before, tilde = rep_to_json(rep), rep.tilde.copy()
        for v in vs:
            v[0, 0] = 5.0
        assert rep_to_json(rep) == before
        np.testing.assert_array_equal(rep.tilde, tilde)
        for v in rep.v_on_basis:
            assert v[0, 0] != 5.0
            with pytest.raises(ValueError):
                v[0, 0] = 5.0


def test_empty_module_rep_builds_without_sigma(monkeypatch, tol):
    # covariance and intertwining hold vacuously on a zero module: no
    # 500 x 500 sigma(a) is built
    alg = FdCStarAlgebra([1, 1])
    e = empty_correspondence(alg)
    counts = count_sigma_work(monkeypatch)
    rep = CovariantRep(e, StarRepresentation(alg, [500, 0]), [], tol)
    assert rep.tilde.shape == (500, 0)
    assert counts == {"basis": 0, "apply": 0, "apply_calls": 0}


def test_building_a_rep_applies_sigma_once_per_basis_element(monkeypatch, tol):
    alg = FdCStarAlgebra([1, 1])
    e = diagonal_correspondence(alg, left_tags=[0], right_tags=[0])
    sigma = StarRepresentation(alg, [3, 0])
    v = [crandn(rng_for(6), 3, 3)]
    CovariantRep(e, sigma, v, tol)  # memoizes E (x)_sigma H
    counts = count_sigma_work(monkeypatch)
    CovariantRep(e, sigma, v, tol)
    # sigma(u) once per matrix unit, serving as sigma(a) and sigma(c) in the
    # covariance check and as sigma(u) in the intertwining check
    assert counts["apply"] == alg.dim


def test_a_rep_on_a_zero_h_builds(tol):
    # every V(xi_b) is 0 x 0: covariance and intertwining hold vacuously
    alg = FdCStarAlgebra([1, 1])
    e = diagonal_correspondence(alg, left_tags=[0, 1], right_tags=[1, 0])
    rep = CovariantRep(e, StarRepresentation(alg, [0, 0]), [np.zeros((0, 0))] * 2, tol)
    assert rep.tilde.shape == (0, 0) and rep.intertwining_residual() == 0.0


def test_a_battery_decides_each_factor_lift_once_and_every_other_x(monkeypatch):
    # every intertwining decision goes through correspondence.intertwines;
    # a representation's lift is decided when it is built and amplified
    # without a second decision, and every other amplified X is decided
    decisions = []  # (x, dom, cod) per decision, kept alive so ids stay unique
    real_intertwines = correspondence.intertwines

    def intertwines(x, dom, cod, tol):
        decisions.append((x, dom, cod))
        return real_intertwines(x, dom, cod, tol)

    amplified = []  # (x, decisions made) per amplify call
    real_amplify = correspondence.amplify

    def amplify(x, *args):
        before = len(decisions)
        try:
            return real_amplify(x, *args)
        finally:
            amplified.append((x, len(decisions) - before))

    unchecked = []  # x of every amplification built without a decision
    real_amplification = correspondence.amplification

    def amplification(x, *args):
        unchecked.append(x)
        return real_amplification(x, *args)

    reps = []  # every representation built
    real_init = CovariantRep.__init__

    def init(self, *args):
        real_init(self, *args)
        reps.append(self)

    for module in (correspondence, covrep):
        monkeypatch.setattr(module, "intertwines", intertwines)
    monkeypatch.setattr(covrep, "amplify", amplify)
    monkeypatch.setattr(covrep, "amplification", amplification)
    monkeypatch.setattr(CovariantRep, "__init__", init)
    for i, claim in enumerate(hz.theorem_ids()):
        hz.verify(claim, hz.TrialConfig(master_seed=42000 + i, trials=4, algebra_shape="two_block"), nx.DEFAULT_TOL)
    per_key = Counter((id(x), id(dom), id(cod)) for x, dom, cod in decisions)
    lifts = Counter(id(rep.tilde) for rep in reps)
    # on a zero module or the scalar algebra every lift intertwines and
    # construction decides nothing; every other lift is decided there
    gapped = [rep for rep in reps if rep.corr.module_dim and not rep.corr.algebra.is_scalar]
    assert len(reps) > 50 and len(gapped) > 40 and unchecked and amplified
    # each lift: at most one decision, at construction, on its own space(1) and H
    assert Counter(key[0] for key in per_key if key[0] in lifts) == Counter(id(rep.tilde) for rep in gapped)
    assert all(per_key[(id(rep.tilde), id(rep.space(1)), id(rep.space(0)))] == 1 for rep in gapped)
    # only lifts skip the check (as the array or as the lift's index form),
    # and every checked X is decided once
    assert {id(x) for x in unchecked} <= set(lifts) | {id(rep._lift) for rep in reps}
    assert all(made == 1 for _, made in amplified)
    assert not {id(x) for x, _ in amplified} & set(lifts)


def test_amplified_decides_every_x_but_the_factor_lift(tol):
    # the skip covers the factor's own lift only: a generic X going down
    # (E (x) H -> H) or across (H -> H) is still refused
    rep = dict(amplification_reps(tol))["two_block"]
    rng = rng_for(166)
    h, e_h = rep.h_dim, rep.space(1).dim
    for x, dom_power in ((crandn(rng, h, e_h), 1), (crandn(rng, h, h), 0)):
        with pytest.raises(IntertwinerError):
            rep.amplified(x, 1, dom_power, 0)
    # a copy of the lift is decided, holds, and builds the same operator
    decided = rep.amplified(rep.tilde.copy(), 1, 1, 0).to_dense()
    np.testing.assert_array_equal(decided, rep.amplified(rep.tilde, 1, 1, 0).to_dense())


def test_a_lift_that_intertwines_does_not_make_v_covariant(tol):
    # xi = xi . p_1 and phi(a) xi = a_0 xi; on H = C (+) C the quotient
    # E (x) H is spanned by xi (x) e_1, which V = e_0 e_0* sends to 0: the
    # lift is 0 and intertwines, but V(xi c) = c_1 V(xi) != V(xi) sigma(c)
    alg = FdCStarAlgebra([1, 1])
    e = diagonal_correspondence(alg, left_tags=[0], right_tags=[1])
    sigma = StarRepresentation(alg, [1, 1])
    v = np.array([[1.0, 0.0], [0.0, 0.0]])
    space = e.space(sigma, tol)
    tilde = v @ space.lift
    assert space.dim == 1 and not tilde.any()
    assert correspondence.intertwining_residual(tilde, space, correspondence.plain_space(sigma)) == 0.0
    assert correspondence.intertwines(tilde, space, correspondence.plain_space(sigma), tol)
    with pytest.raises(InvalidRepresentation, match=r"^bimodule covariance V\(a xi c\) = .* fails$"):
        CovariantRep(e, sigma, [v], tol)


def covariant_by_slices(corr, h, v, tol) -> bool:
    """bimodule_covariant one identity_holds per (u_a, u_c, xi_b), in that
    order: the loop the screened pass replaces."""
    v = np.array(v)
    scale = lambda: max(nx.opnorm(vb) for vb in v)
    for la, sa in zip(corr.left_action, h._basis_actions):
        stack = np.einsum("cyb,yij->cbij", la @ corr.right_action, v) - (sa @ v)[None] @ h._basis_actions[:, None]
        if not all(nx.identity_holds(gap, scale, tol) for gaps in stack for gap in gaps):
            return False
    return True


def test_bimodule_covariance_is_the_slice_by_slice_verdict(tol):
    # V(xi_b) masked to sigma(p_l) V sigma(p_r) is covariant; moved off the
    # mask by t * eq_rel, around the cutoff where the exact norm decides,
    # the screened pass gives the per-slice verdict, and a NaN raises the
    # same DomainError
    alg = FdCStarAlgebra([1, 1])
    e = diagonal_correspondence(alg, left_tags=[0, 1], right_tags=[1, 1])
    sigma = StarRepresentation(alg, [2, 3])
    h = correspondence.plain_space(sigma)
    p = [sigma.apply(alg.central_projection(i)) for i in range(2)]
    rng = rng_for(660)
    v, off = [p[0] @ crandn(rng, 5, 5) @ p[1], p[1] @ crandn(rng, 5, 5) @ p[1]], p[1] @ crandn(rng, 5, 5) @ p[0]
    v, off = [v[0] / nx.opnorm(v[0]), 0.25 * v[1] / nx.opnorm(v[1])], off / nx.opnorm(off)  # scale max(1, ||V(xi_0)||)
    verdicts = []
    for t in (0.0, 0.5, 0.999, 1.0 - 1e-7, 1.0 + 1e-7, 1.001, 2.0):
        for scale in (0.5, 3.0):
            moved = [scale * v[0] + t * tol.eq_rel * max(1.0, scale) * off, v[1]]
            want = covariant_by_slices(e, h, moved, tol)
            assert correspondence.bimodule_covariant(e, h, moved, tol) == want, (t, scale)
            verdicts.append(want)
    assert True in verdicts and False in verdicts
    bad = [v[0].copy(), v[1]]
    bad[0][4, 0] = np.nan
    for decide in (covariant_by_slices, correspondence.bimodule_covariant):
        with np.errstate(invalid="ignore"), pytest.raises(DomainError, match="non-finite"):
            decide(e, h, bad, tol)


def test_the_bimodule_check_fits_the_budget_of_the_lift_check(monkeypatch, tol):
    # one u_a at a time the covariance gaps hold dim A * N * H^2 entries,
    # no more than the induced actions of E (x)_sigma H, dim A * (N H)^2,
    # that the lift check forms: on one module vector over C (+) C with
    # H = C^2 (+) C^2 both are 2 * 16 entries, 512 bytes
    alg = FdCStarAlgebra([1, 1])
    e = diagonal_correspondence(alg, left_tags=[0], right_tags=[0])
    sigma = StarRepresentation(alg, [2, 2])
    v = np.diag([1.0, 1.0, 0.0, 0.0])  # sigma(p_0), so V(a xi c) = a_0 c_0 V(xi)
    dense_budget(monkeypatch, 512, covrep, correspondence, nx)
    rep = CovariantRep(e, sigma, [v], tol)
    assert rep.space(1).dim == 2 and rep.intertwining_residual() == 0.0
    monkeypatch.setattr(nx, "DENSE_BYTES", 511)
    with pytest.raises(ResourceLimit, match="the covariance gaps needs 512 bytes, over the budget 511"):
        CovariantRep(e, sigma, [v], tol)


def test_classify_takes_one_factorization(monkeypatch, tol):
    # the lift of the n = 3, trunc = 216 shift is 217 x 651; one split SVD
    # computes singular vectors, the rest are norms.  Every entry of the lift
    # is isolated, so LAPACK factors nothing; conjugated by a random unitary
    # the lift is dense and one LAPACK SVD computes singular vectors
    shift = build_shift(WeightedShiftSpec(n=3, trunc=216), tol)
    u = haar_unitary(rng_for(320), 217)
    conjugated = scalar_rep([u @ v @ nx.herm(u) for v in shift.v_on_basis], tol)
    real_svd, computes_uv = np.linalg.svd, []
    real_split, factorizations = nx._SplitSVD, []

    def svd(a, *args, **kwargs):
        out = real_svd(a, *args, **kwargs)
        computes_uv.append(isinstance(out, tuple))  # (U, S, Vh) only when vectors are computed
        return out

    def split(a, *args, **kwargs):
        factorizations.append(a.shape)
        return real_split(a, *args, **kwargs)

    # np.linalg.norm(., 2) calls the svd of numpy's inner linalg module
    for module in (np.linalg, np.linalg._linalg):
        monkeypatch.setattr(module, "svd", svd)
    monkeypatch.setattr(nx, "_SplitSVD", split)
    for rep, lapack_factorizations in ((shift, 0), (conjugated, 1)):
        assert rep.tilde.shape == (217, 651)
        computes_uv.clear()
        factorizations.clear()
        report = rep.classify()
        assert report.is_partial_isometric and report.consistent
        assert factorizations == [(217, 651)]
        assert computes_uv.count(True) == lapack_factorizations
        assert len(computes_uv) <= 10


# ---------------------------------------------------------------------------
# the index form of monomial lifts and their powers
# ---------------------------------------------------------------------------


def test_the_index_form_is_taken_only_for_a_monomial_lift_in_identity_coordinates(tol):
    # a shift lift past the gate is held as an index form, and so are its
    # powers; the shift (+) unitary past the gate is held as a split form
    # (its shift entries beside the unitary core), and so are its powers,
    # composed by parts, whose arrays are the dense products; a
    # Haar-conjugated shift (+) unitary, which has no isolated entry, a
    # two-block rep, a lift in quotient coordinates and a shift below the
    # gate keep the array
    shift = build_shift(WeightedShiftSpec(n=2, trunc=64), tol)
    assert nx._is_form(shift._lift) and shift._lift.shape == shift.tilde.shape
    assert all(nx._is_form(shift._power(m)) for m in (1, 2, 3))
    small = build_shift(WeightedShiftSpec(n=2, trunc=6), tol)
    assert small.tilde.size < nx._DEFLATE_MIN_SIZE and small._lift is small.tilde
    wold = hz.shift_plus_unitary_fixture(rng_for(341), tol, q=60, u_dim=20)
    rows, cols, block = wold._lift._core
    assert rows.tolist() == cols.tolist() == list(range(60, 80)) and np.array_equal(block, wold.tilde[60:, 60:])
    assert nx.dense(wold._lift, "a lift") is wold.tilde and nx._has_core(wold._power(2))
    assert nx.opnorm(wold.tilde_power(2) - wold.tilde @ wold.tilde) <= 1e-14
    big = build_shift(WeightedShiftSpec(n=3, trunc=216), tol)
    u = haar_unitary(rng_for(342), 217)
    conjugated = scalar_rep([u @ v @ nx.herm(u) for v in big.v_on_basis], tol)
    two_block = dict(amplification_reps(tol))["two_block"]
    dense = [small, conjugated, two_block, subspace_iteration_reps(tol)[-1]]
    dense += [rep for rep in subspace_iteration_reps(tol) if rep.space(1).embed is not None]
    for rep in dense:
        assert rep._lift is rep.tilde
        assert isinstance(rep._power(2), np.ndarray)
    assert wold.tilde.size >= nx._DEFLATE_MIN_SIZE and conjugated.tilde.size >= nx._DEFLATE_MIN_SIZE


def test_a_scanned_monomial_lift_keeps_its_array(tol):
    # a rep built from the dense lift of the n = 2, trunc 64 shift scans it
    # as monomial and holds the index form; the form keeps the read-only
    # array it was read from, so T_1 is tilde itself, in the same memory,
    # and reading the kernel N(T_1) fills no second h x nh array
    shift = build_shift(WeightedShiftSpec(n=2, trunc=64), tol)
    rep = rep_from_tilde(shift.corr, shift.sigma, np.array(shift.tilde), tol)
    assert type(rep._lift) is nx._Monomial and not rep.tilde.flags.writeable
    assert rep.tilde_power(1) is rep.tilde and np.shares_memory(rep.tilde_power(1), rep.tilde)
    assert rep.kernel_subspace(1).frame.tobytes() == shift.kernel_subspace(1).frame.tobytes()
    assert rep._lift._dense is rep.tilde
    # a writable array is not kept: the form builds its own on a read
    form = nx._index_form(np.array(shift.tilde))
    assert form._dense is None and nx.dense(form, "a lift").tobytes() == shift.tilde.tobytes()


def test_a_power_report_past_the_dense_budget_of_its_powers(tol, monkeypatch):
    # T_4 of the n = 2, trunc 120 shift is 121 x 1,936, 3.7 MB dense; its
    # index form is 46 kB, so the report fits 1 MB while the public read of
    # T_4 is refused before it allocates
    from pirep import powers as pw

    rep = build_shift(WeightedShiftSpec(n=2, trunc=120), tol)
    want = pw.power_report(build_shift(WeightedShiftSpec(n=2, trunc=120), tol), 4).to_dict()
    dense_budget(monkeypatch, 2**20, covrep, correspondence, nx, pw)
    scans, real = [], nx._nonzero_lines
    monkeypatch.setattr(nx, "_nonzero_lines", lambda a: scans.append(a.shape) or real(a))
    assert pw.power_report(rep, 4).to_dict() == want
    # no scan where the dense path took 55: the identity frame of H (the
    # cokernel of T_0) is an index form too, so both inclusions into it at
    # m = 1 read row masks
    assert len(scans) == 0
    with pytest.raises(ResourceLimit, match="the lift power T_4 needs 3748096 bytes"):
        rep.tilde_power(4)


@np.errstate(over="ignore", invalid="ignore")
def test_a_rep_refuses_non_finite_matrices(tol):
    # below the gate, and past it on a monomial lift that the scan would
    # hold as an index form
    for d in (3, 40):
        sigma = StarRepresentation(SCALARS, [d])
        for bad in (np.nan, np.inf, -np.inf):
            v = np.eye(d, dtype=complex)
            v[1, 1] = bad
            with pytest.raises(DomainError, match="non-finite"):
                CovariantRep(scalar_correspondence(1), sigma, [v], tol)
            with pytest.raises(DomainError, match="non-finite"):
                rep_from_tilde(scalar_correspondence(1), sigma, v, tol)


def test_a_composed_dense_power_that_overflows_is_a_domain_error(tol):
    # the dense twin of the test below: a Gaussian lift with one entry 1e200
    # has no isolated entry, so it is held as an array below and past the
    # gate; its triple defect, T T* and T_2 overflow, and every path ends in
    # DomainError, never in a NaN verdict
    from pirep import powers as pw

    runs = (
        lambda rep: rep.is_partial_isometric(),
        lambda rep: pw.power_report(rep, 3),
        lambda rep: nx.partial_isometry_residual(rep._lift, tol),
        lambda rep: nx.is_partial_isometry(rep.tilde_power(2), tol),
        lambda rep: pw.power_pi_up_to(rep, True, 3),
        lambda rep: pw.kernel_chain_condition(rep, 2),
        lambda rep: pw.range_invariance_condition(rep, 1),
        lambda rep: rep.classify(),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        for d in (4, 24):
            rng = rng_for(779, d)
            v = [crandn(rng, d, d) for _ in range(2)]
            v[0][0, 0] = 1e200
            for run in runs:
                rep = scalar_rep(v, tol)
                assert type(rep._lift) is np.ndarray
                with pytest.raises(DomainError, match="non-finite"):
                    run(rep)


def test_a_composed_power_that_overflows_is_a_domain_error(tol):
    # weights 1e200 on one orbit: T_1 is finite, its triple defect and T_2
    # overflow; every path ends in DomainError, never in a NaN verdict
    from pirep import powers as pw

    spec = WeightedShiftSpec(n=2, weights={(1, 3): 1e200, (1, 7): 1e200}, trunc=64)
    runs = (
        lambda rep: rep.is_partial_isometric(),
        lambda rep: pw.power_report(rep, 3),
        lambda rep: pw.power_pi_up_to(rep, True, 3),
        lambda rep: rep.tilde_power(2),
        lambda rep: nx.partial_isometry_residual(rep._lift, tol),
        # the dense path refuses T_2 too
        lambda rep: nx.is_partial_isometry(dense_tilde_power(rep, 2), tol),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        for run in runs:
            rep = build_shift(spec, tol)
            assert isinstance(rep._lift, nx._Monomial)
            with pytest.raises(DomainError, match="non-finite"):
                run(rep)
