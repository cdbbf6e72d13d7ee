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
from pirep.errors import InvalidRepresentation, ResourceLimit

from conftest import (
    assert_verdicts_match_classify,
    count_sigma_work,
    crandn,
    dense_amplified,
    dense_budget,
    empty_correspondence,
    planted_zero_lines,
    rng_for,
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


def test_amplification_applied_from_the_right_skips_zero_columns(tol):
    # the exactly-zero columns of M contribute exact zeros to M @ A: a
    # monomial block's gather skips them, and a dense block, as here, takes
    # the stacked product over all columns; both stay within the dense bound
    rep = dict(amplification_reps(tol))["scalar"]
    amp = rep.amplified(rep.tilde, 3, 1, 0)  # 8 blocks of 3 x 6
    g = planted_zero_lines(rng_for(164), (200, amp.shape[0]), (150, 10), np.ones(10))
    assert nx._live_lines(g)[1] is not None
    dense = dense_amplified(rep, rep.tilde, 3, 1, 0)
    assert nx.opnorm(g @ amp - g @ dense) <= application_bound(amp, g)


def test_amplification_with_a_dense_block_scans_no_live_columns(tol, monkeypatch):
    # only the monomial-block gather reads the live columns of M: with a
    # dense block M @ A is the stacked product, and M is not scanned
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
