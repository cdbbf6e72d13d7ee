import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pirep import numerics as nx
from pirep.errors import DimensionMismatch, DomainError, ResourceLimit
from pirep.numerics import Subspace, Tolerance

from conftest import crandn, dense_budget, random_with_spectrum, rng_for


# ---------------------------------------------------------------------------
# pseudoinverse
# ---------------------------------------------------------------------------


def test_pinv_identity(tol):
    np.testing.assert_allclose(nx.pseudoinverse(np.eye(3)), np.eye(3), atol=1e-14)


def test_pinv_diagonal_support(tol):
    got = nx.pseudoinverse(np.diag([2.0, 0.0]))
    np.testing.assert_allclose(got, np.diag([0.5, 0.0]), atol=1e-14)


def test_pinv_penrose_residuals_random_seed7(tol):
    # oracle: direct evaluation of the four defining identities
    m = crandn(rng_for(7), 4, 3)
    x = nx.pseudoinverse(m, tol)
    for name, res in nx.penrose_residuals(m, x).items():
        assert res <= 1e-10, name


def test_pinv_zero_and_empty(tol):
    np.testing.assert_allclose(nx.pseudoinverse(np.zeros((2, 2))), np.zeros((2, 2)))
    assert nx.pseudoinverse(np.zeros((3, 0))).shape == (0, 3)


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(1, 6),
    cols=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    drop=st.integers(0, 3),
)
def test_pinv_involution_property(rows, cols, seed, drop):
    # (M+)+ = M within eq_rel * ||M||
    rng = rng_for(seed)
    m = crandn(rng, rows, cols)
    if drop:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
        s[max(0, len(s) - drop):] = 0.0
        m = u @ (s[:, None] * vh)
    back = nx.pseudoinverse(nx.pseudoinverse(m))
    assert nx.opnorm(back - m) <= nx.DEFAULT_TOL.eq_rel * max(nx.opnorm(m), 1e-12)


# ---------------------------------------------------------------------------
# range and kernel frames, as the projectors F F* they define
# ---------------------------------------------------------------------------


def _projector(f):
    return f @ nx.herm(f)


def test_projectors_zero_operator(tol):
    z = np.zeros((2, 2))
    np.testing.assert_allclose(_projector(nx.range_frame(z)), np.zeros((2, 2)))
    np.testing.assert_allclose(_projector(nx.kernel_frame(z)), np.eye(2))


def test_projectors_rank_one_nilpotent(tol):
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_allclose(_projector(nx.range_frame(m)), np.diag([1.0, 0.0]), atol=1e-14)
    np.testing.assert_allclose(_projector(nx.kernel_frame(m)), np.diag([1.0, 0.0]), atol=1e-14)


def test_projectors_idempotent_selfadjoint_rank2_seed11(tol):
    m = random_with_spectrum(rng_for(11), 5, 5, [1.3, 0.4, 0.0, 0.0, 0.0])
    for p in (_projector(nx.range_frame(m, tol)), _projector(nx.kernel_frame(m, tol))):
        assert nx.opnorm(p @ p - p) <= 1e-10
        assert nx.opnorm(p - nx.herm(p)) <= 1e-10
    assert nx.opnorm(_projector(nx.range_frame(m, tol)) - m @ nx.pseudoinverse(m, tol)) <= 1e-10


@settings(max_examples=30, deadline=None)
@given(rows=st.integers(1, 6), cols=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_range_plus_adjoint_kernel_is_identity(rows, cols, seed):
    m = crandn(rng_for(seed), rows, cols)
    total = _projector(nx.range_frame(m)) + _projector(nx.kernel_frame(nx.herm(m)))
    assert nx.opnorm(total - np.eye(rows)) <= 1e-10


# ---------------------------------------------------------------------------
# psd_sqrt
# ---------------------------------------------------------------------------


def test_psd_sqrt_identity_and_diag(tol):
    np.testing.assert_allclose(nx.psd_sqrt(np.eye(3)), np.eye(3), atol=1e-12)
    np.testing.assert_allclose(nx.psd_sqrt(np.diag([4.0, 0.0])), np.diag([2.0, 0.0]), atol=1e-12)


def test_psd_sqrt_defect_of_row(tol):
    # oracle: squaring
    v = np.array([[1.0, 0.0], [1.0, 0.0]]) / np.sqrt(2.0)
    defect = np.eye(2) - v @ v.conj().T
    s = nx.psd_sqrt(defect, tol)
    assert nx.opnorm(s @ s - defect) <= 1e-10
    assert nx.opnorm(s - nx.herm(s)) <= 1e-12


def test_psd_sqrt_rejects_materially_negative(tol):
    with pytest.raises(DomainError):
        nx.psd_sqrt(np.diag([1.0, -0.5]))


def test_psd_sqrt_rejects_non_selfadjoint(tol):
    with pytest.raises(DomainError):
        nx.psd_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------


def _coordinate_subspace(d, indices):
    frame = np.zeros((d, len(indices)), dtype=complex)
    for col, ix in enumerate(indices):
        frame[ix, col] = 1.0
    return Subspace(frame)


def test_intersect_coordinate_planes(tol):
    s1 = _coordinate_subspace(3, [0, 1])
    s2 = _coordinate_subspace(3, [1, 2])
    got = nx.intersect(s1, s2, tol)
    assert got.dim == 1
    np.testing.assert_allclose(got.projector(), np.diag([0.0, 1.0, 0.0]), atol=1e-12)


def test_ominus_whole_minus_zero(tol):
    whole = Subspace.whole(4)
    got = nx.ominus(whole, Subspace.zero(4), tol)
    assert got.dim == 4
    np.testing.assert_allclose(got.projector(), np.eye(4), atol=1e-12)


def test_ominus_requires_nesting(tol):
    with pytest.raises(DomainError):
        nx.ominus(_coordinate_subspace(3, [0]), _coordinate_subspace(3, [1]), tol)


def test_ambient_mismatch_raises(tol):
    with pytest.raises(DimensionMismatch):
        nx.intersect(Subspace.whole(2), Subspace.whole(3), tol)


def test_intersect_matches_alternating_projections_seed3(tol):
    # oracle: von Neumann alternating projections, 10^4 iterations
    rng = rng_for(3)
    s1 = Subspace.span(crandn(rng, 6, 3), tol)
    s2 = Subspace.span(crandn(rng, 6, 3), tol)
    p1, p2 = s1.projector(), s2.projector()
    alt = np.eye(6, dtype=complex)
    for _ in range(10_000):
        alt = p1 @ alt @ p2  # converges to the projector onto the intersection
        alt = (alt + nx.herm(alt)) / 2.0
    got = nx.intersect(s1, s2, tol).projector()
    # 1e-3: the oracle's own convergence rate is set by the principal angles
    assert nx.opnorm(got - alt) <= 1e-3


def test_image_and_complement(tol):
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    img = nx.image(m, Subspace.whole(2), tol)
    np.testing.assert_allclose(img.projector(), np.diag([1.0, 0.0]), atol=1e-12)
    comp = nx.ortho_complement(img, tol)
    np.testing.assert_allclose(comp.projector(), np.diag([0.0, 1.0]), atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 6))
def test_is_subset_partial_order(seed, d):
    rng = rng_for(seed)
    tol = nx.DEFAULT_TOL
    spaces = [Subspace.span(crandn(rng, d, rng.integers(0, d + 1)), tol) for _ in range(3)]
    for s in spaces:
        assert nx.is_subset(s, s, tol)
    a, b, c = spaces
    big = Subspace.span(np.hstack([a.frame, b.frame]), tol)
    assert nx.is_subset(a, big, tol) and nx.is_subset(b, big, tol)
    if nx.is_subset(a, b, tol) and nx.is_subset(b, c, tol):
        assert nx.is_subset(a, c, tol)


def test_inclusion_defect_matches_the_projector_form():
    # is_subset measures ||(I - P2) F1|| from the frames alone
    rng = rng_for(71)
    tol = nx.DEFAULT_TOL
    pairs = []
    for d in (1, 3, 6):
        for k1 in range(d + 1):
            for k2 in range(d + 1):
                pairs.append((Subspace.span(crandn(rng, d, k1), tol), Subspace.span(crandn(rng, d, k2), tol)))
        outer = Subspace.span(crandn(rng, d, d - 1), tol)
        inner = Subspace.span(outer.frame @ crandn(rng, d - 1, max(d - 2, 0)), tol)
        pairs += [(inner, outer), (outer, inner), (outer, nx.ortho_complement(outer, tol))]
        pairs += [(Subspace.zero(d), outer), (outer, Subspace.zero(d)), (Subspace.zero(d), Subspace.zero(d))]
    for s1, s2 in pairs:
        expected = np.linalg.norm((np.eye(s1.ambient_dim) - s2.projector()) @ s1.frame, 2) if s1.dim else 0.0
        assert abs(nx.inclusion_defect(s1, s2) - expected) <= 1e-13
        assert nx.is_subset(s1, s2, tol) == (expected <= tol.incl_abs)


def test_empty_subspace_everywhere(tol):
    z = Subspace.zero(3)
    assert nx.is_subset(z, z, tol)
    assert nx.intersect(z, Subspace.whole(3), tol).dim == 0
    assert nx.image(np.eye(3), z, tol).dim == 0
    assert nx.ortho_complement(z, tol).dim == 3


# ---------------------------------------------------------------------------
# predicates / six-way equivalence
# ---------------------------------------------------------------------------


def test_predicates_trivial_cases(tol):
    assert nx.is_partial_isometry(np.array([[0.0, 1.0], [0.0, 0.0]]), tol)
    assert not nx.is_partial_isometry(0.5 * np.eye(2), tol)
    v = np.array([[1.0, 0.0], [1.0, 0.0]]) / np.sqrt(2.0)
    # oracle: singular values of the 2x2 are {1, 0}
    np.testing.assert_allclose(np.linalg.svd(v, compute_uv=False), [1.0, 0.0], atol=1e-12)
    assert nx.is_partial_isometry(v, tol)
    assert nx.is_contraction(np.eye(2), tol)
    assert not nx.is_contraction(1.5 * np.eye(2), tol)
    assert nx.classify_operator(np.eye(3)[:, :2], tol).is_isometric


def test_zero_matrix_is_partial_isometry(tol):
    report = nx.classify_operator(np.zeros((3, 2)), tol)
    assert report.consistent
    assert all(report.condition_verdicts.values())


@pytest.mark.parametrize("forced", [True, False])
def test_six_conditions_agree(forced, tol):
    # invariant: the six characterizations agree on forced-{0,1} spectra and
    # on spectra containing a value well inside (0, 1)
    rng = rng_for(101 if forced else 202)
    for trial in range(200):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        k = min(rows, cols)
        if forced:
            values = (rng.random(k) < 0.6).astype(float)
        else:
            values = (rng.random(k) < 0.6).astype(float)
            values[int(rng.integers(0, k))] = rng.uniform(0.2, 0.8)
        m = random_with_spectrum(rng, rows, cols, values)
        report = nx.classify_operator(m, tol)
        assert report.consistent, (trial, values, report.condition_residuals)
        expected = bool(np.all((values < 0.1) | (np.abs(values - 1.0) < 0.1)))
        assert report.condition_verdicts["triple_product"] == expected
        # sampled version of the norm-preservation condition: 100 random
        # unit vectors in N(M)^perp
        f = nx.range_frame(nx.herm(m), tol)
        if f.shape[1]:
            x = f @ crandn(rng, f.shape[1], 100)
            x /= np.linalg.norm(x, axis=0)
            preserved = bool(np.all(np.abs(np.linalg.norm(m @ x, axis=0) - 1.0) <= 1e-6))
            if forced:
                assert preserved == expected


@pytest.mark.parametrize("kind", ["random", "rank_deficient", "zero"])
def test_classification_factors_match_the_primitives(kind, tol):
    # the one thin SVD behind classify_operator gives range_frame's frame and
    # pseudoinverse's matrix bit for bit, and a frame of R(M*) spanning
    # what range_frame(M*) spans
    rng = rng_for(303)
    for trial in range(30):
        rows, cols = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        if kind == "random":
            m = crandn(rng, rows, cols)
        elif kind == "rank_deficient":
            m = random_with_spectrum(rng, rows + 2, cols + 2, [1.5, 0.3])
        else:
            m = np.zeros((rows, cols), dtype=complex)
        final, initial, pinv = nx._frames_and_pinv(m, tol)
        np.testing.assert_array_equal(final, nx.range_frame(m, tol))
        np.testing.assert_array_equal(pinv, nx.pseudoinverse(m, tol))
        corange = nx.range_frame(nx.herm(m), tol)
        assert initial.shape == corange.shape, trial
        assert nx.opnorm(nx.herm(initial) @ initial - np.eye(initial.shape[1])) <= 1e-12
        assert nx.opnorm(initial @ nx.herm(initial) - corange @ nx.herm(corange)) <= 1e-12
        scale = max(1.0, nx.opnorm(m)) * max(1.0, nx.opnorm(pinv))
        assert max(nx.penrose_residuals(m, pinv, tol).values()) <= 1e-10 * scale, trial


def test_tolerance_validation():
    with pytest.raises(DomainError):
        Tolerance(rank_rel=0.0)
    with pytest.raises(DomainError):
        Tolerance(rank_rel=2.0)
    with pytest.raises(DomainError):
        Tolerance(eq_rel=-1e-9)


def test_non_finite_entries_rejected():
    with pytest.raises(DomainError):
        nx.as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# the dense byte budget
# ---------------------------------------------------------------------------


def test_check_bytes_reads_the_budget_at_call_time(monkeypatch):
    nx.check_bytes(nx.DENSE_BYTES, "an array at the budget")
    monkeypatch.setattr(nx, "DENSE_BYTES", 100)
    nx.check_bytes(100, "an array at the budget")
    with pytest.raises(ResourceLimit, match="an array needs 101 bytes, over the budget 100"):
        nx.check_bytes(101, "an array")


def test_kernel_frame_checks_its_full_svd(monkeypatch, tol):
    # the full SVD of an r x c matrix builds a c x c V: c = 4 fits 256 bytes,
    # c = 5 does not, with rows or without
    dense_budget(monkeypatch, 16 * 4**2, nx)
    for rows in (0, 2):
        assert nx.kernel_frame(np.ones((rows, 4)), tol).shape[0] == 4
        with pytest.raises(ResourceLimit, match="needs 400 bytes, over the budget 256"):
            nx.kernel_frame(np.ones((rows, 5)), tol)
