import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pirep import numerics as nx
from pirep.errors import DimensionMismatch, DomainError, ResourceLimit
from pirep.numerics import Subspace, Tolerance

from conftest import (
    crandn,
    dense_budget,
    dense_frames_and_pinv,
    dense_image,
    dense_kernel_frame,
    dense_opnorm,
    dense_pi_residual,
    dense_pi_verdict,
    dense_pseudoinverse,
    dense_range_frame,
    penrose_residuals,
    planted_zero_lines,
    random_with_spectrum,
    rng_for,
)


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
    for name, res in penrose_residuals(m, x).items():
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
        assert max(penrose_residuals(m, pinv).values()) <= 1e-10 * scale, trial


# ---------------------------------------------------------------------------
# the norm screen: Frobenius bounds, exact opnorm only near the cutoff
# ---------------------------------------------------------------------------

# 0.5x, 0.999x, 1.001x and 2x a cutoff are decided by the bounds or by
# opnorm; 1 -/+ 1e-7 lies inside the widened band and must take opnorm
FAR = (0.5, 0.999, 1.001, 2.0)
NEAR = (1.0 - 1e-7, 1.0 + 1e-7)


def _shapes(rng) -> dict:
    """Unit-norm scalar, rank-deficient and wide matrices, and zero and
    empty ones."""
    out = {
        "scalar": np.array([[0.6 - 0.8j]]),
        "rank_deficient": random_with_spectrum(rng, 6, 5, [1.0, 0.4]),
        "wide": crandn(rng, 3, 9),
        "zero": np.zeros((4, 3), dtype=complex),
        "empty": np.zeros((3, 0), dtype=complex),
    }
    return {k: m / nx.opnorm(m) if m.any() else m for k, m in out.items()}


def _count_opnorm(monkeypatch) -> list:
    calls = []
    real = nx.opnorm

    def opnorm(m):
        calls.append(1)
        return real(m)

    monkeypatch.setattr(nx, "opnorm", opnorm)
    return calls


def _exact_partial_isometry(m, tol) -> bool:
    scale = nx.opnorm(m)
    return scale <= tol.rank_rel or nx.opnorm(m @ nx.herm(m) @ m - m) <= tol.eq_rel * scale


def _pi_inputs(rng, tol):
    """(kind, t, near, matrix): the triple-product residual at t * eq_rel * ||M||
    (one singular value 1 + delta beside ones), and ||M|| at t * rank_rel."""
    for t in FAR + NEAR:
        near = t in NEAR
        delta = np.sqrt(1.0 + t * tol.eq_rel) - 1.0  # (1+d)((1+d)^2 - 1) = t eq_rel (1+d)
        top = 1.0 + delta
        yield "scalar", t, near, np.array([[top]], dtype=complex)
        yield "rank_deficient", t, near, random_with_spectrum(rng, 6, 5, [top, 1.0])
        yield "wide", t, near, random_with_spectrum(rng, 3, 9, [top, 1.0, 1.0])
        yield "dust", t, near, t * tol.rank_rel * random_with_spectrum(rng, 4, 4, [1.0, 0.5])
    yield "zero", 1.0, False, np.zeros((4, 3), dtype=complex)
    yield "empty", 1.0, False, np.zeros((3, 0), dtype=complex)


def _subset_inputs(rng, tol):
    """(kind, t, near, S1, S2): S1 leaves S2 = span(e1, e2, e3) in C^6 by
    principal angles whose sines are t * incl_abs * spectrum, both rotated
    by one unitary; then a zero gap and an empty S1."""
    q, _ = np.linalg.qr(crandn(rng, 6, 6))
    s2 = Subspace(q[:, :3])
    spectra = {"scalar": [1.0], "rank_deficient": [1.0, 0.4, 0.0], "wide": [1.0, 1.0, 1.0]}
    for t in FAR + NEAR:
        for kind, spectrum in spectra.items():
            sines = t * tol.incl_abs * np.array(spectrum)
            f = np.zeros((6, len(spectrum)), dtype=complex)
            for j, sn in enumerate(sines):
                f[j, j], f[3 + j, j] = np.sqrt(1.0 - sn**2), sn
            yield kind, t, t in NEAR, Subspace(q @ f), s2
    yield "zero", 1.0, False, Subspace(np.eye(6)[:, :2]), Subspace(np.eye(6)[:, :3])
    yield "empty", 1.0, False, Subspace.zero(6), s2


def test_norm_within_is_the_exact_comparison(monkeypatch, tol):
    # differential: the screened verdict equals opnorm(m) <= cutoff on every
    # input, and an input within 1e-7 of the cutoff is decided by opnorm
    cases = []
    for cutoff in (1.0 + tol.eq_rel, tol.incl_abs, tol.eq_rel * 3.0):
        for kind, unit in _shapes(rng_for(404)).items():
            for t in FAR + NEAR:
                m = t * cutoff * unit
                cases.append((kind, t, cutoff, m, nx.opnorm(m) <= cutoff))
    calls = _count_opnorm(monkeypatch)
    for kind, t, cutoff, m, want in cases:
        calls.clear()
        assert nx.norm_within(m, cutoff) == want, (kind, t, cutoff)
        if t in NEAR and m.any():
            assert calls, (kind, t, cutoff)
        if kind == "scalar" and t in (0.5, 2.0):
            assert not calls, (kind, t, cutoff)  # ||M||_F = ||M||: the bounds decide
        if cutoff == 1.0 + tol.eq_rel:
            assert nx.is_contraction(m, tol) == want, (kind, t)


def test_identity_holds_takes_the_scale_only_past_eq_rel(tol):
    # opnorm(gap) <= eq_rel * max(1, scale), with scale() called exactly when
    # the gap is past eq_rel
    unit = _shapes(rng_for(407))["wide"]
    for scale in (0.5, 3.0):
        cutoff = tol.eq_rel * max(1.0, scale)
        for t in FAR + NEAR:
            gap = t * cutoff * unit
            calls = []
            got = nx.identity_holds(gap, lambda: calls.append(1) or scale, tol)
            assert got == (nx.opnorm(gap) <= cutoff), (scale, t)
            assert bool(calls) == (nx.opnorm(gap) > tol.eq_rel), (scale, t)


def test_partial_isometry_screen_is_the_exact_rule(monkeypatch, tol):
    rng = rng_for(405)
    inputs = list(_pi_inputs(rng, tol))
    expected = [_exact_partial_isometry(m, tol) for *_, m in inputs]
    residuals = [nx.opnorm(m @ nx.herm(m) @ m - m) for *_, m in inputs]
    assert True in expected and False in expected
    calls = _count_opnorm(monkeypatch)
    for (kind, t, near, m), want, residual in zip(inputs, expected, residuals):
        calls.clear()
        assert nx.is_partial_isometry(m, tol) == want, (kind, t)
        if near:
            assert calls, (kind, t)
        assert nx.partial_isometry_residual(m, tol) == (residual, want), (kind, t)


def test_subset_screen_is_the_exact_rule(monkeypatch, tol):
    rng = rng_for(406)
    inputs = list(_subset_inputs(rng, tol))
    expected = [nx.inclusion_defect(s1, s2) <= tol.incl_abs for *_, s1, s2 in inputs]
    assert True in expected and False in expected
    calls = _count_opnorm(monkeypatch)
    for (kind, t, near, s1, s2), want in zip(inputs, expected):
        calls.clear()
        assert nx.is_subset(s1, s2, tol) == want, (kind, t)
        if near:
            assert calls, (kind, t)


def test_tolerance_validation():
    with pytest.raises(DomainError):
        Tolerance(rank_rel=0.0)
    with pytest.raises(DomainError):
        Tolerance(rank_rel=2.0)
    with pytest.raises(DomainError):
        Tolerance(eq_rel=-1e-9)


# as_matrix decides finiteness from the sum of the entries first; numpy
# warns when that sum overflows or meets a non-finite entry


@np.errstate(over="ignore", invalid="ignore")
def test_non_finite_entries_rejected():
    for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.inf), complex(np.nan, 1.0)):
        with pytest.raises(DomainError):
            nx.as_matrix(np.array([[bad, 0.0], [0.0, 1.0]]))
        with pytest.raises(DomainError):  # among finite entries that overflow the sum
            nx.as_matrix(np.array([[1e308, 1e308, bad]]))


@np.errstate(over="ignore")
def test_finite_entries_whose_sum_overflows_pass():
    for row in ([1e308, 1e308], [-1e308, -1e308], [complex(1.0, 1e308), complex(1.0, 1e308)]):
        a = nx.as_matrix(np.array([row]))
        assert a.shape == (1, 2) and np.isfinite(a).all()


# ---------------------------------------------------------------------------
# dropping exactly-zero rows and columns
# ---------------------------------------------------------------------------

# Wedin's bound for a matrix of norm 1 whose smallest kept singular value is
# 0.1: each computed subspace is within (rows + cols) * 2**-53 * 10 of the
# exact one in principal-angle sine, 2e-13 for 190 lines, on either path.
DEFLATED_BOUND = 1e-12


def planted_cases(seed: int) -> list:
    """Matrices of at least the gate's size with planted zero rows and
    columns around a rank-deficient core of singular values in [0.1, 1]."""
    rng = rng_for(seed)
    cases = []
    for shape, core in (((70, 120), (50, 90)), ((120, 70), (100, 40)), ((64, 64), (60, 61)), ((40, 300), (40, 150))):
        k = int(rng.integers(1, min(core)))
        cases.append(planted_zero_lines(rng, shape, core, np.linspace(1.0, 0.1, k)))
    return cases


def projector_gap(f, g) -> float:
    return dense_opnorm(f @ nx.herm(f) - g @ nx.herm(g))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_deflated_primitives_match_the_dense_forms(seed, tol):
    for a in planted_cases(300 + seed):
        assert a.size >= nx._DEFLATE_MIN_SIZE
        rows, cols = nx._live_lines(a)
        assert rows is not None or cols is not None
        rank = dense_range_frame(a, tol).shape[1]
        for floor in (0.0, 1.0):
            frame = nx.range_frame(a, tol, floor)
            assert frame.shape[1] == rank
            assert dense_opnorm(nx.herm(frame) @ frame - np.eye(rank)) <= DEFLATED_BOUND
            assert projector_gap(frame, dense_range_frame(a, tol, floor)) <= DEFLATED_BOUND
            kernel = nx.kernel_frame(a, tol, floor)
            assert kernel.shape == (a.shape[1], a.shape[1] - rank)
            assert dense_opnorm(nx.herm(kernel) @ kernel - np.eye(kernel.shape[1])) <= DEFLATED_BOUND
            assert dense_opnorm(a @ kernel) <= DEFLATED_BOUND
            assert projector_gap(kernel, dense_kernel_frame(a, tol, floor)) <= DEFLATED_BOUND
        pinv = nx.pseudoinverse(a, tol)
        assert dense_opnorm(pinv - dense_pseudoinverse(a, tol)) <= 10 * DEFLATED_BOUND
        for name, res in penrose_residuals(a, pinv).items():
            assert res <= DEFLATED_BOUND, name
        assert abs(nx.opnorm(a) - dense_opnorm(a)) <= DEFLATED_BOUND
        residual, verdict = nx.partial_isometry_residual(a, tol)
        assert abs(residual - dense_pi_residual(a)) <= DEFLATED_BOUND
        assert verdict == nx.is_partial_isometry(a, tol) == dense_pi_verdict(a, tol)
        final, initial, pinv_c = nx._frames_and_pinv(a, tol)
        dense_final, dense_initial, dense_pinv = dense_frames_and_pinv(a, tol)
        assert projector_gap(final, dense_final) <= DEFLATED_BOUND
        assert projector_gap(initial, dense_initial) <= DEFLATED_BOUND
        assert dense_opnorm(pinv_c - dense_pinv) <= 10 * DEFLATED_BOUND
        s = Subspace(dense_range_frame(crandn(rng_for(seed), a.shape[1], 7)))
        got, want = nx.image(a, s, tol), dense_image(a, s, tol)
        assert got.dim == want.dim and projector_gap(got.frame, want.frame) <= DEFLATED_BOUND


def test_deflation_keeps_the_cut_of_the_original_shape(tol):
    # a singular value between the cuts of the compressed shape (core 4 x 4)
    # and of the whole one (100 x 100) counts as zero, as on the dense path
    a = np.zeros((100, 100), dtype=np.complex128)
    a[:4, :4] = np.diag([1.0, 0.5, 0.2, 1e-9])
    assert nx.range_frame(a, tol).shape[1] == 3 == dense_range_frame(a, tol).shape[1]
    assert nx.kernel_frame(a, tol).shape[1] == 97
    assert [f.shape[1] for f in nx._frames_and_pinv(a, tol)[:2]] == [3, 3]
    np.testing.assert_array_equal(np.abs(nx.pseudoinverse(a, tol)[:4, :4]), np.diag([1.0, 2.0, 5.0, 0.0]))


def test_all_zero_matrices_past_the_gate(tol):
    a = np.zeros((64, 80), dtype=np.complex128)
    assert nx.opnorm(a) == 0.0
    assert nx.range_frame(a, tol).shape == (64, 0)
    np.testing.assert_array_equal(nx.kernel_frame(a, tol), np.eye(80))
    np.testing.assert_array_equal(nx.pseudoinverse(a, tol), np.zeros((80, 64)))
    assert nx.partial_isometry_residual(a, tol) == (0.0, True) and nx.is_partial_isometry(a, tol)
    assert nx.image(a, Subspace.whole(80), tol).dim == 0


def test_below_the_gate_the_dense_path_runs_bit_for_bit(tol):
    rng = rng_for(310)
    for shape, core in (((6, 12), (4, 9)), ((12, 6), (10, 3)), ((40, 90), (30, 70))):
        k = min(core) - 1
        a = planted_zero_lines(rng, shape, core, np.linspace(1.0, 0.1, k))
        assert a.size < nx._DEFLATE_MIN_SIZE and nx._live_lines(a) == (None, None)
        for floor in (0.0, 1.0):
            assert nx.range_frame(a, tol, floor).tobytes() == dense_range_frame(a, tol, floor).tobytes()
            assert nx.kernel_frame(a, tol, floor).tobytes() == dense_kernel_frame(a, tol, floor).tobytes()
        assert nx.pseudoinverse(a, tol).tobytes() == dense_pseudoinverse(a, tol).tobytes()
        assert nx.opnorm(a) == dense_opnorm(a)
        assert nx.partial_isometry_residual(a, tol)[0] == dense_pi_residual(a)
        for got, want in zip(nx._frames_and_pinv(a, tol), dense_frames_and_pinv(a, tol)):
            assert got.tobytes() == want.tobytes()
        s = Subspace(dense_range_frame(crandn(rng, shape[1], 3)))
        assert nx.image(a, s, tol).frame.tobytes() == dense_image(a, s, tol).frame.tobytes()


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
