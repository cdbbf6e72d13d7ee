import math

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
    intersect,
    penrose_residuals,
    planted_zero_lines,
    random_with_spectrum,
    rng_for,
)


# ---------------------------------------------------------------------------
# pseudoinverse
# ---------------------------------------------------------------------------


def test_pinv_identity(tol):
    np.testing.assert_allclose(nx.pseudoinverse(np.eye(3), tol), np.eye(3), atol=1e-14)


def test_pinv_diagonal_support(tol):
    got = nx.pseudoinverse(np.diag([2.0, 0.0]), tol)
    np.testing.assert_allclose(got, np.diag([0.5, 0.0]), atol=1e-14)


def test_pinv_penrose_residuals_random_seed7(tol):
    # oracle: direct evaluation of the four defining identities
    m = crandn(rng_for(7), 4, 3)
    x = nx.pseudoinverse(m, tol)
    for name, res in penrose_residuals(m, x).items():
        assert res <= 1e-10, name


def test_pinv_zero_and_empty(tol):
    np.testing.assert_allclose(nx.pseudoinverse(np.zeros((2, 2)), tol), np.zeros((2, 2)))
    assert nx.pseudoinverse(np.zeros((3, 0)), tol).shape == (0, 3)


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
    back = nx.pseudoinverse(nx.pseudoinverse(m, nx.DEFAULT_TOL), nx.DEFAULT_TOL)
    assert nx.opnorm(back - m) <= nx.DEFAULT_TOL.eq_rel * max(nx.opnorm(m), 1e-12)


# ---------------------------------------------------------------------------
# range and kernel frames, as the projectors F F* they define
# ---------------------------------------------------------------------------


def _projector(f):
    return f @ nx.herm(f)


def test_projectors_zero_operator(tol):
    z = np.zeros((2, 2))
    np.testing.assert_allclose(_projector(nx.range_frame(z, tol)), np.zeros((2, 2)))
    np.testing.assert_allclose(_projector(nx.kernel_frame(z, tol)), np.eye(2))


def test_projectors_rank_one_nilpotent(tol):
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_allclose(_projector(nx.range_frame(m, tol)), np.diag([1.0, 0.0]), atol=1e-14)
    np.testing.assert_allclose(_projector(nx.kernel_frame(m, tol)), np.diag([1.0, 0.0]), atol=1e-14)


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
    total = _projector(nx.range_frame(m, nx.DEFAULT_TOL)) + _projector(nx.kernel_frame(nx.herm(m), nx.DEFAULT_TOL))
    assert nx.opnorm(total - np.eye(rows)) <= 1e-10


# ---------------------------------------------------------------------------
# psd_sqrt
# ---------------------------------------------------------------------------


def test_psd_sqrt_identity_and_diag(tol):
    np.testing.assert_allclose(nx.psd_sqrt(np.eye(3), tol), np.eye(3), atol=1e-12)
    np.testing.assert_allclose(nx.psd_sqrt(np.diag([4.0, 0.0]), tol), np.diag([2.0, 0.0]), atol=1e-12)


def test_psd_sqrt_defect_of_row(tol):
    # oracle: squaring
    v = np.array([[1.0, 0.0], [1.0, 0.0]]) / np.sqrt(2.0)
    defect = np.eye(2) - v @ v.conj().T
    s = nx.psd_sqrt(defect, tol)
    assert nx.opnorm(s @ s - defect) <= 1e-10
    assert nx.opnorm(s - nx.herm(s)) <= 1e-12


def test_psd_sqrt_rejects_materially_negative(tol):
    with pytest.raises(DomainError):
        nx.psd_sqrt(np.diag([1.0, -0.5]), tol)


def test_psd_sqrt_rejects_non_selfadjoint(tol):
    with pytest.raises(DomainError):
        nx.psd_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]), tol)


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------


def _coordinate_subspace(d, indices):
    frame = np.zeros((d, len(indices)), dtype=complex)
    for col, ix in enumerate(indices):
        frame[ix, col] = 1.0
    return Subspace(frame)


def test_the_whole_space_is_an_index_form_from_the_gate():
    # C^d is framed by the unit vectors of every row: an index form from
    # 32 x 32 = 1,024 entries and the identity below, the same bytes either way
    for d in (31, 32, 100):
        whole = Subspace.whole(d)
        assert (type(whole._frame) is nx._Monomial) == (d * d >= nx._DEFLATE_MIN_SIZE)
        assert whole.frame.tobytes() == np.eye(d, dtype=np.complex128).tobytes()


def test_intersect_coordinate_planes(tol):
    s1 = _coordinate_subspace(3, [0, 1])
    s2 = _coordinate_subspace(3, [1, 2])
    got = intersect(s1, s2, tol)
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
    two, three = Subspace.whole(2), Subspace.whole(3)
    for check in (
        lambda: nx.is_subset(two, three, tol),
        lambda: nx.inclusion_defect(two, three),
        lambda: nx.ominus(three, two, tol),
        lambda: intersect(two, three, tol),
    ):
        with pytest.raises(DimensionMismatch):
            check()


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
    got = intersect(s1, s2, tol).projector()
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
    assert intersect(z, Subspace.whole(3), tol).dim == 0
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


def test_identity_holds_takes_the_scale_only_past_eq_rel(monkeypatch, tol):
    # opnorm(gap) <= eq_rel * max(1, scale), with scale() called exactly when
    # the gap is past eq_rel, and at most one opnorm and one factorization
    # per identity, also for gaps whose Frobenius band holds both cutoffs
    rng = rng_for(407)
    unit = _shapes(rng)["wide"]
    cases = [(scale, t, t * tol.eq_rel * max(1.0, scale) * unit, False) for scale in (0.5, 3.0) for t in FAR + NEAR]
    # ||gap|| 1.3 and 1.6 eq_rel at scale 1.5: lo <= eq_rel and hi >= 1.5 eq_rel
    for top, spectrum in ((1.3, [1.0, 0.5, 0.5]), (1.6, [1.0, 0.1, 0.1])):
        gap = top * tol.eq_rel * random_with_spectrum(rng, 3, 9, spectrum)
        lo, hi = nx._norm_bounds(gap)
        assert lo <= tol.eq_rel and hi >= 1.5 * tol.eq_rel, top
        cases.append((1.5, top, gap, True))
    wants = [(nx.opnorm(gap) <= tol.eq_rel * max(1.0, scale), nx.opnorm(gap) > tol.eq_rel) for scale, _, gap, _ in cases]
    norms = _count_opnorm(monkeypatch)
    svds, real_svd = [], nx._svd
    monkeypatch.setattr(nx, "_svd", lambda m, *args, **kwargs: svds.append(m.shape) or real_svd(m, *args, **kwargs))
    for (scale, t, gap, in_both), (want, past) in zip(cases, wants):
        calls = []
        norms.clear()
        svds.clear()
        got = nx.identity_holds(gap, lambda: calls.append(1) or scale, tol)
        assert got == want and bool(calls) == past, (scale, t)
        assert len(norms) <= 1 and len(svds) <= 1, (scale, t)
        if in_both:
            assert len(norms) == len(svds) == 1 and calls == [1], t


def test_identities_hold_is_identity_holds_in_stack_order(tol):
    # the screened stack decides every gap as identity_holds does: the same
    # gap fails first, a non-finite gap raises unless an earlier one fails,
    # and scale() is called once and only where a gap is past eq_rel
    rng = rng_for(408)
    zero, dust, past = np.zeros((3, 4), dtype=complex), 1e-12 * crandn(rng, 3, 4), 2.0 * tol.eq_rel * _shapes(rng)["wide"][:, :4]
    bad = np.full((3, 4), np.nan, dtype=complex)
    for stack, want, scaled in (
        ([zero, dust, zero], True, False),
        ([zero, past, dust], True, True),
        ([dust, past, zero], False, True),
        ([zero, 1e3 * past, bad], False, True),
        ([np.zeros((3, 0), dtype=complex)] * 2, True, False),
    ):
        calls = []
        scale = lambda: calls.append(1) or (2.5 if want else 1.0)
        assert nx.identities_hold(np.array(stack)[None], scale, tol) is want, (want, scaled)
        assert calls == ([1] if scaled else []), (want, scaled)
    with np.errstate(invalid="ignore"), pytest.raises(DomainError, match="non-finite"):
        nx.identities_hold(np.array([dust, bad, past]), lambda: 1.0, tol)


# Each scalar seam as (accepts(value, scale, tol), its cutoff at a scale
# already floored to 1, the side on which values are refused); a value
# that is not materially negative is accepted.
SCALAR_SEAMS = {
    "residual_holds": (nx.residual_holds, lambda scale, tol: tol.eq_rel * scale, math.inf),
    "defect_within": (lambda v, scale, tol: nx.defect_within(v, tol), lambda scale, tol: tol.incl_abs, math.inf),
    "materially_negative": (
        lambda v, scale, tol: not nx.materially_negative(v, scale, tol),
        lambda scale, tol: -10.0 * tol.eq_rel * scale,
        -math.inf,
    ),
}


@pytest.mark.parametrize("seam", sorted(SCALAR_SEAMS))
def test_scalar_seams_accept_at_the_cutoff_and_nothing_past_it(seam, tol):
    accepts, cutoff, refused = SCALAR_SEAMS[seam]
    for scale, floored in ((0.25, 1.0), (1.0, 1.0), (3.0, 3.0)):
        at = cutoff(floored, tol)
        assert accepts(at, scale, tol) is True, scale
        assert accepts(np.nextafter(at, refused), scale, tol) is False, scale
        assert accepts(math.nan, scale, tol) is False, scale
    if seam != "defect_within":
        # a NaN or infinite scale decides nothing
        for scale in (math.nan, math.inf):
            assert accepts(0.0, scale, tol) is False, scale


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
    # an infinite cutoff would make every identity or inclusion hold
    for name in ("rank_rel", "eq_rel", "incl_abs"):
        for value in (math.inf, math.nan):
            with pytest.raises(DomainError, match=f"tolerance {name} must be finite"):
                Tolerance(**{name: value})


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


# Each public entry point on a matrix, as a call on that matrix.
ENTRY_POINTS = {
    "as_matrix": lambda a, tol: nx.as_matrix(a),
    "Subspace": lambda a, tol: Subspace(a),
    "range_frame": nx.range_frame,
    "kernel_frame": nx.kernel_frame,
    "image": lambda a, tol: nx.image(a, Subspace.whole(a.shape[1]), tol),
    "pseudoinverse": nx.pseudoinverse,
    "psd_sqrt": nx.psd_sqrt,
    "is_partial_isometry": nx.is_partial_isometry,
    "is_contraction": nx.is_contraction,
    "classify_operator": nx.classify_operator,
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@np.errstate(over="ignore", invalid="ignore")
def test_every_entry_point_refuses_a_non_finite_matrix(entry, tol):
    # below the gate, and past it on a monomial matrix that the scan would
    # hold as an index form: no frame or verdict is reached unchecked
    for n in (3, 40):
        for bad in (np.nan, np.inf, -np.inf):
            a = np.eye(n, dtype=complex)
            a[1, 1] = bad
            with pytest.raises(DomainError, match="non-finite"):
                ENTRY_POINTS[entry](a, tol)


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
    for shape, core in (((6, 12), (4, 9)), ((12, 6), (10, 3)), ((30, 34), (22, 26))):
        k = min(core) - 1
        a = planted_zero_lines(rng, shape, core, np.linspace(1.0, 0.1, k))
        assert a.size < nx._DEFLATE_MIN_SIZE and nx._live_lines(a) == (None, None)
        # one zero column more and the 30 x 35 case is past the gate: scanned
        wider = np.hstack([a, np.zeros((shape[0], 1))])
        assert (wider.size >= nx._DEFLATE_MIN_SIZE) == (shape == (30, 34))
        assert (nx._live_lines(wider)[1] is not None) == (shape == (30, 34))
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
# splitting off isolated entries
# ---------------------------------------------------------------------------


def isolated_cases(seed: int) -> list:
    """Matrices of at least the gate's size with isolated entries of random
    phase and the given moduli, zero lines, and a dense core of rank k with
    singular values in [0.1, 1]; the largest singular value is an isolated
    entry in two of them, and ties one in another."""
    rng = rng_for(seed)
    cases = []
    for shape, core, moduli in (
        ((70, 120), (30, 50), [2.0, 1.0, 0.3, 0.05]),
        ((120, 70), (40, 20), rng.uniform(0.1, 1.0, 25)),
        ((64, 64), (20, 21), [1.0] * 10 + [1e-3]),
        ((40, 300), (10, 100), [1.5, 0.5]),
    ):
        k = int(rng.integers(1, min(core)))
        cases.append(planted_zero_lines(rng, shape, core, np.linspace(1.0, 0.1, k), moduli))
    return cases


def sigma_bound(a) -> float:
    """Two backward-stable SVDs of a (the split one and dense LAPACK) agree
    on each singular value to (rows + cols) * 2**-53 * ||a|| apiece."""
    return 2 * sum(a.shape) * 2**-53 * dense_opnorm(a)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_split_primitives_match_dense_lapack(seed, tol):
    for a in isolated_cases(340 + seed):
        assert a.size >= nx._DEFLATE_MIN_SIZE
        core, _, _, (i, j, v) = nx._deflate(a)
        assert i.size and core.size and np.array_equal(a[i, j], v)
        dense_s, split_s = np.linalg.svd(a, compute_uv=False), nx._SplitSVD(a).s
        assert split_s.size < dense_s.size and np.all(dense_s[split_s.size :] <= sigma_bound(a))
        assert np.abs(split_s - dense_s[: split_s.size]).max() <= sigma_bound(a)
        assert abs(nx.opnorm(a) - dense_opnorm(a)) <= sigma_bound(a)
        for floor in (0.0, 1.0):
            frame, want = nx.range_frame(a, tol, floor), dense_range_frame(a, tol, floor)
            assert frame.shape == want.shape
            assert dense_opnorm(nx.herm(frame) @ frame - np.eye(frame.shape[1])) <= DEFLATED_BOUND
            assert projector_gap(frame, want) <= DEFLATED_BOUND
            # every isolated entry is kept, as the exact unit vector of its row
            units = frame[:, np.count_nonzero(frame, axis=0) == 1]
            assert sorted(np.flatnonzero(units.any(axis=1))) == sorted(i)
            assert set(units[units != 0]) == {1.0}
            kernel, want = nx.kernel_frame(a, tol, floor), dense_kernel_frame(a, tol, floor)
            assert kernel.shape == want.shape
            assert dense_opnorm(nx.herm(kernel) @ kernel - np.eye(kernel.shape[1])) <= DEFLATED_BOUND
            assert projector_gap(kernel, want) <= DEFLATED_BOUND
        pinv, want = nx.pseudoinverse(a, tol), dense_pseudoinverse(a, tol)
        assert np.array_equal(pinv[j, i], 1.0 / v)
        # ||A+ - B+|| <= 2 ||A+||^2 ||A - B|| for equal ranks
        assert dense_opnorm(pinv - want) <= 2 * dense_opnorm(want) ** 2 * sigma_bound(a)
        scale = (1.0 + dense_opnorm(a)) * (1.0 + dense_opnorm(pinv))
        for name, res in penrose_residuals(a, pinv).items():
            assert res <= DEFLATED_BOUND * scale**2, name
        final, initial, pinv_c = nx._frames_and_pinv(a, tol)
        dense_final, dense_initial, _ = dense_frames_and_pinv(a, tol)
        assert final.shape == dense_final.shape and initial.shape == dense_initial.shape
        # the frames pair up as singular vectors: A = U_r diag(s_r) V_r* up to the cut values
        kept = nx._SplitSVD(a).s[: final.shape[1]]
        assert dense_opnorm((final * kept) @ nx.herm(initial) - a) <= sigma_bound(a)
        assert projector_gap(final, dense_final) <= DEFLATED_BOUND
        assert projector_gap(initial, dense_initial) <= DEFLATED_BOUND
        assert np.array_equal(final, nx.range_frame(a, tol)) and np.array_equal(pinv_c, pinv)
        s = Subspace(dense_range_frame(crandn(rng_for(seed), a.shape[1], 7)))
        got, want = nx.image(a, s, tol), dense_image(a, s, tol)
        assert got.dim == want.dim and projector_gap(got.frame, want.frame) <= DEFLATED_BOUND


@pytest.mark.parametrize("top", [1.0, 4.0])
def test_isolated_entries_beside_the_cut_are_cut_as_on_the_dense_path(top, tol):
    # sigma_max = top is the core's (1) or an isolated entry's (4), so both
    # floors cut at rank_rel * top * 120; one isolated entry sits at half
    # the cut, one at twice it
    shape = (80, 120)
    cut = tol.rank_rel * top * max(shape)
    moduli = [0.5 * cut, 2.0 * cut] + ([top] if top > 1.0 else [])
    a = planted_zero_lines(rng_for(350), shape, (30, 40), np.linspace(1.0, 0.1, 10), moduli)
    rank = 11 + (top > 1.0)
    ((i_small, j_small),) = np.argwhere(np.isclose(np.abs(a), 0.5 * cut, rtol=1e-9, atol=0.0))
    ((i_big, j_big),) = np.argwhere(np.isclose(np.abs(a), 2.0 * cut, rtol=1e-9, atol=0.0))
    # the dense kernel and pseudoinverse resolve a direction of singular
    # value 2 * cut only to Wedin's (rows + cols) * 2**-53 * ||A|| / (2 * cut)
    wedin = sum(shape) * 2**-53 * top / (2.0 * cut)
    for floor in (0.0, 1.0):
        frame = nx.range_frame(a, tol, floor)
        assert frame.shape[1] == rank == dense_range_frame(a, tol, floor).shape[1]
        assert frame[i_big][frame[i_big] != 0].tolist() == [1.0] and not frame[i_small].any()
        kernel, want = nx.kernel_frame(a, tol, floor), dense_kernel_frame(a, tol, floor)
        assert kernel.shape == want.shape == (120, 120 - rank)
        assert any(np.array_equal(col, np.eye(120)[j_small]) for col in kernel.T)
        assert not kernel[j_big].any()
        assert projector_gap(kernel, want) <= wedin
    pinv, want = nx.pseudoinverse(a, tol), dense_pseudoinverse(a, tol)
    assert pinv[j_big, i_big] == 1.0 / a[i_big, j_big] and pinv[j_small, i_small] == 0.0
    assert dense_opnorm(pinv - want) <= wedin * dense_opnorm(want)
    final, initial, pinv_c = nx._frames_and_pinv(a, tol)
    assert final.shape[1] == initial.shape[1] == rank and np.array_equal(pinv_c, pinv)


# ---------------------------------------------------------------------------
# range frames of a core that fills its rows
# ---------------------------------------------------------------------------


def record_svds(monkeypatch) -> list:
    """(shape, compute_uv) of every LAPACK SVD from here on."""
    seen, real = [], nx._svd
    monkeypatch.setattr(nx, "_svd", lambda m, full, compute_uv=True: seen.append((m.shape, compute_uv)) or real(m, full, compute_uv))
    return seen


def split_range_frame(a, shape, tol, floor) -> np.ndarray:
    """The range frame of the split SVD with vectors, cut at ``shape``."""
    split = nx._SplitSVD(a)
    return split.left(split.cut(shape, tol, floor)[1])


def test_a_core_that_fills_its_rows_gives_its_coordinate_block(monkeypatch, tol):
    # square and wide cores of full row rank beside isolated entries, one of
    # them below the cut, and a dense wide array with nothing to deflate:
    # the frame is the unit vectors of the kept rows, in row order, and the
    # cores' singular values are taken without vectors
    rng = rng_for(360)
    cases = [
        planted_zero_lines(rng, (70, 120), (30, 30), np.linspace(1.0, 0.1, 30), [2.0, 0.3, 1e-12]),
        planted_zero_lines(rng, (80, 90), (20, 45), np.linspace(1.0, 0.5, 20), rng.uniform(0.1, 1.0, 25)),
        random_with_spectrum(rng, 32, 48, np.linspace(1.0, 0.2, 32)),
    ]
    for a in cases:
        assert a.size >= nx._DEFLATE_MIN_SIZE
        core, rows, _, (i, _, v) = nx._deflate(a)
        kept = np.ones(a.shape[0], dtype=bool) if rows is None else rows.copy()
        kept[i[np.abs(v) > 1e-6]] = True
        for floor in (0.0, 1.0):
            seen = record_svds(monkeypatch)
            frame = nx.range_frame(a, tol, floor)
            monkeypatch.undo()
            assert seen == [(core.shape, False)]
            assert np.array_equal(frame, np.eye(a.shape[0])[:, kept])
            assert projector_gap(frame, dense_range_frame(a, tol, floor)) <= DEFLATED_BOUND


def test_a_core_short_of_its_rows_is_cut_by_the_split_svd(tol):
    # square and wide cores that do not fill their rows, and a dense 40 x 40
    # of rank 30 with nothing to deflate: the frame is the split SVD's, bit
    # for bit
    rng = rng_for(361)
    cases = [
        planted_zero_lines(rng, (70, 120), (30, 30), np.linspace(1.0, 0.1, 25), [2.0, 0.3]),
        planted_zero_lines(rng, (80, 90), (20, 45), np.linspace(1.0, 0.5, 12), [0.7]),
        random_with_spectrum(rng, 40, 40, np.linspace(1.0, 0.1, 30)),
    ]
    for a in cases:
        core = nx._deflate(a)[0]
        assert a.size >= nx._DEFLATE_MIN_SIZE and 0 < core.shape[0] <= core.shape[1]
        for floor in (0.0, 1.0):
            frame = nx.range_frame(a, tol, floor)
            assert np.count_nonzero(frame, axis=0).max() > 1
            assert frame.tobytes() == split_range_frame(a, a.shape, tol, floor).tobytes()


def test_a_core_value_exactly_at_the_cut_falls_back(tol):
    # with rank_rel and max(shape) powers of two, an isolated entry of
    # modulus m sets the cut to exactly m * rank_rel * 64; m is chosen so
    # that the cut is the core's smallest singular value as LAPACK gives it
    # without vectors, which counts as zero, so the core does not fill its
    # rows and the frame is the split SVD's, bit for bit
    exact = Tolerance(rank_rel=2.0**-30, eq_rel=tol.eq_rel, incl_abs=tol.incl_abs)
    a = planted_zero_lines(rng_for(362), (64, 64), (3, 4), [1.0, 0.6, 0.3], [1.0])
    core, _, _, (i, j, _) = nx._deflate(a)
    s = nx._svd(core, False, compute_uv=False)
    a[i, j] = s[-1] / (exact.rank_rel * 64)
    assert nx.rank_threshold(np.array([abs(a[i[0], j[0]])]), a.shape, exact) == s[-1]
    frame = nx._range_frame_cut_as(a, a.shape, exact, 0.0)
    assert frame.tobytes() == split_range_frame(a, a.shape, exact, 0.0).tobytes()
    assert frame.shape[1] in (3, 4) and np.count_nonzero(frame, axis=0).max() > 1


# ---------------------------------------------------------------------------
# range frames of a fixed X's columns at unit vectors
# ---------------------------------------------------------------------------


def unit_columns(n: int, at) -> "nx._Monomial":
    """The n x len(at) frame of unit vectors e_at[c], values 1."""
    at = np.asarray(at, dtype=np.intp)
    return nx._Monomial((n, at.size), at, np.ones(at.size, dtype=np.complex128))


def blocks_and_monomial(rng, h, n, blocks, moduli) -> np.ndarray:
    """An h x n matrix: dense blocks (rows, cols, singular values) on rows
    and columns of their own, then one isolated entry per modulus on rows
    and columns left over, and every other column zero.  A modulus given
    as a complex number is the entry itself; a float gets a random phase."""
    x = np.zeros((h, n), dtype=np.complex128)
    rows, cols = rng.permutation(h), rng.permutation(n)
    for r, c, values in blocks:
        x[np.ix_(rows[:r], cols[:c])] = random_with_spectrum(rng, r, c, values)
        rows, cols = rows[r:], cols[c:]
    for value, i, j in zip(moduli, rows, cols):
        x[i, j] = value if isinstance(value, complex) else value * np.exp(2j * np.pi * rng.random())
    return x


def decided_by_index(product, shape, tol, floor) -> bool:
    """Whether the range frame of the product is unit vectors that the
    deflation decides without singular vectors: past the gate, a product
    with no core, or a square or wide core whose values all clear the cut."""
    if product.size < nx._DEFLATE_MIN_SIZE:
        return False
    core, _, _, (_, _, v) = nx._deflate(product)
    if core.shape[0] == 0 or core.shape[0] > core.shape[1]:
        return core.shape[0] == 0
    s = np.linalg.svd(core, compute_uv=False)
    return s[-1] > nx.rank_threshold(np.maximum(s[:1], np.abs(v).max(initial=0.0)), shape, tol, floor)


def check_row_steps(x, column_sets, tol) -> list:
    """For each set of X's columns, past the gate, step from every row of
    the X that set picks (X F for F the unit vectors of those columns: X's
    columns times 1), on both scale floors, and require the frame to be
    the product's, byte for byte: rows where the deflation decides it,
    None where it does not.  The core's singular values are taken once,
    on the stepper's first step, and are the product core's.  Returns
    whether each step was decided by the full-row-rank rule."""
    h, n = x.shape
    decided = []
    for at in column_sets:
        at = np.asarray(at, dtype=np.intp)
        product = nx.matmul(x, unit_columns(n, at))
        if product.size < nx._DEFLATE_MIN_SIZE:  # the iterations hold no rows below the gate
            continue
        steps = nx._RowSteps(np.ascontiguousarray(x[:, at]), 1)
        for floor in (1.0, 0.0):
            got = steps.step(x.shape, tol, floor)
            want = nx._range_frame_cut_as(product, x.shape, tol, floor)
            assert (got is not None) == decided_by_index(product, x.shape, tol, floor)
            if got is not None:
                assert nx.dense(nx._units(h, got), "a frame").tobytes() == nx.dense(want, "a frame").tobytes()
        core, rows, cols, _ = nx._deflate(product)
        tried = 0 < core.shape[0] <= core.shape[1]
        if tried:
            key = (np.arange(h) if rows is None else np.flatnonzero(rows)).tobytes(), (np.arange(at.size) if cols is None else np.flatnonzero(cols)).tobytes()
            assert list(steps.values) == [key]
            assert steps.values[key].tobytes() == nx._svd(core, False, compute_uv=False).tobytes()
        decided.append(tried and got is not None)
    return decided


def stepped_frame(x, tol):
    """The last frame of the iteration S -> X S from all of C^h, X square:
    each frame the product's ``_range_frame_cut_as`` at X's shape, fed
    back as it is (an index form is gathered, an array multiplied)."""
    frame = nx._units(x.shape[0], np.arange(x.shape[0]))
    while True:
        nxt = nx._range_frame_cut_as(nx.matmul(x, frame), x.shape, tol, 1.0)
        if nxt.shape[1] == frame.shape[1]:
            return nxt
        frame = nxt


@st.composite
def column_iterations(draw):
    """X as dense blocks beside a monomial part and zero columns, with
    isolated moduli one ulp either side of the cut at X's shape on the unit
    scale (the blocks' singular values are at most 0.9), and index sets that keep the blocks'
    columns, repeat, reorder them, drop some of them mid-way and fall below
    the gate (where no stepper is taken)."""
    h = draw(st.integers(32, 48))
    n = draw(st.integers(h, 2 * h))
    blocks = []
    for _ in range(draw(st.integers(1, 2))):
        r, c = draw(st.integers(2, 8)), draw(st.integers(2, 8))
        values = draw(st.sampled_from([np.linspace(0.9, 0.2, 8), np.array([0.9, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])]))
        blocks.append((r, c, values))
    cut = nx.rank_threshold(np.ones(1), (h, n), nx.DEFAULT_TOL, 1.0)
    below, above = np.nextafter(cut, 0.0), np.nextafter(cut, 1.0)
    exact = [complex(below), complex(0.0, above), complex(-above), complex(0.0, -below), complex(cut)]
    moduli = draw(st.lists(st.sampled_from(exact + [0.3, 0.9, 1.0]), min_size=0, max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = blocks_and_monomial(rng, h, n, blocks, moduli)
    live = np.flatnonzero(x.any(axis=0))
    keep = np.union1d(live, rng.choice(n, size=n // 2, replace=False))
    dropped = np.setdiff1d(keep, rng.choice(live, size=max(1, live.size // 3), replace=False))
    small = rng.choice(n, size=(nx._DEFLATE_MIN_SIZE - 1) // h, replace=False)
    return x, [np.arange(n), np.arange(n), keep, rng.permutation(keep), dropped, keep, small]


@settings(max_examples=60, deadline=None)
@given(column_iterations())
def test_column_ranges_are_the_range_frames_of_the_products(case):
    # the stepper's counts, taken from the scan of the X that each of a
    # sequence of column sets picks (not nested), give the product's frame
    x, index_sets = case
    check_row_steps(x, index_sets, nx.DEFAULT_TOL)


@settings(max_examples=60, deadline=None)
@given(column_iterations())
def test_row_steps_follow_nested_iterations_and_jumps(case):
    # on the square X of the draw, and on it with the columns outside each
    # of the draw's sets set to zero (a jump to another X), the iteration
    # S -> X S from all of C^h: its first step is the step from every row,
    # and where the peel accepts, its rows give the stepped iteration's
    # last frame byte for byte (a row can come back once the largest
    # isolated modulus leaves and the cut drops, so the peel refuses there)
    x, index_sets = case
    h = x.shape[0]
    square = np.ascontiguousarray(x[:, :h])
    xs = [square]
    for at in index_sets[2:]:
        jumped = np.zeros_like(square)
        jumped[:, at[at < h]] = square[:, at[at < h]]
        xs.append(jumped)
    for x in xs:
        check_row_steps(x, [np.arange(h)], nx.DEFAULT_TOL)
        steps = nx._RowSteps(x, 1)
        if steps.step(x.shape, nx.DEFAULT_TOL, 1.0) is None:
            continue
        fixed = steps.peel(x.shape, nx.DEFAULT_TOL, 1.0)
        if fixed is not None:
            want = nx.dense(stepped_frame(x, nx.DEFAULT_TOL), "a frame")
            got = nx.dense(nx._units(h, fixed), "a frame")
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_column_ranges_fall_back_for_a_tall_core_and_follow_a_core_that_changes(tol):
    # one 12 x 6 block (tall: the product is built and cut as before), a
    # 6 x 10 block of full row rank (the rule decides from its values), and
    # isolated entries one ulp either side of the cut: the frame keeps the
    # row of the one above it and not the one below
    rng = rng_for(364)
    h, n = 48, 64
    cut = nx.rank_threshold(np.ones(1), (h, n), tol, 1.0)
    below, above = complex(np.nextafter(cut, 0.0)), complex(0.0, np.nextafter(cut, 1.0))
    x = blocks_and_monomial(rng, h, n, [(6, 10, np.linspace(0.9, 0.5, 6)), (12, 6, np.linspace(0.9, 0.5, 6))], [below, above, 0.5j, -1.0])
    wide = np.flatnonzero(np.count_nonzero(x, axis=0) == 6)  # the wide block's columns
    tall = np.flatnonzero(np.count_nonzero(x, axis=0) == 12)
    (i_below,), (i_above,) = np.flatnonzero(np.abs(x).max(axis=1) == abs(below)), np.flatnonzero(np.abs(x).max(axis=1) == abs(above))
    rest = np.setdiff1d(np.arange(n), tall)
    decided = check_row_steps(x, [np.arange(n), rest, rest[::-1], np.setdiff1d(rest, wide[:5]), rest], tol)
    # with the tall block the core has 18 rows and 16 columns: built; without
    # it the wide core decides, again when its columns come back, and a core
    # of 6 x 5 (half the wide block dropped) is tall again
    assert decided == [False, True, True, False, True]
    rows = nx._RowSteps(np.ascontiguousarray(x[:, rest]), 1).step(x.shape, tol, 1.0)
    assert i_above in rows and i_below not in rows


def test_a_row_comes_back_when_the_largest_isolated_modulus_leaves(tol):
    # on the scale floor 0 the cut follows the largest modulus: while the
    # isolated entry of modulus 2 is in X, the one of modulus 5e-9 is below
    # the cut (2 * 40 * rank_rel = 8e-9) and its row is dropped; without
    # the column of the first, the cut drops to 0.9 * 40 * rank_rel and
    # the row comes back, and it goes again when that column returns
    h = 40
    x = np.zeros((h, h), dtype=np.complex128)
    x[:4, :4] = random_with_spectrum(rng_for(365), 4, 4, [0.9, 0.9, 0.9, 0.9])
    x[20, 30], x[21, 31] = 2.0, 5e-9
    every, without = np.arange(h), np.setdiff1d(np.arange(h), [30])
    assert check_row_steps(x, [every, without, every, without], tol) == [True] * 4
    kept = [21 in nx._RowSteps(np.ascontiguousarray(x[:, at]), 1).step(x.shape, tol, 0.0) for at in (every, without, every)]
    assert kept == [False, True, False]
    # on the scale floor 1 the modulus 5e-9 is below the cut of the step
    # from every row, so the peel refuses
    steps = nx._RowSteps(x, 1)
    assert steps.step(x.shape, tol, 1.0) is not None and steps.peel(x.shape, tol, 1.0) is None


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


def test_kernel_frame_checks_the_u_of_a_tall_array(monkeypatch, tol):
    # the full SVD of a 400 x 8 array builds a 400 x 400 U (2.56 MB), refused
    # before it is allocated; and an amplified kernel I_50 (x) F of a zero
    # 2 x 8 block, 400 x 400, is refused from its shape before it is built
    dense_budget(monkeypatch, 2**20, nx)
    with pytest.raises(ResourceLimit, match="full SVD needs 2560000 bytes"):
        nx.kernel_frame(np.ones((400, 8)), tol)
    with pytest.raises(ResourceLimit, match="an amplified kernel frame needs 2560000 bytes"):
        nx.kernel_frame(nx.Amplification(np.zeros((2, 8)), 50, None, None), tol)


def test_a_projector_checks_its_bytes_before_it_is_built(monkeypatch, tol):
    # the projector of a 400 x 3 frame is a 400 x 400 array (2.56 MB): under
    # a 1 MB budget it is refused from its shape, with the budgeted numpy
    # refusing any unchecked array past it; a 200 x 3 frame's (640 kB) fits
    frame = np.linalg.qr(crandn(rng_for(343), 400, 3))[0]
    dense_budget(monkeypatch, 2**20, nx)
    with pytest.raises(ResourceLimit, match="a projector needs 2560000 bytes, over the budget 1048576"):
        Subspace(frame).projector()
    small = Subspace(frame[:200])
    assert small.projector().shape == (200, 200)


def test_an_amplified_kernel_is_cut_at_the_amplified_shape(tol):
    # the singular value 8e-10 of Y lies above Y's own cut (4 * rank_rel) and
    # below that of I_3 (x) Y (12 * rank_rel): the dense kernel of I_3 (x) Y
    # keeps its direction in each block, and so does the kernel from the block
    y = random_with_spectrum(rng_for(338), 4, 4, [1.0, 0.5, 8e-10, 0.0])
    amp = nx.Amplification(y, 3, None, None)
    assert Subspace.kernel(y, tol).dim == 1
    got, want = Subspace.kernel(amp, tol), Subspace.kernel(amp.to_dense(), tol)
    assert got.dim == want.dim == 6
    assert nx.is_subset(got, want, tol) and nx.is_subset(want, got, tol)


# ---------------------------------------------------------------------------
# products with monomial operands
# ---------------------------------------------------------------------------

UNIT_ROUNDOFF = 2.0**-53


def monomial(rng, rows, cols, complex_entries=False) -> "nx._Monomial":
    """The index form of a rows x cols matrix with at most one nonzero in
    each row and each column, some lines left zero."""
    at, val = np.zeros(cols, dtype=np.intp), np.zeros(cols, dtype=np.complex128)
    live = rng.choice(cols, size=min(rows, cols) * 3 // 4, replace=False)
    at[live] = rng.choice(rows, size=live.size, replace=False)
    val[live] = rng.standard_normal(live.size) + (1j * rng.standard_normal(live.size) if complex_entries else 0.0)
    return nx._Monomial((rows, cols), at, val)


def real_valued(rng, rows, cols) -> np.ndarray:
    return rng.standard_normal((rows, cols)).astype(np.complex128)


def same_bits_up_to_zero_sign(got, want) -> bool:
    # adding +0.0 turns -0.0 into +0.0 and leaves every other value alone
    got = nx.dense(got, "a product")
    return got.shape == want.shape and (got + 0.0).tobytes() == (want + 0.0).tobytes()


def count_dense_products(monkeypatch) -> list:
    calls, real = [], np.matmul
    monkeypatch.setattr(np, "matmul", lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    return calls


def count_scans(monkeypatch) -> list:
    """The shapes of the arrays _nonzero_lines scans (past the gate)."""
    scans, real = [], nx._nonzero_lines

    def scan(a):
        lines = real(a)
        if lines is not None:
            scans.append(a.shape)
        return lines

    monkeypatch.setattr(nx, "_nonzero_lines", scan)
    return scans


def test_matmul_gathers_real_monomial_operands_bit_for_bit(monkeypatch):
    # an index-form right factor is gathered, and composed with an
    # index-form left factor into an index form
    rng = rng_for(330)
    dense = count_dense_products(monkeypatch)
    for _ in range(3):
        right = monomial(rng, 120, 90)  # zero columns and rows included
        left = monomial(rng, 90, 120)
        r, l = nx.dense(right, "right"), nx.dense(left, "left")
        wide, tall = real_valued(rng, 40, 120), real_valued(rng, 120, 40)
        cases = [
            (wide, right, wide @ r),  # columns of the right factor
            (nx.herm(tall), right, nx.herm(tall) @ r),
            (wide, nx._adjoint(left), wide @ nx.herm(l)),
            (nx._adjoint(right), right, nx.herm(r) @ r),
            (left, nx._adjoint(left), l @ nx.herm(l)),
        ]
        for a, b, want in cases:
            assert same_bits_up_to_zero_sign(nx.matmul(a, b), want)
        assert type(nx.matmul(nx._adjoint(right), right)) is nx._Monomial
        assert dense == []
        # a right factor held as an array is the GEMM, monomial or not
        for a, b in ((l, tall), (nx._adjoint(right), tall), (wide, r)):
            assert nx.matmul(a, b).tobytes() == (nx.dense(a, "a") @ b).tobytes()
        assert len(dense) == 3
        dense.clear()


def test_matmul_on_complex_monomial_operands_rounds_once_per_entry():
    # each entry is one complex multiply, within sqrt(5) * 2**-53 * |a| |b|
    # of the exact product; the GEMM's one-term sum is within the same bound,
    # so the two differ by at most twice that
    from fractions import Fraction

    rng = rng_for(331)
    right = monomial(rng, 100, 60, complex_entries=True)
    left = monomial(rng, 60, 100, complex_entries=True)
    other = crandn(rng, 30, 100)
    bound = math.sqrt(5.0) * UNIT_ROUNDOFF
    for a, b in ((other, right), (nx.dense(left, "left"), nx._adjoint(left)), (left, nx._adjoint(left))):
        got, a, b = nx.dense(nx.matmul(a, b), "a product"), nx.dense(a, "a"), nx.dense(b, "b")
        gemm, scale = a @ b, np.abs(a) @ np.abs(b)
        assert np.all(np.abs(got - gemm) <= 2 * bound * scale)
        for i, j in zip(*np.nonzero(scale)):
            exact = [0, 0]
            terms = np.flatnonzero(a[i] * b[:, j])
            assert terms.size == 1
            for x, y in zip(a[i, terms], b[terms, j]):
                xr, xi, yr, yi = (Fraction(float(t)) for t in (x.real, x.imag, y.real, y.imag))
                exact[0] += xr * yr - xi * yi
                exact[1] += xr * yi + xi * yr
            error = abs(complex(Fraction(got[i, j].real) - exact[0], Fraction(got[i, j].imag) - exact[1]))
            assert error <= bound * scale[i, j]


def test_matmul_takes_np_matmul_for_dense_operands_and_below_the_gate(monkeypatch):
    rng = rng_for(332)
    dense = count_dense_products(monkeypatch)
    scans = count_scans(monkeypatch)
    # b is past the gate (1,040 entries) and is not scanned
    a, b = crandn(rng, 70, 40), crandn(rng, 40, 26)
    assert b.size >= nx._DEFLATE_MIN_SIZE
    assert nx.matmul(a, b).tobytes() == (a @ b).tobytes() and len(dense) == 1
    # a monomial array is not read as one: nothing is scanned
    small = nx.dense(monomial(rng, 40, 25), "small")
    big = nx.dense(monomial(rng, 40, 60), "big")
    assert small.size < nx._DEFLATE_MIN_SIZE <= big.size
    assert nx.matmul(a, small).tobytes() == (a @ small).tobytes()
    assert nx.matmul(a, big).tobytes() == (a @ big).tobytes()
    assert len(dense) == 3 and scans == []


def test_inclusion_gap_scans_neither_frame(monkeypatch):
    # F1 - F2 (F2* F1) on frames held as arrays is two GEMMs, monomial or
    # not; with F1 an index form, F2* F1 is its gather
    rng = rng_for(335)
    rows = rng.permutation(120)
    f1, f2 = np.eye(120, dtype=complex)[:, rows[:80]], np.eye(120, dtype=complex)[:, rows[30:]]
    scans = count_scans(monkeypatch)
    want = f1 - f2 @ (nx.herm(f2) @ f1)
    assert nx._inclusion_gap(nx.Subspace(f1), nx.Subspace(f2)).tobytes() == want.tobytes()
    form = nx._units(120, rows[:80])
    assert same_bits_up_to_zero_sign(nx._inclusion_gap(nx.Subspace(form), nx.Subspace(f2)), want)
    assert scans == []


def test_amplification_products_refuse_a_mismatched_shape():
    # A @ F needs F's rows to be A's columns, and M @ A M's columns to be
    # A's rows, for arrays and index forms alike
    amp = nx.Amplification(nx.eye(3), 2, None, None)  # 6 x 6
    for f in (np.ones((5, 2)), np.ones(6), monomial(rng_for(336), 40, 30)):
        with pytest.raises(DimensionMismatch, match="applied to shape"):
            amp @ f
    for m in (np.ones((2, 5)), np.ones(6), monomial(rng_for(337), 30, 40)):
        with pytest.raises(DimensionMismatch, match="applied to an amplification of shape"):
            m @ amp
