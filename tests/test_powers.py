import numpy as np
import pytest

from pirep import harness as hz
from pirep import numerics as nx
from pirep import powers as pw
from pirep import shifts as sh
from pirep.correspondence import (
    SCALARS,
    FdCStarAlgebra,
    StarRepresentation,
    diagonal_correspondence,
    scalar_correspondence,
)
from pirep.covrep import CovariantRep, rep_from_tilde
from pirep.errors import IntertwinerError, NotApplicable
from pirep.numerics import Subspace
from pirep.products import chain_condition_test

from conftest import (
    count_space_builds,
    crandn,
    dense_pi_residual,
    gated_iteration_reps,
    iterated_range_by_amplification,
    range_invariance_by_kernels,
    rng_for,
    spy_subspaces,
    subspace_iteration_reps,
)


def scalar_rep(v_list, tol):
    d = v_list[0].shape[0]
    sigma = StarRepresentation(SCALARS, [d])
    return CovariantRep(scalar_correspondence(len(v_list)), sigma, [np.asarray(v, dtype=complex) for v in v_list], tol)


def haar_unitary(rng, d):
    q, r = np.linalg.qr(crandn(rng, d, d))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def backward_shift(d):
    """e_k -> e_{k-1}, e_0 -> 0."""
    return np.diag([1.0] * (d - 1), 1).astype(complex)


def forward_shift(d):
    """e_k -> e_{k+1}, e_{d-1} -> 0."""
    return np.diag([1.0] * (d - 1), -1).astype(complex)


def coisometric_row(rng, n, d):
    """V_i = U_i / sqrt(n): tilde is onto, so the representation is regular."""
    return [haar_unitary(rng, d) / np.sqrt(n) for _ in range(n)]


@pytest.fixture
def chain_breaker(tol):
    """Partial isometry whose square is not one: e0 -> e1,
    e1 -> (e0 + e2)/sqrt(2), e2 -> 0."""
    v = np.zeros((3, 3), dtype=complex)
    v[1, 0] = 1.0
    v[0, 1] = 1.0 / np.sqrt(2.0)
    v[2, 1] = 1.0 / np.sqrt(2.0)
    return scalar_rep([v], tol)


# ---------------------------------------------------------------------------
# chain conditions
# ---------------------------------------------------------------------------


def test_kernel_chain_isometric_always(tol):
    rep = scalar_rep([haar_unitary(rng_for(50), 4)], tol)
    for m in (1, 2, 3):
        assert pw.kernel_chain_condition(rep, m)


def test_kernel_chain_two_dim_nilpotent(tol):
    # oracle: explicit 2x2 kernels; N(V) = span{e0}, N(V^2) = C^2
    rep = scalar_rep([backward_shift(2)], tol)
    for m in (1, 2, 3):
        assert pw.kernel_chain_condition(rep, m)


def test_kernel_chain_fails_for_chain_breaker(chain_breaker, tol):
    # oracle: brute-force frames; V is PI but V^2 has singular value 2^(-1/2)
    assert chain_breaker.is_partial_isometric()
    assert not nx.is_partial_isometry(chain_breaker.tilde_power(2), tol)
    assert pw.kernel_chain_condition(chain_breaker, 1)
    assert not pw.kernel_chain_condition(chain_breaker, 2)
    # the brute-force statement: V maps N(V^2)^perp outside N(V)^perp
    v = chain_breaker.tilde
    cok2 = nx.range_frame(nx.herm(np.linalg.matrix_power(v, 2)), tol)
    cok1 = nx.range_frame(nx.herm(v), tol)
    escaped = (np.eye(3) - cok1 @ nx.herm(cok1)) @ v @ cok2
    assert nx.opnorm(escaped) > 0.1


def test_range_invariance_trivial_cases(tol):
    zero = scalar_rep([np.zeros((2, 2))], tol)
    unit = scalar_rep([haar_unitary(rng_for(51), 3)], tol)
    for m in (1, 2, 3):
        assert pw.range_invariance_condition(zero, m)
        assert pw.range_invariance_condition(unit, m)


def test_chain_equivalence_random_pi_reps(tol):
    # the two conditions agree for every m, unconditionally
    rng = rng_for(52)
    for trial in range(60):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(1, 3))
        u, s, vh = np.linalg.svd(crandn(rng, d, n * d), full_matrices=False)
        tilde = u @ ((s >= s.mean()).astype(float)[:, None] * vh)
        from pirep.covrep import rep_from_tilde

        rep = rep_from_tilde(scalar_correspondence(n), StarRepresentation(SCALARS, [d]), tilde, tol)
        for m in (1, 2, 3):
            assert pw.kernel_chain_condition(rep, m) == pw.range_invariance_condition(rep, m), (
                trial,
                m,
            )


def test_range_invariance_matches_the_kernel_side_oracle(tol):
    # A = I (x) tilde tilde* is self-adjoint, so A N <= N iff A N^perp <= N^perp;
    # the harness's power draws and margin-separated non-PI contractions on
    # both algebras, and a shift wide enough that its kernels are most of space(m-1)
    reps = []
    for shape in ("scalar", "two_block"):
        config = hz.TrialConfig(algebra_shape=shape)
        for index in range(25):
            reps.append(hz._draw_power_rep(hz.rng_stream(70, index), config, tol))
            rng = hz.rng_stream(71, index)
            corr, sigma = hz.draw_setting(rng, config)
            reps.append(hz.random_contractive_rep(corr, sigma, rng, tol, force_non_pi=True))
    reps.append(sh.build_shift(sh.WeightedShiftSpec(n=2, trunc=64), tol))
    verdicts = set()
    for index, rep in enumerate(reps):
        for m in (1, 2, 3, 4):
            verdict = pw.range_invariance_condition(rep, m)
            assert verdict == range_invariance_by_kernels(rep, m), (index, m)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def tilted_projection_rep(eps, tol):
    """V: e0 -> 0, e1 -> cos(eps) e0 + sin(eps) e1, e2 -> e2, e3 -> e3.
    V V* projects C^4 onto a range whose line through e0 is tilted by
    eps, and N(V) = span{e0}."""
    v = np.zeros((4, 4), dtype=complex)
    v[0, 1], v[1, 1] = np.cos(eps), np.sin(eps)
    v[2, 2] = v[3, 3] = 1.0
    return scalar_rep([v], tol)


def test_range_invariance_band_on_a_tilted_projection(tol):
    # the kernel side's sine is eps; the cokernel side keeps a direction of
    # singular value eps lying almost in N once eps passes its rank cut
    # rank_rel * 1 * 4 = 4e-10, and then its sine is about 1
    for eps, kernel_side, cokernel_side in ((1e-13, True, True), (1e-9, True, False), (1e-5, False, False)):
        rep = tilted_projection_rep(eps, tol)
        assert rep.is_partial_isometric()
        assert range_invariance_by_kernels(rep, 2) is kernel_side, eps
        assert pw.range_invariance_condition(rep, 2) is cokernel_side, eps


# ---------------------------------------------------------------------------
# power report
# ---------------------------------------------------------------------------


def assert_residuals_are_triple_products(rep, report):
    """Each residual is the dense ||T_m T_m* T_m - T_m||: bit for bit below
    the deflation gate, and within test_numerics.DEFLATED_BOUND past it."""
    for m, residual in enumerate(report.residuals, start=1):
        tm = rep.tilde_power(m)
        dense = dense_pi_residual(tm)
        if tm.size < nx._DEFLATE_MIN_SIZE:
            assert residual == dense, m
        else:
            assert abs(residual - dense) <= 1e-12, m


def test_power_report_direct_sum_all_true(tol):
    rng = rng_for(53)
    shift = forward_shift(3)
    u = haar_unitary(rng, 2)
    v = np.block([[shift, np.zeros((3, 2))], [np.zeros((2, 3)), u]])
    rep = scalar_rep([v], tol)
    report = pw.power_report(rep, 4)
    assert report.applicable
    assert all(report.pi_flags) and all(report.chain_flags) and all(report.range_flags)
    assert_residuals_are_triple_products(rep, report)


def test_power_report_residuals_on_a_deflated_shift(tol):
    rep = sh.build_shift(sh.WeightedShiftSpec(n=2, zero_set={0, 3}, trunc=64), tol)
    report = pw.power_report(rep, 3)
    assert rep.tilde_power(1).size >= nx._DEFLATE_MIN_SIZE
    assert all(report.pi_flags)
    assert_residuals_are_triple_products(rep, report)


def test_power_report_chain_breaker(chain_breaker, tol):
    report = pw.power_report(chain_breaker, 3)
    assert report.applicable
    assert report.pi_flags[0] and not report.pi_flags[1] and not report.pi_flags[2]
    assert report.chain_flags[0] and not report.chain_flags[1]
    assert report.cumulative_pi() == report.cumulative_chain()
    assert_residuals_are_triple_products(chain_breaker, report)


def test_power_report_builds_each_space_once(tol, monkeypatch):
    # two-block algebra: every space has quotient coordinates, so every
    # power goes through the general amplification path
    alg = FdCStarAlgebra([1, 1])
    corr = diagonal_correspondence(alg, left_tags=[0, 1, 1], right_tags=[1, 0, 1])
    rep = hz.random_pi_rep(corr, StarRepresentation(alg, [2, 2]), rng_for(61), tol)
    builds = count_space_builds(monkeypatch)
    report = pw.power_report(rep, 4)
    assert report.applicable
    # E^2..E^4 and their interior tensor products with H; E (x) H already exists
    assert sum(key[0] == "interior_tensor" for key in builds) == 3
    assert sum(key[0] == "tensor_product" for key in builds) == 3
    assert set(builds.values()) == {1}


def test_power_report_builds_no_kernel_frame(tol, monkeypatch):
    # every condition is decided on cokernels, frames of at most dim H columns
    rep = sh.build_shift(sh.WeightedShiftSpec(n=2, zero_set={0, 3}, trunc=64), tol)
    calls = []
    real = nx.kernel_frame
    monkeypatch.setattr(nx, "kernel_frame", lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    report = pw.power_report(rep, 4)
    assert report.range_flags == report.chain_flags == [True] * 4
    assert calls == []


def power_report_reps(tol) -> list:
    """A scalar, a two-block and a shift representation, all partially
    isometric; built afresh on each call."""
    alg = FdCStarAlgebra([1, 1])
    corr = diagonal_correspondence(alg, left_tags=[0, 1, 1], right_tags=[1, 0, 1])
    return [
        hz.random_pi_rep(scalar_correspondence(2), StarRepresentation(SCALARS, [3]), rng_for(165), tol),
        hz.random_pi_rep(corr, StarRepresentation(alg, [2, 2]), rng_for(166), tol),
        sh.build_shift(sh.WeightedShiftSpec(n=2, zero_set={0, 3}, trunc=64), tol),
    ]


def test_power_report_builds_no_amplification(tol, monkeypatch):
    # conditions (b) and (c) apply I (x) tilde and I (x) tilde tilde* block
    # by block, and the lift powers multiply by I (x) tilde from the right:
    # nothing builds a dense amplification, in identity or quotient coordinates
    from pirep import correspondence

    want = [pw.power_report(rep, 4).to_dict() for rep in power_report_reps(tol)]
    reps = power_report_reps(tol)
    for rep in reps:
        for m in range(5):
            rep.space(m)  # the tensor spaces, built before the patch (tensor_product uses eye_kron)

    def refuse(*args, **kwargs):
        raise AssertionError("a dense amplification was built")

    monkeypatch.setattr(nx.Amplification, "to_dense", refuse)
    monkeypatch.setattr(nx, "eye_kron", refuse)
    monkeypatch.setattr(correspondence, "eye_kron", refuse)
    got = [pw.power_report(rep, 4).to_dict() for rep in reps]
    assert got == want
    assert all(report["applicable"] for report in got)
    assert any(rep.space(1).embed is not None for rep in reps)


def record_spans(monkeypatch) -> list:
    """Every matrix Subspace.span is called on, from here on."""
    spanned = []
    real = Subspace.span
    monkeypatch.setattr(Subspace, "span", staticmethod(lambda columns, tol: spanned.append(columns) or real(columns, tol)))
    return spanned


def cokernel_span_counts(rep, spanned: list, n: int) -> list:
    """How often herm(tilde_m) was spanned, for m = 1..n (as an array or
    as its index form)."""
    spanned = [nx.dense(a, "a spanned set") for a in spanned]
    counts = []
    for m in range(1, n + 1):
        target = nx.herm(rep.tilde_power(m))
        counts.append(sum(a.shape == target.shape and np.array_equal(a, target) for a in spanned))
    return counts


def test_power_report_spans_each_cokernel_once(tol, monkeypatch):
    # the cokernel of tilde_m serves condition (b) at m and m + 1 and (c) at m + 1
    rep = sh.build_shift(sh.WeightedShiftSpec(n=2, zero_set={0, 3}, trunc=64), tol)
    spanned = record_spans(monkeypatch)
    pw.power_report(rep, 4)
    assert cokernel_span_counts(rep, spanned, 4) == [1, 1, 1, 1]


def test_public_predicates_span_each_cokernel_once(tol, monkeypatch):
    # as the P3.1 trial calls them: both conditions at every m, on one chain
    spanned = record_spans(monkeypatch)
    for rep in (
        sh.build_shift(sh.WeightedShiftSpec(n=2, zero_set={0, 3}, trunc=64), tol),
        hz.random_pi_rep(scalar_correspondence(2), StarRepresentation(SCALARS, [3]), rng_for(167), tol),
    ):
        spanned.clear()
        for m in range(1, 5):
            pw.kernel_chain_condition(rep, m)
            pw.range_invariance_condition(rep, m)
        assert cokernel_span_counts(rep, spanned, 4) == [1, 1, 1, 1]


def test_product_of_copies_has_the_power_report_flags(chain_breaker, tol):
    # T_m is the product of m copies of the representation, so the product
    # criterion's stage s is the power report's m = s + 1
    alg = FdCStarAlgebra([1, 1])
    corr = diagonal_correspondence(alg, left_tags=[0, 1, 1], right_tags=[1, 0, 1])
    reps = [
        chain_breaker,
        hz.random_pi_rep(scalar_correspondence(2), StarRepresentation(SCALARS, [3]), rng_for(168), tol),
        hz.random_pi_rep(corr, StarRepresentation(alg, [2, 2]), rng_for(169), tol),
    ]
    for rep in reps:
        report = pw.power_report(rep, 4)
        chain = chain_condition_test([rep] * 4)
        assert report.applicable
        assert chain.stage_pi == report.pi_flags[1:]
        assert chain.range_invariant == report.range_flags[1:]
    assert not all(pw.power_report(chain_breaker, 4).pi_flags)


def test_power_report_not_applicable(tol):
    report = pw.power_report(scalar_rep([0.5 * np.eye(2)], tol), 3)
    assert not report.applicable and report.pi_flags == []


# ---------------------------------------------------------------------------
# generalized range / regularity
# ---------------------------------------------------------------------------


def test_generalized_range_unitary_whole(tol):
    rep = scalar_rep([haar_unitary(rng_for(54), 3)], tol)
    assert pw.generalized_range(rep).dim == 3


def test_generalized_range_nilpotent_zero(tol):
    rep = scalar_rep([backward_shift(2)], tol)
    assert pw.generalized_range(rep).dim == 0


def test_generalized_range_direct_sum_picks_unitary_block(tol):
    rng = rng_for(55)
    shift = forward_shift(3)
    u = haar_unitary(rng, 2)
    v = np.block([[shift, np.zeros((3, 2))], [np.zeros((2, 3)), u]])
    rinf = pw.generalized_range(scalar_rep([v], tol))
    expected = np.zeros((5, 2), dtype=complex)
    expected[3, 0] = expected[4, 1] = 1.0
    assert rinf.dim == 2
    assert nx.opnorm(rinf.projector() - Subspace(expected).projector()) <= 1e-10


def test_is_regular_cases(tol):
    rng = rng_for(56)
    assert pw.is_regular(scalar_rep([haar_unitary(rng, 3)], tol))  # kernel is zero
    # pure truncated scalar shift: Rinf = 0 but the kernel is not
    assert not pw.is_regular(scalar_rep([backward_shift(3)], tol))
    # coisometric row: tilde onto, hence regular; oracle = explicit block computation
    rep = scalar_rep(coisometric_row(rng, 2, 3), tol)
    assert nx.opnorm(rep.tilde @ nx.herm(rep.tilde) - np.eye(3)) <= 1e-10
    assert pw.is_regular(rep)
    assert pw.generalized_range(rep).dim == 3


def test_regular_iff_surjective_in_finite_dim(tol):
    # structural fact used by the fixtures: regular <=> tilde onto
    rng = rng_for(57)
    for trial in range(40):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(1, 3))
        from pirep.covrep import rep_from_tilde

        tilde = crandn(rng, d, n * d)
        if trial % 2:
            tilde[-1] = 0.0  # force a range defect
        rep = rep_from_tilde(scalar_correspondence(n), StarRepresentation(SCALARS, [d]), tilde, tol)
        surjective = nx.range_frame(tilde, tol).shape[1] == d
        assert pw.is_regular(rep) == surjective, trial


def test_iterated_range_matches_the_dense_oracle(tol):
    # X(E (x) S) spanned from the frame of S against the span of the dense
    # X(I (x) P_S), step by step to the fixed point, for X = tilde and its
    # Cauchy dual; on scalar, shift (+) unitary, regular and quotient-coordinate reps
    from pirep.wold import cauchy_dual

    dims = set()
    for index, rep in enumerate(subspace_iteration_reps(tol)):
        for x in (rep.tilde, cauchy_dual(rep)):
            got = pw.iterated_range(rep, x)
            want = iterated_range_by_amplification(rep, x)
            assert got.dim == want.dim, index
            assert nx.opnorm(got.projector() - want.projector()) <= 1e-12, index
            dims.add(0 < got.dim < rep.h_dim)
    assert dims == {True, False}


def test_iterated_range_past_the_gate_matches_the_dense_oracle(tol, monkeypatch):
    # the same comparison on representations whose X(E (x) H) is scanned:
    # each iteration scans its X once and takes exactly one step, from
    # every row (nx._RowSteps), then the peel or, where either refuses, the
    # dense steps from H; both meet the oracle
    from pirep.wold import cauchy_dual

    scans, steps, peels = spy_row_steps(monkeypatch)
    refused = 0
    for index, rep in enumerate(gated_iteration_reps(tol)):
        assert rep.tilde.size >= nx._DEFLATE_MIN_SIZE and rep.h_dim**2 >= nx._DEFLATE_MIN_SIZE
        for x in (rep.tilde, cauchy_dual(rep)):
            for seen in (scans, steps, peels):
                seen.clear()
            got = pw.iterated_range(rep, x)
            want = iterated_range_by_amplification(rep, x)
            assert got.dim == want.dim, index
            assert nx.opnorm(got.projector() - want.projector()) <= 1e-12, index
            assert len(scans) == 1 and len(steps) == 1 and len(peels) <= 1, index
            refused += steps[0][1] is None or peels[0][1] is None
    assert 0 < refused < 2 * 5


def spy_row_steps(monkeypatch) -> tuple:
    """Record every scan of X (one per ``nx._RowSteps``), every step as
    (stepper, rows out) and every peel as (stepper, rows out)."""
    scans, steps, peels = [], [], []
    real_init, real_step, real_peel = nx._RowSteps.__init__, nx._RowSteps.step, nx._RowSteps.peel

    def init(self, *args):
        scans.append(self)
        real_init(self, *args)

    def step(self, *args):
        out = real_step(self, *args)
        steps.append((self, out))
        return out

    def peel(self, *args):
        out = real_peel(self, *args)
        peels.append((self, out))
        return out

    monkeypatch.setattr(nx._RowSteps, "__init__", init)
    monkeypatch.setattr(nx._RowSteps, "step", step)
    monkeypatch.setattr(nx._RowSteps, "peel", peel)
    return scans, steps, peels


def unit_vector_frame(frame) -> bool:
    """Every column of the frame holds one nonzero, and it is 1."""
    f = nx.dense(frame, "a frame")
    return np.array_equal(np.count_nonzero(f, axis=0), np.ones(f.shape[1])) and set(f[f != 0]) == {1.0}


def test_shift_plus_unitary_ranges_are_unit_vectors(tol, monkeypatch):
    # on the q = 60, u = 20 shift (+) unitary the 20 x 20 unitary core
    # fills its rows, and no shift column holds a core entry, so the
    # iteration, for tilde and for its Cauchy dual, takes one step from
    # every row on its one scan of X and peels the shift chain to the core
    # rows: the core's singular values are taken once, every frame is a set
    # of unit vectors held as its rows, and one Subspace is built, at the end
    from pirep.wold import cauchy_dual

    rep = hz.shift_plus_unitary_fixture(rng_for(99), tol, q=60, u_dim=20)
    t_dual = cauchy_dual(rep)
    svds, real_svd = [], nx._svd
    monkeypatch.setattr(nx, "_svd", lambda m, full, compute_uv=True: svds.append((m.shape, compute_uv)) or real_svd(m, full, compute_uv))
    scans, steps, peels = spy_row_steps(monkeypatch)
    built = []
    spy_subspaces(monkeypatch, built.append)
    for x in (rep.tilde, t_dual):
        for seen in (svds, steps, peels, scans, built):
            seen.clear()
        got = pw.iterated_range(rep, x)
        assert svds == [((20, 20), False)]
        assert len(scans) == 1 and [out.size for _, out in steps] == [79]
        assert [out.tolist() for _, out in peels] == [list(range(60, 80))]
        assert all(unit_vector_frame(nx._units(rep.h_dim, out)) for out in [steps[0][1], peels[0][1]])
        assert [s.dim for s in built] == [20] and built[0] is got and type(got._frame) is nx._Monomial
        want = iterated_range_by_amplification(rep, x)
        assert got.dim == want.dim == 20
        assert nx.opnorm(got.projector() - want.projector()) <= 1e-12


def test_iterated_range_on_a_shift_stays_on_the_index_path_past_the_gate(tol, monkeypatch):
    # weighted shifts with n = 2, trunc 40 and n = 1 and 3, trunc 216: X F
    # has no core (every entry is isolated), so the step from every row
    # keeps the rows of the range, all but the root, by descending modulus,
    # byte for byte the split SVD's unit vectors; the peel then drops every
    # row (each chain runs out at the truncation), and an empty fixed point
    # has no frame order to match, so it answers no rows below the gate
    # too: no dense step, and R^infty is 0, as the oracle finds
    from pirep.wold import cauchy_dual

    reps = [next(r for r in gated_iteration_reps(tol) if r.h_dim == 41 and r.corr.module_dim == 2)]
    reps += [sh.build_shift(sh.WeightedShiftSpec(n=n, trunc=216), tol) for n in (1, 3)]
    assert [rep.tilde.shape for rep in reps] == [(41, 82), (217, 217), (217, 651)]
    _, steps, peels = spy_row_steps(monkeypatch)
    dense, real = [], pw._span_e_tensor
    monkeypatch.setattr(pw, "_span_e_tensor", lambda rep_, s, x_: dense.append(s.dim) or real(rep_, s, x_))
    for rep in reps:
        h, n = rep.h_dim, rep.corr.module_dim
        for x in (rep.tilde, cauchy_dual(rep)):
            steps.clear()
            peels.clear()
            got = pw.iterated_range(rep, x)
            assert [out.size for _, out in steps] == [h - 1]
            assert [out.tolist() for _, out in peels] == [[]] and not dense and got.dim == 0
            (_, out), = steps
            columns = np.arange(n * h)
            product = nx.matmul(x, nx._Monomial((n * h, columns.size), columns, np.ones(columns.size, dtype=complex)))
            want = nx._range_frame_cut_as(product, (h, n * h), tol, 1.0)
            assert nx.dense(want, "a frame").tobytes() == nx.dense(nx._units(h, out), "a frame").tobytes()
            assert iterated_range_by_amplification(rep, x).dim == 0


def test_a_chain_into_the_core_refuses_the_peel_and_goes_dense(tol, monkeypatch):
    # the q = 60, u = 20 shift (+) unitary with its chain's last column
    # sent into the core (x[q, q - 1] = 1): the peel would drop that column,
    # which holds a core entry, so it refuses after the one step, and the
    # dense iteration from H walks the chain off step by step to the 20
    # core rows, unit vectors in row order, as the oracle finds
    q, u = 60, 20
    rep = hz.shift_plus_unitary_fixture(rng_for(99), tol, q=q, u_dim=u)
    x = np.array(rep.tilde)
    x[q, q - 1] = 1.0
    _, steps, peels = spy_row_steps(monkeypatch)
    got = pw.iterated_range(rep, x)
    assert len(steps) == 1 and [out for _, out in peels] == [None]
    assert type(got._frame) is nx._Monomial and nx._unit_rows(got._frame).tolist() == list(range(q, q + u))
    want = iterated_range_by_amplification(rep, x)
    assert want.dim == u and nx.opnorm(got.projector() - want.projector()) <= 1e-12


def test_a_conjugated_shift_plus_unitary_falls_back_to_the_split_svd(tol, monkeypatch):
    # U (S (+) W) U* has no isolated entry: with the gate lowered to its 121
    # entries, its square 11 x 11 lift of rank 10 does not fill its rows,
    # and the frame is the split SVD's with vectors, bit for bit
    rep = subspace_iteration_reps(tol)[-1]
    monkeypatch.setattr(nx, "_DEFLATE_MIN_SIZE", rep.tilde.size)
    seen, real = [], nx._range_frame_cut_as
    monkeypatch.setattr(nx, "_range_frame_cut_as", lambda a, *args: seen.append((a, *args)) or real(a, *args))
    pw.iterated_range(rep, rep.tilde)
    tried = [call for call in seen if call[0].size >= nx._DEFLATE_MIN_SIZE and call[0].shape[0] <= call[0].shape[1]]
    assert [call[0].shape for call in tried] == [(11, 11)]
    for a, shape, tol_, floor in tried:
        split = nx._SplitSVD(a)
        frame = real(a, shape, tol_, floor)
        assert frame.shape == (11, 10) and frame.tobytes() == split.left(split.cut(shape, tol_, floor)[1]).tobytes()


def test_e_tensor_spans_match_the_dense_amplification(tol):
    # E (x) S inside space(1), as is_regular builds it for S = R^infty, is the
    # range of the amplified projector I (x) P_S
    quotient = 0
    for index, rep in enumerate(subspace_iteration_reps(tol)):
        quotient += rep.space(1).embed is not None
        for s in (pw.generalized_range(rep), rep.range_subspace(1), nx.ortho_complement(rep.range_subspace(1), tol)):
            got = pw._span_e_tensor(rep, s, None)
            want = Subspace.span(rep.amplified(s.projector(), 1, 0, 0).to_dense(), tol)
            assert got.dim == want.dim, index
            assert nx.opnorm(got.projector() - want.projector()) <= 1e-12, index
    assert quotient >= 8


def test_thin_span_keeps_the_dense_rank_cut(tol):
    # X(E (x) span{e0}) is spanned by 3 columns with singular values 1 and
    # 4.5e-10, between the cut of that 2 x 3 matrix (3e-10) and the cut of
    # the dense 2 x 6 X(I (x) P) it stands for (6e-10): both drop it
    v0 = np.diag([1.0, 0.0]).astype(complex)
    v1 = np.zeros((2, 2), dtype=complex)
    v1[1, 0] = 4.5e-10
    rep = scalar_rep([v0, v1, np.zeros((2, 2))], tol)
    s = Subspace(np.eye(2, 1, dtype=complex))
    dense = Subspace.span(rep.tilde @ rep.amplified(s.projector(), 1, 0, 0).to_dense(), tol)
    assert pw._span_e_tensor(rep, s, rep.tilde).dim == dense.dim == 1


def test_subspace_iterations_build_no_amplification(tol, monkeypatch):
    from pirep import covrep, wold

    calls = []
    real = covrep.amplify
    monkeypatch.setattr(covrep, "amplify", lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    alg = FdCStarAlgebra([1, 1])
    corr = diagonal_correspondence(alg, left_tags=[0, 1, 1], right_tags=[1, 0, 1])
    rep = hz.random_contractive_rep(corr, StarRepresentation(alg, [2, 3]), rng_for(97), tol)
    assert rep.space(1).embed is not None
    pw.iterated_range(rep, rep.tilde)
    pw.is_regular(rep)
    wold.generated_invariant_subspace(rep, rep.tilde, nx.ortho_complement(rep.range_subspace(1), tol))
    assert calls == []


# ---------------------------------------------------------------------------
# generalized inverses
# ---------------------------------------------------------------------------


def test_gen_inverse_pinv_always(tol):
    rng = rng_for(58)
    rep = scalar_rep([crandn(rng, 3, 3) / 2 for _ in range(2)], tol)
    res = pw.generalized_inverse_check(rep, nx.pseudoinverse(rep.tilde, tol), m_bound=3)
    assert res.is_gen_inverse


def test_gen_inverse_takes_each_scale_only_past_eq_rel(monkeypatch, tol):
    # the verdict is res <= eq_rel * max(1, ||m||) for (res_s, S) and
    # (res_t, tilde); a norm is taken only for a residual past eq_rel
    rng = rng_for(63)
    rep = scalar_rep(coisometric_row(rng, 2, 3), tol)
    calls = []
    real = pw.opnorm
    monkeypatch.setattr(pw, "opnorm", lambda m: calls.append(np.shape(m)) or real(m))
    assert pw.generalized_inverse_check(rep, nx.herm(rep.tilde), m_bound=1).is_gen_inverse
    assert len(calls) == 2  # the two residuals
    calls.clear()
    # S = 2 tilde*: S tilde S - S = 2 tilde*, so res_s = 2 > eq_rel * ||S||
    assert not pw.generalized_inverse_check(rep, 2.0 * nx.herm(rep.tilde), m_bound=1).is_gen_inverse
    assert len(calls) == 3  # the two residuals, then ||S||, which settles it


def test_gen_inverse_zero_rejected(tol):
    rng = rng_for(59)
    rep = scalar_rep([haar_unitary(rng, 2)], tol)
    res = pw.generalized_inverse_check(rep, np.zeros((2, 2)), m_bound=3)
    assert not res.is_gen_inverse


def test_gen_inverse_lemma_on_regular_pi(tol):
    # regular PI fixture with S = tilde*: the kernel-step inclusion holds
    rng = rng_for(60)
    rep = scalar_rep(coisometric_row(rng, 2, 3), tol)
    assert rep.is_partial_isometric()
    res = pw.generalized_inverse_check(rep, nx.herm(rep.tilde), m_bound=3)
    assert res.is_gen_inverse and res.lemma_holds_up_to == 3


def lemma_holds_up_to_by_kernels(rep, s, m_bound: int) -> int:
    """The kernel-step loop of generalized_inverse_check with no regularity
    gate, each inclusion decided against the kernel N(tilde_(m+1))."""
    up_to = 0
    for m in range(1, m_bound + 1):
        moved = nx.image(rep.amplified(s, m, 0, 1), rep.kernel_subspace(m), rep.tol)
        if not nx.is_subset(moved, rep.kernel_subspace(m + 1), rep.tol):
            break
        up_to = m
    return up_to


def reflexive_generalized_inverse(rng, t, tol):
    """S = (T^+ + (I - T^+ T) Y) T (T^+ + Z (I - T T^+)) for random Y and Z:
    S T S = S and T S T = T, since T (I - T^+ T) = 0 = (I - T T^+) T."""
    p = nx.pseudoinverse(t, tol)
    k = (np.eye(t.shape[1]) - p @ t) @ crandn(rng, t.shape[1], t.shape[0])
    return (p + k) @ t @ (p + crandn(rng, t.shape[1], t.shape[0]) @ (np.eye(t.shape[0]) - t @ p))


def test_gen_inverse_lemma_matches_the_kernel_inclusions(tol, monkeypatch):
    # 50 regular fixtures, 50 root instances and 30 lifts of rank below
    # dim H, each with a random reflexive generalized inverse S; the gate is
    # lifted so that the reps that are not regular reach the lemma too,
    # where it may fail at some m (the regular fixtures' hold throughout)
    rng = rng_for(70)
    reps = [hz.regular_fixture(rng, tol, want_pi=bool(index % 2)) for index in range(50)]
    reps += [hz._root_instance(rng, hz.TrialConfig(), tol) for _ in range(50)]
    for _ in range(30):
        d, n = int(rng.integers(2, 5)), int(rng.integers(1, 3))
        tilde = crandn(rng, d, d - 1) @ crandn(rng, d - 1, n * d)
        reps.append(rep_from_tilde(scalar_correspondence(n), StarRepresentation(SCALARS, [d]), tilde / nx.opnorm(tilde), tol))
    monkeypatch.setattr(pw, "is_regular", lambda rep: True)
    got, want = [], []
    for rep in reps:
        s = reflexive_generalized_inverse(rng, rep.tilde, tol)
        res = pw.generalized_inverse_check(rep, s, m_bound=3)
        assert res.is_gen_inverse
        got.append(res.lemma_holds_up_to)
        want.append(lemma_holds_up_to_by_kernels(rep, s, 3))
    assert got == want
    assert set(got[:50]) == {3} and {0, 3} < set(got[50:])


def test_gen_inverse_lemma_takes_no_kernel_of_the_next_power(tol, monkeypatch):
    # on the n = 3 coisometric row over C^4 the lemma at m = 3 moves the
    # memoized cokernel of tilde_3 (108 x 4) by I (x) (tilde S)*: no SVD
    # has more columns than the lift's 12, where a kernel frame of tilde_3
    # or tilde_4 has 108 or 324
    rep = hz.coisometric_row_fixture(np.random.default_rng(0), tol, 3, 4)
    calls, real = [], nx._svd
    monkeypatch.setattr(nx, "_svd", lambda m, full, *args, **kwargs: calls.append(m.shape) or real(m, full, *args, **kwargs))
    assert pw.generalized_inverse_check(rep, nx.pseudoinverse(rep.tilde, tol), m_bound=3).lemma_holds_up_to == 3
    assert (108, 4) in calls
    assert max(cols for _, cols in calls) == 12


def test_range_invariance_and_the_lemma_share_the_cokernel_test(tol, monkeypatch):
    # both move R(T_j*) by I (x) X and test the inclusion in one helper:
    # X = tilde tilde* at j = m - 1, and X = (tilde S)* at j = m
    rep = hz.coisometric_row_fixture(np.random.default_rng(1), tol, 2, 3)
    s = nx.pseudoinverse(rep.tilde, tol)
    calls, real = [], pw._cokernel_invariant
    monkeypatch.setattr(pw, "_cokernel_invariant", lambda chain, m, x: calls.append((m, x)) or real(chain, m, x))
    assert all(pw.range_invariance_condition(rep, m) for m in (1, 2, 3))
    assert [m for m, _ in calls] == [0, 1, 2]
    assert all(np.allclose(x, rep.tilde @ nx.herm(rep.tilde)) for _, x in calls)
    calls.clear()
    assert pw.generalized_inverse_check(rep, s, m_bound=3).lemma_holds_up_to == 3
    assert [m for m, _ in calls] == [1, 2, 3]
    assert all(np.array_equal(x, nx.herm(rep.tilde @ s)) for _, x in calls)


def test_gen_inverse_lemma_refuses_an_s_that_does_not_intertwine(tol):
    # S = tilde^+ + (I - tilde^+ tilde) Y tilde tilde^+ is a generalized
    # inverse of the onto lift, and tilde S = I intertwines, so only the
    # decision on S itself refuses it, inside the regular branch
    alg = FdCStarAlgebra([1, 1])
    corr = diagonal_correspondence(alg, left_tags=[0, 1, 1], right_tags=[1, 0, 1])
    rng = rng_for(72)
    rep = hz.random_contractive_rep(corr, StarRepresentation(alg, [2, 2]), rng, tol)
    t, p = rep.tilde, nx.pseudoinverse(rep.tilde, tol)
    s = p + (np.eye(t.shape[1]) - p @ t) @ crandn(rng, t.shape[1], t.shape[0]) @ t @ p
    assert pw.is_regular(rep) and rep.space(1).embed is not None
    assert np.allclose(t @ s, np.eye(t.shape[0]))
    assert pw.generalized_inverse_check(rep, p, m_bound=3).lemma_holds_up_to == 3
    with pytest.raises(IntertwinerError):
        pw.generalized_inverse_check(rep, s, m_bound=3)
    assert pw.generalized_inverse_check(rep, s, m_bound=0).is_gen_inverse  # the lemma is vacuous


# ---------------------------------------------------------------------------
# regular <=> power criterion
# ---------------------------------------------------------------------------


def test_regular_pi_gives_all_powers(tol):
    rng = rng_for(61)
    rep = scalar_rep(coisometric_row(rng, 2, 3), tol)
    res = pw.regular_pi_iff_power_pi(rep, bound=4)
    assert res.is_pi and res.is_power_pi_up_to == 4


def count_pi_verdicts(monkeypatch) -> list:
    calls = []
    real = nx.is_partial_isometry
    monkeypatch.setattr(nx, "is_partial_isometry", lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    return calls


def test_regular_criterion_takes_the_lift_verdict_once(tol, monkeypatch):
    # the lift's verdict serves is_pi and the first power: one verdict per power
    rep = scalar_rep(coisometric_row(rng_for(61), 2, 3), tol)
    calls = count_pi_verdicts(monkeypatch)
    res = pw.regular_pi_iff_power_pi(rep, bound=4)
    assert res.is_pi and res.is_power_pi_up_to == 4
    assert len(calls) == 4


def test_regular_non_pi_contraction(tol):
    rng = rng_for(62)
    u, s, vh = np.linalg.svd(crandn(rng, 3, 3), full_matrices=False)
    v = u @ ((0.3 + 0.5 * s / s.max())[:, None] * vh)  # invertible, spectrum in (0.3, 0.8]
    res = pw.regular_pi_iff_power_pi(scalar_rep([v], tol), bound=3)
    assert not res.is_pi


def test_regular_criterion_not_applicable(tol):
    with pytest.raises(NotApplicable):
        pw.regular_pi_iff_power_pi(scalar_rep([backward_shift(3)], tol), bound=4)


def test_unitary_both_true(tol):
    res = pw.regular_pi_iff_power_pi(scalar_rep([haar_unitary(rng_for(63), 3)], tol), bound=4)
    assert res.is_pi and res.is_power_pi_up_to == 4


# ---------------------------------------------------------------------------
# root criterion
# ---------------------------------------------------------------------------


def test_root_criterion_forward_direction(tol):
    rng = rng_for(64)
    shift = forward_shift(3)
    rep = scalar_rep([shift], tol)
    res = pw.root_criterion(rep, 2)
    assert res.hypothesis_ok and res.cond_a and res.cond_b and res.rep_is_pi


def test_root_criterion_hand_fixture(tol):
    # V = [[0, 2^(-1/2)], [0, 0]]: V^2 = 0 is a partial isometry, D = span{e1},
    # ||V e1|| = 2^(-1/2), so cond_a fails and the representation is not PI
    v = np.array([[0.0, 1.0 / np.sqrt(2.0)], [0.0, 0.0]])
    rep = scalar_rep([v], tol)
    res = pw.root_criterion(rep, 2)
    assert res.hypothesis_ok
    assert not res.cond_a
    assert not res.rep_is_pi
    np.testing.assert_allclose(res.isometry_defect, 0.5, atol=1e-12)


def test_root_criterion_equivalence_random(tol):
    # nilpotent-of-order-2 construction: tilde_2 = 0 always; the criterion
    # must match partial isometry of the representation itself
    rng = rng_for(65)
    seen = {True: 0, False: 0}
    for trial in range(60):
        k1 = int(rng.integers(1, 3))
        k2 = int(rng.integers(1, 3))
        n = int(rng.integers(1, 3))
        # one k2 x (n k1) row decides the whole lift: PI or strict contraction
        row = crandn(rng, k2, n * k1)
        if trial % 2 == 0:
            u, s, vh = np.linalg.svd(row, full_matrices=False)
            row = u @ ((s >= s.mean()).astype(float)[:, None] * vh)
        else:
            row = row / (2.0 * max(nx.opnorm(row), 1.0))
        blocks = []
        for j in range(n):
            b = row[:, j * k1 : (j + 1) * k1]
            blocks.append(np.block([
                [np.zeros((k1, k1), dtype=complex), np.zeros((k1, k2), dtype=complex)],
                [b, np.zeros((k2, k2), dtype=complex)],
            ]))
        rep = scalar_rep(blocks, tol)
        res = pw.root_criterion(rep, 2)
        assert res.hypothesis_ok, trial
        assert (res.cond_a and res.cond_b) == res.rep_is_pi, trial
        seen[res.rep_is_pi] += 1
    assert seen[True] > 0 and seen[False] > 0


def test_root_criterion_not_applicable_cases(tol):
    rng = rng_for(66)
    big = scalar_rep([2.0 * haar_unitary(rng, 2)], tol)
    with pytest.raises(NotApplicable):
        pw.root_criterion(big, 2)


# ---------------------------------------------------------------------------
# kernel match criterion
# ---------------------------------------------------------------------------


def test_kernel_match_isometric(tol):
    rep = scalar_rep([haar_unitary(rng_for(67), 3)], tol)
    res = pw.kernel_match_criterion(rep, 2)
    assert res.applicable and res.rep_is_pi


def test_kernel_match_not_applicable_for_strict_nesting(tol):
    v = np.array([[0.0, 1.0 / np.sqrt(2.0)], [0.0, 0.0]])
    res = pw.kernel_match_criterion(scalar_rep([v], tol), 2)
    assert not res.applicable  # N(V) is strictly inside N(V^2): no assertion made


def test_kernel_match_padded_isometries(tol):
    # padding a unitary with an aligned kernel block keeps N(I (x) V) = N(V_2)
    rng = rng_for(68)
    for trial in range(20):
        d = int(rng.integers(1, 4))
        pad = int(rng.integers(1, 3))
        u = haar_unitary(rng, d)
        v = np.block([
            [u, np.zeros((d, pad), dtype=complex)],
            [np.zeros((pad, d), dtype=complex), np.zeros((pad, pad), dtype=complex)],
        ])
        rep = scalar_rep([v], tol)
        res = pw.kernel_match_criterion(rep, 2)
        assert res.applicable and res.rep_is_pi, trial


def kernel_match_by_dense_kernels(rep) -> bool:
    """``applicable`` of kernel_match_criterion with I_E (x) tilde built
    (``to_dense``) and its kernel taken from the whole matrix."""
    n_amp = Subspace.kernel(rep.amplified(rep.tilde, 1, 1, 0).to_dense(), rep.tol)
    n_2 = rep.kernel_subspace(2)
    return nx.is_subset(n_amp, n_2, rep.tol) and nx.is_subset(n_2, n_amp, rep.tol)


def test_kernel_match_matches_the_dense_kernels(tol):
    # 50 regular fixtures, 50 root instances and 400 two-block draws, of
    # which those the criterion takes have quotient coordinates on space(1)
    # (R((I_E (x) tilde)*) spanned from the built adjoint); the criterion's
    # own refusals (not full, not contractive, tilde_2 not a partial
    # isometry) are left out
    rng = rng_for(71)
    reps = [hz.regular_fixture(rng, tol, want_pi=bool(index % 2)) for index in range(50)]
    reps += [hz._root_instance(rng, hz.TrialConfig(), tol) for _ in range(50)]
    config = hz.TrialConfig(algebra_shape="two_block")
    for index in range(400):
        draw = hz.rng_stream(90, index)
        reps.append(hz.random_pi_rep(*hz.draw_setting(draw, config), draw, tol))
    got, want, with_coordinates = [], [], set()
    for rep in reps:
        try:
            got.append(pw.kernel_match_criterion(rep, 2).applicable)
        except NotApplicable:
            continue
        want.append(kernel_match_by_dense_kernels(rep))
        if rep.space(1).embed is not None:
            with_coordinates.add(got[-1])
    assert got == want and len(got) >= 50 and True in got and False in got
    assert with_coordinates == {True, False}


def test_amplified_cokernel_keeps_the_dense_rank_cut(tol):
    # the singular value 8e-10 of Y lies above Y's own cut (4 * rank_rel) and
    # below that of I_3 (x) Y (12 * rank_rel): the dense R((I_3 (x) Y)*)
    # drops its direction in each block, and so does the cokernel from the block
    rng = rng_for(74)
    u, _ = np.linalg.qr(crandn(rng, 4, 4))
    v, _ = np.linalg.qr(crandn(rng, 4, 4))
    y = u @ np.diag([1.0, 0.5, 8e-10, 0.0]) @ nx.herm(v)
    amp = nx.Amplification(y, 3, None, None)
    assert Subspace.span(nx.herm(y), tol).dim == 3
    got, want = pw._amplified_cokernel(amp, tol), Subspace.span(nx.herm(amp.to_dense()), tol)
    assert got.dim == want.dim == 6
    assert nx.is_subset(got, want, tol) and nx.is_subset(want, got, tol)


def test_kernel_match_takes_no_kernel_frame(tol, monkeypatch):
    # the kernel equality is read on cokernels: in identity coordinates
    # I_N (x) R(tilde*) from the block, with no dense amplification
    rng = rng_for(73)
    reps = [scalar_rep([haar_unitary(rng, 3)], tol), scalar_rep([np.pad(haar_unitary(rng, 2), ((0, 1), (0, 1)))], tol)]
    reps += [hz._root_instance(rng, hz.TrialConfig(), tol) for _ in range(20)]

    def verdicts() -> list:
        out = []
        for rep in reps:
            try:
                out.append(pw.kernel_match_criterion(rep, 2).applicable)
            except NotApplicable:
                out.append(None)
        return out

    def refuse(*args, **kwargs):
        raise AssertionError("a kernel frame or a dense amplification was built")

    want = verdicts()
    monkeypatch.setattr(nx, "kernel_frame", refuse)
    monkeypatch.setattr(nx.Amplification, "to_dense", refuse)
    assert verdicts() == want and True in want and False in want


# ---------------------------------------------------------------------------
# orthogonality companion
# ---------------------------------------------------------------------------


def test_orthogonality_implication_on_fixtures(tol):
    rng = rng_for(69)
    fixtures = [
        scalar_rep([forward_shift(4)], tol),
        scalar_rep([haar_unitary(rng, 3)], tol),
        scalar_rep([np.array([[0.0, 1.0 / np.sqrt(2.0)], [0.0, 0.0]])], tol),
    ]
    for rep in fixtures:
        out = pw.orthogonality_from_chain(rep, 2)
        assert out["implication_holds"]
