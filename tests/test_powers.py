import numpy as np
import pytest

from pirep import harness as hz
from pirep import numerics as nx
from pirep import powers as pw
from pirep.correspondence import (
    SCALARS,
    FdCStarAlgebra,
    StarRepresentation,
    diagonal_correspondence,
    scalar_correspondence,
)
from pirep.covrep import CovariantRep
from pirep.errors import NotApplicable
from pirep.numerics import Subspace

from conftest import count_space_builds, crandn, rng_for


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
    cok1_proj = nx.range_projector(nx.herm(v), tol)
    escaped = (np.eye(3) - cok1_proj) @ v @ cok2
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


# ---------------------------------------------------------------------------
# power report
# ---------------------------------------------------------------------------


def assert_residuals_are_triple_products(rep, report):
    for m, residual in enumerate(report.residuals, start=1):
        tm = rep.tilde_power(m)
        assert residual == nx.opnorm(tm @ nx.herm(tm) @ tm - tm), m


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
    rep = hz.random_pi_rep(corr, StarRepresentation(alg, [2, 2]), rng_for(61), tol, allow_zero=False)
    builds = count_space_builds(monkeypatch)
    report = pw.power_report(rep, 4)
    assert report.applicable
    # E^2..E^4 and their interior tensor products with H; E (x) H already exists
    assert sum(key[0] == "interior_tensor" for key in builds) == 3
    assert sum(key[0] == "tensor_product" for key in builds) == 3
    assert set(builds.values()) == {1}


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


# ---------------------------------------------------------------------------
# generalized inverses
# ---------------------------------------------------------------------------


def test_gen_inverse_pinv_always(tol):
    rng = rng_for(58)
    rep = scalar_rep([crandn(rng, 3, 3) / 2 for _ in range(2)], tol)
    res = pw.generalized_inverse_check(rep, nx.pseudoinverse(rep.tilde, tol))
    assert res.is_gen_inverse


def test_gen_inverse_zero_rejected(tol):
    rng = rng_for(59)
    rep = scalar_rep([haar_unitary(rng, 2)], tol)
    res = pw.generalized_inverse_check(rep, np.zeros((2, 2)))
    assert not res.is_gen_inverse


def test_gen_inverse_lemma_on_regular_pi(tol):
    # regular PI fixture with S = tilde*: the kernel-step inclusion holds
    rng = rng_for(60)
    rep = scalar_rep(coisometric_row(rng, 2, 3), tol)
    assert rep.is_partial_isometric()
    res = pw.generalized_inverse_check(rep, nx.herm(rep.tilde), m_bound=3)
    assert res.is_gen_inverse and res.lemma_holds_up_to == 3


# ---------------------------------------------------------------------------
# regular <=> power criterion
# ---------------------------------------------------------------------------


def test_regular_pi_gives_all_powers(tol):
    rng = rng_for(61)
    rep = scalar_rep(coisometric_row(rng, 2, 3), tol)
    res = pw.regular_pi_iff_power_pi(rep, bound=4)
    assert res.is_pi and res.is_power_pi_up_to == 4


def test_regular_non_pi_contraction(tol):
    rng = rng_for(62)
    u, s, vh = np.linalg.svd(crandn(rng, 3, 3), full_matrices=False)
    v = u @ ((0.3 + 0.5 * s / s.max())[:, None] * vh)  # invertible, spectrum in (0.3, 0.8]
    res = pw.regular_pi_iff_power_pi(scalar_rep([v], tol), bound=3)
    assert not res.is_pi


def test_regular_criterion_not_applicable(tol):
    with pytest.raises(NotApplicable):
        pw.regular_pi_iff_power_pi(scalar_rep([backward_shift(3)], tol))


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
