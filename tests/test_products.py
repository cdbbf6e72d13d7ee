import gc
import weakref

import numpy as np
import pytest

from pirep import correspondence, covrep
from pirep import harness as hz
from pirep import numerics as nx
from pirep.correspondence import (
    SCALARS,
    FdCStarAlgebra,
    StarRepresentation,
    diagonal_correspondence,
    scalar_correspondence,
)
from pirep.covrep import CovariantRep
from pirep.errors import DimensionMismatch, NotApplicable, PirepError, ResourceLimit
from pirep.numerics import Tolerance
from pirep.products import (
    ProductRep,
    chain_condition_test,
    commuting_projection_test,
    defect_dilation_test,
    pinv_factorization_test,
    single_defect_dilation,
    sufficient_intertwining_check,
)

from conftest import count_space_builds, crandn, dense_budget, rng_for


def one_dim_rep(v, tol):
    """Scalar-module representation (E = C) from a single matrix."""
    sigma = StarRepresentation(SCALARS, [v.shape[0]])
    return CovariantRep(scalar_correspondence(1), sigma, [np.asarray(v, dtype=complex)], tol)


def haar_unitary(rng, d):
    q, r = np.linalg.qr(crandn(rng, d, d))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_pi_matrix(rng, d):
    u, s, vh = np.linalg.svd(crandn(rng, d, d), full_matrices=False)
    return u @ ((s >= s.mean()).astype(float)[:, None] * vh)


@pytest.fixture
def counterexample_pair(tol):
    """V1 = diag(1, 0) and V2 : e0 -> (e0 + e1)/sqrt(2): both partial
    isometries whose product has the singular value 1/sqrt(2)."""
    v1 = np.diag([1.0, 0.0])
    v2 = np.array([[1.0, 0.0], [1.0, 0.0]]) / np.sqrt(2.0)
    return one_dim_rep(v1, tol), one_dim_rep(v2, tol)


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------


def test_product_of_isometric_factors_is_isometric(tol):
    rng = rng_for(30)
    u1, u2 = haar_unitary(rng, 3), haar_unitary(rng, 3)
    prod = ProductRep([one_dim_rep(u1, tol), one_dim_rep(u2, tol)])
    assert nx.is_isometry(prod.tilde_power(2), tol)
    np.testing.assert_allclose(prod.tilde_power(2), u1 @ u2, atol=1e-12)


def test_product_with_zero_factor_is_zero(tol):
    rng = rng_for(31)
    prod = ProductRep([one_dim_rep(haar_unitary(rng, 2), tol), one_dim_rep(np.zeros((2, 2)), tol)])
    np.testing.assert_allclose(prod.tilde, np.zeros((2, 2)))
    assert nx.is_partial_isometry(prod.tilde, tol)


def test_counterexample_product_not_pi(counterexample_pair, tol):
    prod = ProductRep(list(counterexample_pair))
    s = np.linalg.svd(prod.tilde_power(2), compute_uv=False)
    np.testing.assert_allclose(sorted(s, reverse=True), [1 / np.sqrt(2), 0.0], atol=1e-12)
    assert not nx.is_partial_isometry(prod.tilde_power(2), tol)


def test_product_defining_formula(tol):
    rng = rng_for(32)
    factors = [one_dim_rep(crandn(rng, 3, 3) / 2, tol) for _ in range(3)]
    prod = ProductRep(factors)
    assert prod.check_defining_formula(rng_for(33), samples=10) <= 1e-10


def test_product_requires_shared_sigma(tol):
    rng = rng_for(34)
    a = one_dim_rep(crandn(rng, 2, 2), tol)
    b = one_dim_rep(crandn(rng, 3, 3), tol)
    with pytest.raises(DimensionMismatch):
        ProductRep([a, b])
    # the product reads its tolerance from the factors, so they must agree
    v = [crandn(rng, 2, 2)]
    sigma = StarRepresentation(SCALARS, [2])
    looser = CovariantRep(scalar_correspondence(1), sigma, v, Tolerance(eq_rel=1e-6))
    with pytest.raises(PirepError, match="factors must share the tolerance"):
        ProductRep([one_dim_rep(v[0], tol), looser])
    with pytest.raises(PirepError, match="factors must share the tolerance"):
        chain_condition_test([one_dim_rep(v[0], tol), looser])


def test_product_associativity(tol):
    rng = rng_for(35)
    factors = [one_dim_rep(random_pi_matrix(rng, 3), tol) for _ in range(3)]
    prod3 = ProductRep(factors)
    pair_rep = ProductRep(factors[:2]).as_rep()
    nested = ProductRep([pair_rep, factors[2]])
    assert nx.opnorm(prod3.tilde_power(3) - nested.tilde_power(2)) <= 1e-10


# ---------------------------------------------------------------------------
# sufficient intertwining condition
# ---------------------------------------------------------------------------


def test_intertwining_unitary_second_factor(tol):
    rng = rng_for(36)
    rep1 = one_dim_rep(random_pi_matrix(rng, 3), tol)
    rep2 = one_dim_rep(haar_unitary(rng, 3), tol)
    assert sufficient_intertwining_check(rep1, rep2) is True
    assert ProductRep([rep1, rep2]).as_rep().classify().is_partial_isometric


def test_intertwining_zero_first_factor(tol):
    rng = rng_for(37)
    rep1 = one_dim_rep(np.zeros((2, 2)), tol)
    rep2 = one_dim_rep(random_pi_matrix(rng, 2), tol)
    assert sufficient_intertwining_check(rep1, rep2) is True
    assert nx.is_partial_isometry(ProductRep([rep1, rep2]).tilde, tol)


def test_intertwining_fails_on_counterexample(counterexample_pair, tol):
    # sufficiency only: here the condition fails and the product is not PI
    assert sufficient_intertwining_check(*counterexample_pair) is False
    assert not nx.is_partial_isometry(ProductRep(list(counterexample_pair)).tilde, tol)


def test_intertwining_not_applicable(tol):
    rep1 = one_dim_rep(0.5 * np.eye(2), tol)
    rep2 = one_dim_rep(np.eye(2), tol)
    assert sufficient_intertwining_check(rep1, rep2) is None


# ---------------------------------------------------------------------------
# commuting projections
# ---------------------------------------------------------------------------


def test_commuting_projections_coisometric_second(tol):
    rng = rng_for(38)
    rep1 = one_dim_rep(random_pi_matrix(rng, 3), tol)
    rep2 = one_dim_rep(haar_unitary(rng, 3), tol)  # final projection is I
    res = commuting_projection_test(rep1, rep2)
    assert res.product_is_pi and res.projections_commute


def test_commuting_projections_counterexample(counterexample_pair, tol):
    res = commuting_projection_test(*counterexample_pair)
    assert not res.product_is_pi and not res.projections_commute
    np.testing.assert_allclose(res.commutator_norm, 0.5, atol=1e-12)


def test_commuting_projections_random_pairs_agree(tol):
    rng = rng_for(39)
    both = {True: 0, False: 0}
    for trial in range(100):
        d = int(rng.integers(2, 6))
        rep1 = one_dim_rep(random_pi_matrix(rng, d), tol)
        if trial % 3 == 0:
            rep2 = one_dim_rep(haar_unitary(rng, d), tol)  # forces the true branch
        else:
            rep2 = one_dim_rep(random_pi_matrix(rng, d), tol)
        res = commuting_projection_test(rep1, rep2)
        assert res.product_is_pi == res.projections_commute, trial
        both[res.product_is_pi] += 1
    assert both[True] > 0 and both[False] > 0  # both branches exercised


def test_commuting_projections_precondition(tol):
    rep1 = one_dim_rep(0.5 * np.eye(2), tol)
    rep2 = one_dim_rep(np.eye(2), tol)
    with pytest.raises(NotApplicable):
        commuting_projection_test(rep1, rep2)


def test_commuting_projections_thousand_trials_both_algebras(tol):
    # the full-scale equivalence sweep: scalar and two-block coefficient
    # algebras, dimensions up to 8
    from pirep import harness as hz

    config = hz.TrialConfig(
        master_seed=777, trials=1000, h_dim_range=(2, 8), algebra_shape="mixed"
    )
    report = hz.verify("T2.2", config, tol)
    assert report.equivalence_violations == 0
    assert report.hypothesis_skips == 0


# ---------------------------------------------------------------------------
# four-condition chain
# ---------------------------------------------------------------------------


def test_chain_all_isometric(tol):
    rng = rng_for(40)
    factors = [one_dim_rep(haar_unitary(rng, 3), tol) for _ in range(3)]
    report = chain_condition_test(factors)
    assert all(report.stage_pi) and all(report.range_invariant)
    assert all(report.domain_invariant) and all(report.idempotent)


def test_chain_counterexample_stage_flags(counterexample_pair, tol):
    rng = rng_for(41)
    rep1, rep2 = counterexample_pair
    rep3 = one_dim_rep(np.eye(2), tol)
    report = chain_condition_test([rep1, rep2, rep3])
    # all four conditions fail together at the failing stage
    assert report.stage_pi[0] is False or report.stage_pi[0] == False  # noqa: E712
    first = [report.stage_pi[0], report.range_invariant[0], report.domain_invariant[0], report.idempotent[0]]
    assert not any(first)
    assert report.raw_agree_until_first_failure()
    assert report.cumulative_agree()


def test_chain_condition_builds_each_space_once(tol, monkeypatch):
    alg = FdCStarAlgebra([1, 1])
    sigma = StarRepresentation(alg, [2, 1])
    tags = [([0, 1], [1, 0]), ([0, 1, 1], [1, 1, 0]), ([1, 0], [1, 1])]
    factors = [
        hz.random_pi_rep(diagonal_correspondence(alg, left, right), sigma, rng_for(62, i), tol, allow_zero=False)
        for i, (left, right) in enumerate(tags)
    ]
    builds = count_space_builds(monkeypatch)
    report = chain_condition_test(factors)
    assert len(report.stage_pi) == 2
    # E_1 (x) E_2 and E_1 (x) E_2 (x) E_3, and their interior tensor products
    # with H; the factors' own spaces already exist
    assert sum(key[0] == "interior_tensor" for key in builds) == 2
    assert sum(key[0] == "tensor_product" for key in builds) == 2
    assert set(builds.values()) == {1}


def test_representations_and_products_share_each_space(tol, monkeypatch):
    # two-block algebra: every space has quotient coordinates
    alg = FdCStarAlgebra([1, 1])
    corr = diagonal_correspondence(alg, left_tags=[0, 1, 1], right_tags=[1, 0, 1])
    sigma = StarRepresentation(alg, [2, 1])
    builds = count_space_builds(monkeypatch)
    a = hz.random_pi_rep(corr, sigma, rng_for(64, 0), tol, allow_zero=False)
    b = hz.random_pi_rep(corr, sigma, rng_for(64, 1), tol, allow_zero=False)
    prod = ProductRep([a, b])
    prod.tilde_power(2)
    assert prod.as_rep().space(1).dim == a.space(2).dim
    a.tilde_power(3)
    # E (x) H, E^2 (x) H, E^3 (x) H and E^2, E^3, each built once across
    # both representations, the product and the product's own representation
    assert sum(key[0] == "interior_tensor" for key in builds) == 3
    assert sum(key[0] == "tensor_product" for key in builds) == 2
    assert set(builds.values()) == {1}


def test_a_power_is_a_product(tol):
    # one chain builds T_m for a representation and for m copies of it, so
    # the two agree bitwise on both the block and the quotient coordinate
    # path (multiplying by the materialized I (x) W once differed in the
    # last bits for most scalar shapes with dim E = 2, 3)
    rng = rng_for(65)
    for trial in range(12):
        if trial % 2:
            left, right = rng.integers(0, 2, size=(2, int(rng.integers(1, 3)))).tolist()
            corr = diagonal_correspondence(hz.TWO_BLOCK, left, right)
            sigma = StarRepresentation(hz.TWO_BLOCK, [int(k) for k in rng.integers(1, 3, size=2)])
        else:
            corr = scalar_correspondence(int(rng.integers(2, 4)))
            sigma = StarRepresentation(SCALARS, [int(rng.integers(2, 6))])
        rep = hz.random_contractive_rep(corr, sigma, rng, tol)
        for m in (2, 3, 4):
            prod = ProductRep([rep] * m)
            assert np.array_equal(prod.tilde_power(m), rep.tilde_power(m)), (trial, m)
            assert np.array_equal(prod.pinv_chain(m), rep.pinv_chain(m)), (trial, m)


def test_pinv_chain_takes_one_pseudoinverse_per_distinct_factor(tol, monkeypatch):
    rng = rng_for(66)
    sigma = StarRepresentation(SCALARS, [3])
    a, b = (CovariantRep(scalar_correspondence(2), sigma, [crandn(rng, 3, 3) for _ in range(2)], tol) for _ in range(2))
    svds = []
    real_svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        svds.append(args[0].shape)
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    a.pinv_chain(4)
    assert svds == [(3, 6)]
    svds.clear()
    ProductRep([a, b, a, b]).pinv_chain(4)
    assert svds == [(3, 6), (3, 6)]


def test_chains_are_freed_by_reference_counting(tol):
    # no reference cycle between a representation, the product of it and
    # the spaces they read, so both die as soon as the last name goes
    alg = FdCStarAlgebra([1, 1])
    corr = diagonal_correspondence(alg, left_tags=[0, 1, 1], right_tags=[1, 0, 1])
    sigma = StarRepresentation(alg, [2, 1])
    gc.collect()
    gc.disable()
    try:
        a = hz.random_pi_rep(corr, sigma, rng_for(67, 0), tol, allow_zero=False)
        b = hz.random_pi_rep(corr, sigma, rng_for(67, 1), tol, allow_zero=False)
        prod = ProductRep([a, b, a])
        prod.tilde_power(3)
        prod.pinv_chain(3)
        a.tilde_power(3)
        a.pinv_chain(3)
        chain_condition_test([a, b])
        refs = [weakref.ref(x) for x in (a, b, prod)]
        del a, b, prod
        assert [r() for r in refs] == [None, None, None]
    finally:
        gc.enable()


def test_prefix_space_checks_the_cap_before_building(tol, monkeypatch):
    # the Gram of the prefix E_1 (x) E_2 (x) E_3 has (2^3)^2 entries, 1024
    # bytes, past a budget of 1023 that every array of the first two stages fits
    rng = rng_for(63)
    sigma = StarRepresentation(SCALARS, [2])
    factors = [
        CovariantRep(scalar_correspondence(2), sigma, [crandn(rng, 2, 2) for _ in range(2)], tol)
        for _ in range(3)
    ]
    prod = ProductRep(factors)
    dense_budget(monkeypatch, 1023, covrep, correspondence, nx)
    prod.tilde_power(2)
    with pytest.raises(ResourceLimit, match="module dimension 8 needs 1024 bytes, over the budget 1023"):
        prod.tilde_power(3)
    with pytest.raises(ResourceLimit, match="module dimension 8 needs 1024 bytes, over the budget 1023"):
        prod.space(3)


def test_chain_random_triples_cumulative_agree(tol):
    rng = rng_for(42)
    for trial in range(60):
        d = int(rng.integers(2, 6))
        factors = [one_dim_rep(random_pi_matrix(rng, d), tol) for _ in range(3)]
        report = chain_condition_test(factors)
        assert report.cumulative_agree(), trial
        assert report.raw_agree_until_first_failure(), trial


# ---------------------------------------------------------------------------
# pseudoinverse factorization
# ---------------------------------------------------------------------------


def test_pinv_factorization_unitary(tol):
    rng = rng_for(43)
    factors = [one_dim_rep(haar_unitary(rng, 3), tol) for _ in range(2)]
    res = pinv_factorization_test(factors)
    assert res.is_pi and res.pinv_factors_match
    assert res.chain_residual <= 1e-10


def test_pinv_factorization_counterexample(counterexample_pair, tol):
    res = pinv_factorization_test(list(counterexample_pair))
    assert not res.is_pi and not res.pinv_factors_match
    # oracle: direct pseudoinverse comparison
    prod = ProductRep(list(counterexample_pair))
    t = prod.tilde
    chain = nx.pseudoinverse(counterexample_pair[1].tilde) @ nx.pseudoinverse(
        counterexample_pair[0].tilde
    )
    assert nx.opnorm(nx.pseudoinverse(t) - chain) > 0.1


def test_pinv_factorization_random_pairs(tol):
    rng = rng_for(44)
    for trial in range(60):
        d = int(rng.integers(2, 6))
        factors = [one_dim_rep(random_pi_matrix(rng, d), tol) for _ in range(2)]
        res = pinv_factorization_test(factors)
        assert res.is_pi == res.pinv_factors_match, trial


# ---------------------------------------------------------------------------
# defect dilation
# ---------------------------------------------------------------------------


def test_single_dilation_always_pi(tol):
    rng = rng_for(45)
    for _ in range(20):
        d = int(rng.integers(1, 6))
        x = crandn(rng, d, d)
        x = x / max(1.0, nx.opnorm(x))
        rep = one_dim_rep(x, tol)
        assert nx.is_partial_isometry(single_defect_dilation(rep), tol)


def test_defect_dilation_isometric_first(tol):
    rng = rng_for(46)
    rep1 = one_dim_rep(haar_unitary(rng, 3), tol)
    x = crandn(rng, 3, 3)
    rep2 = one_dim_rep(x / max(1.0, nx.opnorm(x)), tol)
    res = defect_dilation_test(rep1, rep2)
    assert res.m_is_pi and res.rep1_is_pi


def test_defect_dilation_scaled_isometry_first(tol):
    rng = rng_for(47)
    rep1 = one_dim_rep(0.5 * haar_unitary(rng, 3), tol)
    rep2 = one_dim_rep(haar_unitary(rng, 3), tol)
    res = defect_dilation_test(rep1, rep2)
    assert not res.m_is_pi and not res.rep1_is_pi


def test_defect_dilation_equivalence_random(tol):
    rng = rng_for(48)
    for trial in range(60):
        d = int(rng.integers(2, 5))
        if trial % 2 == 0:
            v1 = random_pi_matrix(rng, d)
        else:
            x = crandn(rng, d, d)
            u, s, vh = np.linalg.svd(x, full_matrices=False)
            s = s / s.max() * rng.uniform(0.2, 0.8)
            v1 = u @ (s[:, None] * vh)
        x2 = crandn(rng, d, d)
        rep1 = one_dim_rep(v1, tol)
        rep2 = one_dim_rep(x2 / max(1.0, nx.opnorm(x2)), tol)
        res = defect_dilation_test(rep1, rep2)
        assert res.m_is_pi == res.rep1_is_pi, trial
