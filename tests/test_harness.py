import math

import numpy as np
import pytest

from pirep import correspondence
from pirep import harness as hz
from pirep import numerics as nx
from pirep import serialize as sz
from pirep.correspondence import (
    SCALARS,
    FdCStarAlgebra,
    StarRepresentation,
    algebra_correspondence,
    diagonal_correspondence,
    scalar_correspondence,
)
from pirep.covrep import CovariantRep, rep_from_tilde
from pirep.errors import UsageError
from pirep.harness import TrialConfig

from conftest import assert_verdicts_match_classify, count_space_builds, direct_sum


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def test_random_pi_rep_scalar(tol):
    rep = hz.random_pi_rep(
        scalar_correspondence(2), StarRepresentation(SCALARS, [4]), hz.rng_stream(1, 0), tol
    )
    assert rep.classify().is_partial_isometric
    assert_verdicts_match_classify(rep)


def test_random_pi_rep_zero_rank_allowed(tol):
    # spectral projection of a tiny matrix collapses to the zero lift
    rep_zero = hz.random_pi_rep(
        scalar_correspondence(1), StarRepresentation(SCALARS, [2]), hz.rng_stream(2, 0), tol
    )
    assert rep_zero.classify().is_partial_isometric  # zero or not, always PI
    assert_verdicts_match_classify(rep_zero)


def test_random_pi_rep_two_block_covariance(tol):
    corr, sigma = hz.draw_setting(hz.rng_stream(2, 7), TrialConfig(algebra_shape="two_block"))
    rep = hz.random_pi_rep(corr, sigma, hz.rng_stream(2, 8), tol)
    assert rep.classify().is_partial_isometric
    assert rep.intertwining_residual() <= 1e-10
    assert_verdicts_match_classify(rep)


def test_random_contractive_rep_force_non_pi_margin(tol):
    for index in range(10):
        corr, sigma = hz.draw_setting(hz.rng_stream(3, index), TrialConfig())
        rep = hz.random_contractive_rep(corr, sigma, hz.rng_stream(4, index), tol, force_non_pi=True)
        assert rep.classify().is_contractive
        t = rep.tilde
        residual = nx.opnorm(t @ nx.herm(t) @ t - t)
        assert residual >= 1e-4  # negative instances keep a separation margin
        assert not rep.is_partial_isometric()
        assert_verdicts_match_classify(rep)


def test_structured_fixture_kinds(tol):
    unitary = hz.unitary_fixture(hz.rng_stream(5, 0), tol, 3)
    assert unitary.classify().is_isometric
    shift = hz.truncated_shift_fixture(tol, 4)
    assert shift.classify().is_partial_isometric
    row = hz.coisometric_row_fixture(hz.rng_stream(5, 0), tol, 2, 3)
    assert nx.opnorm(row.tilde @ nx.herm(row.tilde) - np.eye(3)) <= 1e-10
    inv = hz.invertible_contraction_fixture(hz.rng_stream(5, 0), tol, 3)
    assert inv.classify().is_contractive and not inv.classify().is_partial_isometric
    dsum = direct_sum([hz.truncated_shift_fixture(tol, 3), hz.unitary_fixture(hz.rng_stream(5, 0), tol, 2)], tol)
    assert dsum.h_dim == 5 and dsum.classify().is_partial_isometric


def test_coisometric_two_block_draws_return_none_or_a_coisometry(tol):
    # remapping every singular value to 1 lifts the zero ones of a rank-
    # deficient draw; such draws give None instead of breaking covariance
    config = TrialConfig(algebra_shape="two_block")
    returned = 0
    for stream in range(200):
        corr, sigma = hz.draw_setting(hz.rng_stream(1616, stream), config)
        rep = hz.coisometric_covariant_rep(corr, sigma, hz.rng_stream(1617, stream), tol)
        if rep is not None:
            returned += 1
            assert nx.opnorm(rep.tilde @ nx.herm(rep.tilde) - np.eye(rep.h_dim)) <= 1e-12, stream
    assert returned == 28


def test_spectral_remap_preserves_intertwining(tol):
    corr, sigma = hz.draw_setting(hz.rng_stream(7, 0), TrialConfig(algebra_shape="two_block"))
    x = hz.random_covariant_matrix(corr, sigma, hz.rng_stream(7, 1), tol)
    y = hz.spectral_remap(x, lambda s: 1.0 if s >= 0.5 * max(1e-12, nx.opnorm(x)) else 0.0)
    from pirep.correspondence import interior_tensor

    space = interior_tensor(corr, sigma, tol)
    for u in corr.algebra.basis():
        assert nx.opnorm(y @ space.induced_action(u) - sigma.apply(u) @ y) <= 1e-10


def _two_block_draws(tol) -> list:
    config = TrialConfig(algebra_shape="two_block", h_dim_range=(2, 12), module_dim_range=(1, 3))
    draws = []
    for stream in range(60):
        corr, sigma = hz.draw_setting(hz.rng_stream(2600, stream), config)
        draws.append(hz.random_covariant_matrix(corr, sigma, hz.rng_stream(2601, stream), tol))
    return draws


def test_two_block_draws_do_not_depend_on_the_deflation_gate(tol, monkeypatch):
    # the draw takes no factorization, so how numerics splits one cannot
    # change the instance a seed gives
    monkeypatch.setattr(nx, "_DEFLATE_MIN_SIZE", 1024)
    split = _two_block_draws(tol)
    monkeypatch.setattr(nx, "_DEFLATE_MIN_SIZE", 2**40)
    whole = _two_block_draws(tol)
    assert [x.tobytes() for x in split] == [x.tobytes() for x in whole]


def _intertwiner_constraints(space, sigma) -> np.ndarray:
    """The reference for the intertwiner space: X intertwines iff these
    rows, kron(act(u)^T, I_d) - kron(I, sigma(u)) over the matrix units u,
    annihilate its column-stacked vec(X)."""
    d, basis = sigma.h_dim, sigma.algebra.basis()
    acts = space.induced_action(basis)
    rows = nx.kron_eye(acts.transpose(0, 2, 1), d) - nx.eye_kron(space.dim, sigma.apply(basis))
    return rows.reshape(len(basis) * d * space.dim, d * space.dim)


@pytest.mark.parametrize(
    "left, right, mults",
    [
        ([0, 1], [1, 0], [2, 2]),
        ([0, 0, 1], [1, 0, 1], [1, 3]),
        ([1], [1], [2, 1]),
        ([0, 1], [0, 0], [3, 2]),
        ([0], [1], [0, 2]),  # sigma(p_0) = 0: the intertwiner space is {0}
    ],
)
def test_two_block_draws_are_masked_gaussians_on_the_intertwiner_space(tol, left, right, mults):
    corr = diagonal_correspondence(hz.TWO_BLOCK, left, right)
    sigma = StarRepresentation(hz.TWO_BLOCK, mults)
    space = corr.space(sigma, tol)
    on_block = [np.repeat(np.arange(2) == j, mults) for j in range(2)]  # diag sigma(p_j)
    constraints = _intertwiner_constraints(space, sigma)
    dim = nx.kernel_frame(constraints, tol).shape[1]
    draws = []
    for stream in range(dim + 2):
        x = hz.random_covariant_matrix(corr, sigma, hz.rng_stream(2602, stream), tol)
        for b, v in enumerate(rep_from_tilde(corr, sigma, x, tol).v_on_basis):
            assert not np.any(v[~np.outer(on_block[left[b]], on_block[right[b]])])
        draws.append(x.reshape(-1, order="F"))
    draws = np.array(draws).T
    assert nx.opnorm(constraints @ draws) <= 1e-12 * max(1.0, nx.opnorm(draws))
    assert nx.range_frame(draws, tol).shape[1] == dim


def test_commuting_pair_construction(tol):
    from pirep.products import commuting_projection_test

    for shape in ("scalar", "mixed"):
        config = TrialConfig(algebra_shape=shape)
        for index in range(10):
            rep1, rep2 = hz.commuting_pi_pair(hz.rng_stream(8, index), config, tol)
            res = commuting_projection_test(rep1, rep2)
            assert res.projections_commute and res.product_is_pi, (shape, index)


def _every_trial_v(monkeypatch, tol) -> list:
    """V of every CovariantRep that the registered trials build, 20 trials
    per claim at master seed 2700, on the scalar and two-block algebras."""
    built = []
    init = CovariantRep.__init__

    def record(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.v_on_basis)

    with monkeypatch.context() as patch:
        patch.setattr(CovariantRep, "__init__", record)
        for shape in ("scalar", "two_block"):
            config = TrialConfig(master_seed=2700, trials=20, algebra_shape=shape)
            for theorem_id in hz.theorem_ids():
                for index in range(config.trials):
                    hz.REGISTRY[theorem_id].trial(hz.rng_stream(2700, index), config, tol)
    return built


def test_every_trial_draws_from_the_seed_alone(tol, monkeypatch):
    # no draw takes a frame factorization, so neither the basis a frame
    # comes back in nor whether it is split can change an instance
    plain = _every_trial_v(monkeypatch, tol)
    cut_as, kernel = nx._range_frame_cut_as, nx.kernel_frame
    for gate in (16, 2**40):
        with monkeypatch.context() as patch:
            patch.setattr(nx, "_range_frame_cut_as", lambda *args: nx.Subspace(cut_as(*args)).frame[:, ::-1])
            patch.setattr(nx, "kernel_frame", lambda *args, **kwargs: kernel(*args, **kwargs)[:, ::-1])
            patch.setattr(nx, "_DEFLATE_MIN_SIZE", gate)
            moved = _every_trial_v(monkeypatch, tol)
        assert len(moved) == len(plain), gate
        for index, (a, b) in enumerate(zip(plain, moved)):
            assert len(a) == len(b), (gate, index)
            assert all(np.max(np.abs(x - y), initial=0.0) <= 1e-10 for x, y in zip(a, b)), (gate, index)


# ---------------------------------------------------------------------------
# verify engine
# ---------------------------------------------------------------------------


def test_verify_unknown_id(tol):
    with pytest.raises(UsageError):
        hz.verify("T9.9", TrialConfig(master_seed=1, trials=2), tol)


def test_verify_runs_and_reports(tol):
    report = hz.verify("T2.2", TrialConfig(master_seed=11, trials=40), tol)
    assert report.trials_run == 40
    assert report.equivalence_violations == 0
    payload = sz.dumps(report.to_dict())
    assert '"theorem_id"' in payload


def test_verify_all_claims_smoke(tol):
    for theorem_id in hz.theorem_ids():
        report = hz.verify(theorem_id, TrialConfig(master_seed=13, trials=12), tol)
        assert report.equivalence_violations == 0, (theorem_id, report.counterexamples[:1])
        assert report.hypothesis_skips < report.trials_run, theorem_id


def test_falsification_finds_counterexample(tol):
    report = hz.verify("T2.2", TrialConfig(master_seed=21, trials=100), tol, falsify=True)
    assert report.equivalence_violations >= 1
    first = report.counterexamples[0]["trial_index"]
    assert first < 10  # expected almost immediately


def test_counterexample_replay(tol):
    report = hz.verify("T2.2", TrialConfig(master_seed=21, trials=50), tol, falsify=True)
    assert report.counterexamples
    for ce in report.counterexamples[:3]:
        outcome = hz.replay_counterexample(ce, tol)
        assert outcome.status == "violation"
        assert abs(outcome.residual - ce["residual"]) <= 1e-12


def test_counterexample_with_legacy_perturbation_key_replays(tol):
    # reports written before TrialConfig lost its perturbation field carry
    # the key in each counterexample's config; replay ignores it
    report = hz.verify("T2.2", TrialConfig(master_seed=21, trials=10), tol, falsify=True)
    ce = dict(report.counterexamples[0])
    ce["config"] = dict(ce["config"], perturbation=1e-3)
    assert hz.TrialConfig.from_dict(ce["config"]) == report.config
    outcome = hz.replay_counterexample(ce, tol)
    assert outcome.status == "violation"
    assert abs(outcome.residual - ce["residual"]) <= 1e-12


def test_replay_refuses_a_counterexample_that_does_not_fit_its_config(tol):
    # hand-edited counterexamples end in UsageError, not in numpy's or the registry's errors
    ce = hz.verify("T2.2", TrialConfig(master_seed=21, trials=10), tol, falsify=True).counterexamples[0]
    for edit, match in (
        ({"trial_index": -1}, "trial index"),
        ({"trial_index": 10}, "trial index"),
        ({"master_seed": 2**64}, "master seed"),
        ({"master_seed": 22}, "master seed"),
        ({"theorem_id": "X9.9"}, "unknown claim id"),
        ({"theorem_id": "P3.1"}, "no falsification variant"),
    ):
        with pytest.raises(UsageError, match=match):
            hz.replay_counterexample(dict(ce, **edit), tol)


def test_replay_refuses_a_counterexample_that_is_not_an_object_with_every_key(tol):
    # a missing key, a non-object counterexample or config, and a config
    # missing a key or holding a value of the wrong kind all end in UsageError
    ce = hz.verify("T2.2", TrialConfig(master_seed=21, trials=10), tol, falsify=True).counterexamples[0]
    bad = [{}, None, [ce], "T2.2", dict(ce, theorem_id=["T2.2"]), dict(ce, config=None), dict(ce, config=[1, 2])]
    bad += [{k: v for k, v in ce.items() if k != key} for key in ("theorem_id", "master_seed", "trial_index", "config")]
    for key in ce["config"]:
        bad.append(dict(ce, config={k: v for k, v in ce["config"].items() if k != key}))
    bad += [dict(ce, config=dict(ce["config"], trials=None)), dict(ce, config=dict(ce["config"], h_dim_range=5))]
    bad.append(dict(ce, config=dict(ce["config"], trials="ten")))
    # numbers of the wrong JSON type are refused, not coerced
    bad += [dict(ce, config=dict(ce["config"], **edit)) for edit in ({"trials": 10.9}, {"trials": "10"}, {"n_max": True})]
    bad += [dict(ce, falsify="false"), dict(ce, trial_index=True), dict(ce, master_seed=21.0)]
    for counterexample in bad:
        with pytest.raises(UsageError):
            hz.replay_counterexample(counterexample, tol)
    assert hz.replay_counterexample(ce, tol).status == "violation"


def test_trial_config_from_dict_refuses_what_is_not_a_config():
    config = TrialConfig(master_seed=3, trials=2).to_dict()
    for obj in (
        None,
        [config],
        {k: v for k, v in config.items() if k != "n_max"},
        dict(config, trials=None),
        dict(config, trials=10.9),
        dict(config, trials="10"),
        dict(config, n_max=True),
    ):
        with pytest.raises(UsageError):
            TrialConfig.from_dict(obj)
    assert TrialConfig.from_dict(config) == TrialConfig(master_seed=3, trials=2)


def test_trial_config_refuses_a_seed_outside_64_bits(tol):
    for seed in (-1, 2**64):
        with pytest.raises(UsageError, match="master seed"):
            TrialConfig(master_seed=seed)
    assert TrialConfig(master_seed=2**64 - 1).master_seed == 2**64 - 1
    # a replayed counterexample with such a seed is refused before any trial runs
    config = dict(TrialConfig(master_seed=3, trials=2).to_dict(), master_seed=-1)
    ce = {"theorem_id": "T2.2", "falsify": True, "master_seed": -1, "trial_index": 0, "config": config}
    with pytest.raises(UsageError, match="master seed"):
        hz.replay_counterexample(ce, tol)


def test_trial_config_refuses_nmax_below_one():
    for n_max in (0, -1):
        with pytest.raises(UsageError, match="n_max"):
            TrialConfig(n_max=n_max)
    # a replayed counterexample's config can set it too
    config = dict(TrialConfig(master_seed=3, trials=2).to_dict(), n_max=0)
    with pytest.raises(UsageError, match="n_max"):
        hz.TrialConfig.from_dict(config)
    assert TrialConfig(n_max=1).n_max == 1


def test_trial_config_refuses_malformed_ranges(tol):
    # anything but two integers 0 <= lo <= hi is a UsageError, also in a
    # hand-edited counterexample, where it used to end in numpy's errors
    ce = hz.verify("T2.2", TrialConfig(master_seed=21, trials=10), tol, falsify=True).counterexamples[0]
    for name in ("h_dim_range", "module_dim_range"):
        for bounds in ([6, 2], [1], ["a", 2], [-1, 2], [1, 2, 3], [1.5, 2], [True, 3]):
            with pytest.raises(UsageError, match=name):
                TrialConfig(**{name: tuple(bounds)})
            with pytest.raises(UsageError, match=name):
                hz.replay_counterexample(dict(ce, config=dict(ce["config"], **{name: bounds})), tol)
    assert TrialConfig(h_dim_range=(0, 0), module_dim_range=(2, 2)).h_dim_range == (0, 0)
    assert hz.replay_counterexample(ce, tol).status == "violation"


def test_verify_refuses_jobs_below_one(tol):
    for jobs in (0, -1):
        with pytest.raises(UsageError, match=f"verify needs jobs >= 1, got {jobs}"):
            hz.verify("T2.2", TrialConfig(master_seed=1, trials=2), tol, jobs=jobs)


def test_determinism_across_jobs(tol):
    one = hz.verify("T2.2", TrialConfig(master_seed=42, trials=30), tol, jobs=1)
    again = hz.verify("T2.2", TrialConfig(master_seed=42, trials=30), tol, jobs=1)
    parallel = hz.verify("T2.2", TrialConfig(master_seed=42, trials=30), tol, jobs=4)
    blob = sz.dumps(one.to_dict())
    assert blob == sz.dumps(again.to_dict())
    assert blob == sz.dumps(parallel.to_dict())
    # every claim, each run from an empty table of shared correspondences,
    # so the pool's threads race to build the same structures and spaces
    config = TrialConfig(master_seed=43, trials=8, algebra_shape="mixed")
    reports = {}
    for jobs in (1, 4):
        correspondence._CONSTRUCTED.clear()
        reports[jobs] = [sz.dumps(hz.verify(tid, config, tol, jobs=jobs).to_dict()) for tid in hz.theorem_ids()]
    assert reports[1] == reports[4]


def test_the_claim_batteries_build_each_structure_once(tol, monkeypatch):
    # equal constructor arguments name one correspondence, so its powers
    # and spaces are built once per process, not once per trial
    assert scalar_correspondence(2) is scalar_correspondence(2)
    assert diagonal_correspondence(hz.TWO_BLOCK, [0, 1], [1, 0]) is diagonal_correspondence(
        FdCStarAlgebra([1, 1]), (0, 1), [1, 0]
    )
    assert algebra_correspondence(FdCStarAlgebra([2, 1])) is algebra_correspondence(FdCStarAlgebra([2, 1]))
    # by structure, not content: a power of C^1 has the content of C^1 but
    # is another object, which the table does not share
    builds = count_space_builds(monkeypatch, structure=True)
    for algebra in ("scalar", "two_block"):
        config = TrialConfig(master_seed=44, trials=5, algebra_shape=algebra)
        for theorem_id in hz.theorem_ids():
            hz.verify(theorem_id, config, tol)
    assert sum(key[0] == "tensor_product" for key in builds) > 10
    assert set(builds.values()) == {1}


def test_every_claim_trial_is_independent_of_evaluation_order(tol):
    # a trial is a function of (master seed, index) alone: what passes from
    # one trial to the next, the shared correspondences and their memos,
    # must hold only functions of content
    for algebra in ("scalar", "two_block"):
        config = TrialConfig(master_seed=29, trials=4, algebra_shape=algebra)
        for theorem_id in hz.theorem_ids():
            trial = hz.REGISTRY[theorem_id].trial
            seen = {}
            for index in (3, 2, 1, 0, 0, 1, 2, 3):
                out = trial(hz.rng_stream(config.master_seed, index), config, tol)
                key = (out.status, float(out.residual).hex(), sz.dumps(out.detail))
                assert seen.setdefault(index, key) == key, (algebra, theorem_id, index)


def test_verify_rejects_tiny_perturbation(tol):
    # verify refuses an equality cutoff looser than MAX_EQ_REL
    config = TrialConfig(master_seed=1, trials=2)
    with pytest.raises(UsageError, match="eq_rel"):
        hz.verify("T2.2", config, nx.Tolerance(eq_rel=2 * hz.MAX_EQ_REL))
    assert hz.verify("T2.2", config, nx.Tolerance(eq_rel=hz.MAX_EQ_REL)).trials_run == 2


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_matrix_json_roundtrip(tol):
    rng = hz.rng_stream(9, 0)
    m = hz.crandn(rng, 3, 2)
    back = sz.matrix_from_json(sz.matrix_to_json(m))
    np.testing.assert_array_equal(back, m)


def test_rep_json_roundtrip(tol):
    corr, sigma = hz.draw_setting(hz.rng_stream(10, 0), TrialConfig(algebra_shape="two_block"))
    rep = hz.random_pi_rep(corr, sigma, hz.rng_stream(10, 1), tol)
    back = sz.rep_from_json(sz.rep_to_json(rep), tol)
    assert nx.opnorm(back.tilde - rep.tilde) <= 1e-12
    assert back.sigma.multiplicities == rep.sigma.multiplicities


def test_malformed_rep_json_is_usage_error(tol):
    rep = hz.coisometric_row_fixture(hz.rng_stream(11, 0), tol, 2, 2)
    corr = sz.correspondence_to_json(rep.corr)
    for path, value in (
        (("multiplicities",), ["x"]),
        (("correspondence", "block_sizes"), ["x"]),
        (("correspondence", "left_action"), [sz.matrix_to_json(np.eye(2)), sz.matrix_to_json(np.eye(3))]),
        (("V", 0, "data", 0), [1.0]),
        # infinite sizes once escaped as OverflowError from int()
        (("multiplicities",), [math.inf]),
        (("correspondence", "block_sizes"), [math.inf]),
        (("correspondence", "module_dim"), -math.inf),
        (("correspondence", "right_action", 0, "rows"), math.inf),
        (("V", 1, "cols"), math.inf),
        # declared sizes are checked against the data before anything is built:
        # these once allocated a 10^7 x 10^7 gram and spent seconds on the algebra
        (("correspondence",), {**corr, "module_dim": 10**7, "gram": []}),
        (("correspondence", "block_sizes"), [3000]),
        # counts are JSON integers in JSON lists, never coerced: a string,
        # float or bool is refused even where it rounds or parses to the count
        (("multiplicities",), "2"),
        (("multiplicities",), [2.9]),
        (("correspondence", "block_sizes"), "1"),
        (("correspondence", "module_dim"), 1.5),
        (("correspondence", "module_dim"), 2.0),
        (("V", 0, "rows"), "2"),
        (("V", 0, "rows"), 2.5),
        (("V", 0, "cols"), True),
    ):
        obj = sz.rep_to_json(rep)
        target = obj
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(UsageError):
            sz.rep_from_json(obj, tol)


def test_dumps_is_deterministic_and_sorted():
    obj = {"b": [1.0, 2.5e-17, True, None], "a": {"z": 1, "y": -0.0}}
    text = sz.dumps(obj)
    assert text.index('"a"') < text.index('"b"')
    assert text == sz.dumps(obj)
    import json

    parsed = json.loads(text)
    assert parsed["b"][0] == 1.0 and parsed["a"]["z"] == 1


def test_dumps_17_digits():
    x = 1.0 / 3.0
    assert sz.format_number(x) == format(x, ".17g")
    assert sz.dumps([x]) == f"[{format(x, '.17g')}]"
