"""Acceptance suite: one test per criterion, every tolerance pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.  All randomness is counter-seeded; reruns are
byte-for-byte reproducible.
"""

import numpy as np
import pytest

from pirep import harness as hz
from pirep import numerics as nx
from pirep import powers as pw
from pirep import serialize as sz
from pirep import shifts as sh
from pirep import wold as wd
from pirep.correspondence import SCALARS, StarRepresentation, scalar_correspondence
from pirep.covrep import CovariantRep
from pirep.harness import TrialConfig
from pirep.numerics import DEFAULT_TOL as TOL

from conftest import assert_verdicts_match_classify, crandn, penrose_residuals, random_with_spectrum, rng_for


def _line(number, name):
    print(f"ACCEPTANCE {number:02d} ({name}): PASS")


def _one_dim_rep(v):
    sigma = StarRepresentation(SCALARS, [v.shape[0]])
    return CovariantRep(scalar_correspondence(1), sigma, [np.asarray(v, dtype=complex)], TOL)


def test_criterion_01_six_way_equivalence():
    """1000 matrices, six partial-isometry characterizations unanimous at
    eq_rel = 1e-8: 500 forced-{0,1} spectra (all true), 500 with a value
    in [0.2, 0.8] (all false)."""
    assert TOL.eq_rel == 1e-8
    disagreements = 0
    for trial in range(1000):
        rng = rng_for(1001, trial)
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        k = min(rows, cols)
        values = (rng.random(k) < 0.6).astype(float)
        forced = trial < 500
        if not forced:
            values[int(rng.integers(0, k))] = rng.uniform(0.2, 0.8)
        m = random_with_spectrum(rng, rows, cols, values)
        report = nx.classify_operator(m, TOL)
        if not report.consistent:
            disagreements += 1
            continue
        expected = forced or bool(
            np.all((values < 0.1) | (np.abs(values - 1.0) < 0.1))
        )
        if not forced:
            expected = False
        assert report.condition_verdicts["triple_product"] == expected, trial
    assert disagreements == 0
    _line(1, "six-way partial-isometry equivalence, 1000 matrices")


def test_criterion_02_moore_penrose():
    """Four Penrose residuals <= 1e-10 * ||M|| on 500 random matrices up to
    12x12 including rank-deficient ones."""
    for trial in range(500):
        rng = rng_for(1002, trial)
        rows = int(rng.integers(1, 13))
        cols = int(rng.integers(1, 13))
        m = crandn(rng, rows, cols)
        if trial % 3 == 0:  # force rank deficiency
            u, s, vh = np.linalg.svd(m, full_matrices=False)
            drop = int(rng.integers(1, len(s) + 1))
            s[len(s) - drop :] = 0.0
            m = u @ (s[:, None] * vh)
        pinv = nx.pseudoinverse(m, TOL)
        bound = 1e-10 * max(nx.opnorm(m), 1e-300)
        for name, residual in penrose_residuals(m, pinv).items():
            assert residual <= bound, (trial, name, residual, bound)
    _line(2, "Moore-Penrose residuals <= 1e-10 * norm, 500 matrices")


def test_criterion_03_two_factor_commuting_projections():
    """verify(T2.2, 500 trials, d <= 8): zero equivalence violations; the
    2x2 hand counterexample is detected on both sides."""
    config = TrialConfig(master_seed=2023, trials=500, h_dim_range=(2, 8), algebra_shape="mixed")
    report = hz.verify("T2.2", config, TOL)
    assert report.trials_run == 500
    assert report.equivalence_violations == 0
    # the hand pair: V1 = diag(1, 0), V2 : e0 -> (e0 + e1)/sqrt(2)
    from pirep.products import commuting_projection_test

    rep1 = _one_dim_rep(np.diag([1.0, 0.0]))
    rep2 = _one_dim_rep(np.array([[1.0, 0.0], [1.0, 0.0]]) / np.sqrt(2.0))
    res = commuting_projection_test(rep1, rep2)
    assert not res.product_is_pi and not res.projections_commute
    _line(3, "product PI <=> projections commute, 500 trials + hand pair")


def test_criterion_04_chain_conditions():
    """verify(T2.3, 200 trials, chains of length 3): the four condition
    vectors coincide stage by stage on every trial."""
    config = TrialConfig(master_seed=2024, trials=200, h_dim_range=(2, 6), algebra_shape="mixed")
    report = hz.verify("T2.3", config, TOL)
    assert report.equivalence_violations == 0
    _line(4, "four-condition chain agreement, 200 triples")


def test_criterion_05_pinv_factorization():
    """verify(R2.4, 200 trials): product PI <=> pseudoinverse equals the
    reversed amplified chain, matching side within 1e-8."""
    config = TrialConfig(master_seed=2025, trials=200, h_dim_range=(2, 6), algebra_shape="mixed")
    report = hz.verify("R2.4", config, TOL)
    assert report.equivalence_violations == 0
    assert report.max_residual <= 1e-8
    _line(5, "pseudoinverse factorization equivalence, 200 trials")


def test_criterion_06_defect_dilation():
    """verify(T2.5, 300 trials, contractive pairs, half with PI first
    factor): M is PI <=> first factor PI; the single-lift dilation is PI
    unconditionally."""
    config = TrialConfig(master_seed=2026, trials=300, h_dim_range=(2, 6), algebra_shape="mixed")
    report = hz.verify("T2.5", config, TOL)
    assert report.equivalence_violations == 0
    _line(6, "defect dilation block criterion, 300 contractive pairs")


def test_criterion_07_power_criteria():
    """verify(P3.1) and verify(T3.2), 500 trials each, powers up to 4:
    kernel-chain <=> range-invariance <=> per-power partial isometry."""
    config = TrialConfig(master_seed=2027, trials=500, h_dim_range=(2, 6),
                         module_dim_range=(1, 2), n_max=4)
    for theorem_id in ("P3.1", "T3.2"):
        report = hz.verify(theorem_id, config, TOL)
        assert report.equivalence_violations == 0, theorem_id
        assert report.hypothesis_skips < 100, theorem_id
    _line(7, "kernel-chain / range-invariance / power equivalences, 2x500 trials")


def test_criterion_08_kernel_step_and_regular_powers():
    """100 regular fixtures: (I (x) S) N(T_m) <= N(T_{m+1}) for m <= 3 with
    S the pseudoinverse, and regular PI implies all powers <= 4 are PI."""
    config = TrialConfig(master_seed=2028, trials=100, n_max=4)
    lemma = hz.verify("L3.5", config, TOL)
    assert lemma.equivalence_violations == 0
    assert lemma.hypothesis_skips == 0
    corollary = hz.verify("C3.6", config, TOL)
    assert corollary.equivalence_violations == 0
    _line(8, "kernel-step lemma + regular power equivalence, 2x100 fixtures")


def test_criterion_09_weighted_shifts():
    """100 random shift data sets (n <= 3, k <= 3): the kernel formula
    matches brute force on the faithful window, the unit-weight criterion
    is exact, and partially isometric shifts are power-PI to the window
    bound."""
    for trial in range(100):
        rng = rng_for(1009, trial)
        n = int(rng.integers(1, 4))
        zero_set = frozenset(int(x) for x in rng.integers(0, 12, size=rng.integers(0, 5)))
        weights = {}
        broken = trial % 2 == 0
        if broken:
            weights[(int(rng.integers(1, n + 1)), int(rng.integers(0, 6)))] = float(
                rng.uniform(0.3, 0.9)
            )
        trunc = max(sh.minimal_trunc(n, 3), n**3 * 8)
        spec = sh.WeightedShiftSpec(n=n, weights=weights, zero_set=zero_set, trunc=trunc)
        for k in (1, 2, 3):
            for i in range(1, n + 1):
                assert sh.kernel_formula(spec, i, k) == sh.brute_force_kernel(spec, i, k, TOL), (
                    trial, i, k,
                )
        res = sh.shift_pi_criterion(spec, TOL, power_cap=3)
        assert res.is_pi == res.weights_unit_off_zero_set, trial
        if res.is_pi:
            assert res.power_pi_up_to == spec.window_bound(cap=3), trial
        if n == 3:  # H = 217
            assert_verdicts_match_classify(sh.build_shift(spec, TOL))
    _line(9, "weighted shift kernels + criterion, 100 data sets")


def test_criterion_10_root_criterion():
    """verify(T3.9, 300 trials with the square forced PI): conditions (a)
    and (b) together equal partial isometry; the 2x2 hand fixture is
    rejected through condition (a)."""
    config = TrialConfig(master_seed=2030, trials=300)
    report = hz.verify("T3.9", config, TOL)
    assert report.equivalence_violations == 0
    rep = _one_dim_rep(np.array([[0.0, 1.0 / np.sqrt(2.0)], [0.0, 0.0]]))
    res = pw.root_criterion(rep, 2)
    assert res.hypothesis_ok and not res.cond_a and not res.rep_is_pi
    kernel_match = hz.verify("R3.10", TrialConfig(master_seed=2031, trials=150), TOL)
    assert kernel_match.equivalence_violations == 0
    _line(10, "root criterion + kernel-match criterion, 300+150 trials")


def test_criterion_11_wold_decomposition():
    """100 two-part direct-sum fixtures: orthogonality and completeness
    within 1e-8, primal equals dual, and the Cauchy dual equals the lift
    within 1e-8 (hypotheses bypassed: finite truncations of the shift
    model are not strictly regular; see the wold module docstring)."""
    for trial in range(100):
        rng = hz.rng_stream(2032, trial)
        rep = hz.shift_plus_unitary_fixture(rng, TOL)
        out = wd.wold_decompose(rep, check_hypotheses=False)
        assert out.is_partial_isometric, trial
        assert out.dual_gap <= 1e-8, trial
        for side in (out.primal, out.dual):
            assert side.orthogonality_defect <= 1e-8, trial
            assert side.direct_sum_residual <= 1e-8, trial
        assert (
            nx.opnorm(out.primal.generated.projector() - out.dual.generated.projector()) <= 1e-8
        ), trial
        assert (
            nx.opnorm(out.primal.residual.projector() - out.dual.residual.projector()) <= 1e-8
        ), trial
    strict = hz.verify("W3.12", TrialConfig(master_seed=2033, trials=100), TOL)
    assert strict.equivalence_violations == 0
    _line(11, "two-part decomposition identities, 100 fixtures + 100 strict trials")


def test_criterion_12_falsification_sanity():
    """The engine refutes 'the product of two partial isometries is a
    partial isometry' within 100 trials, expected within the first 10."""
    report = hz.verify("T2.2", TrialConfig(master_seed=2034, trials=100), TOL, falsify=True)
    assert report.equivalence_violations >= 1
    first = min(ce["trial_index"] for ce in report.counterexamples)
    assert first < 10, first
    replayed = hz.replay_counterexample(report.counterexamples[0], TOL)
    assert replayed.status == "violation"
    _line(12, "falsification finds a product counterexample quickly")


def test_criterion_13_determinism():
    """Identical seeds give byte-identical reports, under maximum
    parallelism too."""
    config = TrialConfig(master_seed=2035, trials=60, algebra_shape="mixed")
    blobs = []
    for jobs in (1, 1, 8):
        report = hz.verify("T2.2", config, TOL, jobs=jobs)
        blobs.append(sz.dumps(report.to_dict()))
    assert blobs[0] == blobs[1] == blobs[2]
    _line(13, "byte-identical reports across reruns and parallelism")
