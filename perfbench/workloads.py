"""The benchmark's workloads: inputs made from a seed, the ops they run
against ``pirep``, and the oracle every op is checked against.

A pass over a workload is sized, not timed: ``size`` fixes the work
(trials per claim, or rounds of large-window cases), so every pass, traced
or not, at the same seed and size does exactly the same ops and must
produce byte-identical reports.  ``size_for(seconds)`` picks the size that
takes about that long on the reference machine (see README.md).
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from speed import SpeedProbe, WideProbe

clock = time.perf_counter

FALSIFY_TRIALS = 20
WOLD_DEFECT = 1e-8


@dataclass
class Ledger:
    """What one run records: the latency of every op, one message per
    failed op, and the raw results the oracles check after timing."""

    latencies: list = field(default_factory=list)
    starts: list = field(default_factory=list)  # clock() at the start of each op
    failures: list = field(default_factory=list)
    missing_ops: int = 0  # ops that could not run (a replay with nothing to replay)
    results: list = field(default_factory=list)
    verify_s: dict = field(default_factory=dict)
    falsify_s: float = 0.0
    trials: int = 0
    skips: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies) + self.missing_ops

    @property
    def failed(self) -> int:
        return len(self.failures)


# ---------------------------------------------------------------------------
# claim battery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClaimsPlan:
    configs: tuple  # (theorem id, TrialConfig)
    falsify: object  # TrialConfig for the T2.2 falsification run


@contextlib.contextmanager
def timed_trials(harness, ledger: Ledger, tracer, probe):
    """Time every trial at the trial boundary while ``verify`` still drives
    the run: registry entries are swapped for timing wrappers and restored
    afterwards.  A trial that raises is recorded as a failed op and turned
    into a violation, so ``verify`` keeps going and the report shows it.
    The speed probe, if any, samples between trials, outside their time."""
    saved = dict(harness.REGISTRY)
    trial_ids = itertools.count()

    def timed(fn, expect_violation):
        if fn is None:
            return None

        def trial(rng, config, tol):
            if tracer is not None:
                tracer.begin_trial(next(trial_ids))
            if probe is not None:
                probe.maybe_sample()
            t0 = clock()
            ledger.starts.append(t0)
            try:
                out = fn(rng, config, tol)
            except Exception as exc:  # any raise escaping a trial is a failed op
                ledger.latencies.append(clock() - t0)
                ledger.failures.append(f"trial raised {exc!r}")
                return harness.TrialOutcome.violation(0.0, raised=repr(exc))
            ledger.latencies.append(clock() - t0)
            if out.status == "violation" and not expect_violation:
                ledger.failures.append("trial reported a violation")
            return out

        return trial

    for tid, entry in saved.items():
        harness.REGISTRY[tid] = dataclasses.replace(
            entry,
            trial=timed(entry.trial, False),
            falsify_trial=timed(entry.falsify_trial, True),
        )
    try:
        yield
    finally:
        harness.REGISTRY.clear()
        harness.REGISTRY.update(saved)


class ClaimsWorkload:
    """Every registered claim through ``harness.verify``, then the T2.2
    falsification run and the replay of its first counterexample."""

    # One pass: trial times are heavy-tailed (p99 over ten times p50), and
    # which costly trials a seed draws moved scaled throughput by ~10%
    # between seeds at 109 trials per claim while repeating a seed moved it
    # by ~3%; distinct trials steady the sum and the p99 more than
    # repetitions would, and p99 needs 1000 of them.
    passes = 1
    probe = SpeedProbe  # op times are scaled by the small probe (speed.py)

    def __init__(self, shape: str, trials_per_s: float):
        self.shape = shape
        self.trials_per_s = trials_per_s

    def size_for(self, seconds: float) -> int:
        """Trials per claim."""
        return max(2, round((seconds * self.trials_per_s - FALSIFY_TRIALS) / 15))

    def inputs(self, pirep, seed: int, size: int) -> ClaimsPlan:
        """Each claim gets its own master seed.  With one seed for all,
        trial i of every claim draws its dimensions from the same stream,
        so costly draws coincide across claims and the run-to-run spread
        roughly doubles."""
        hz = pirep.harness
        ids = hz.theorem_ids()
        configs = tuple(
            (tid, hz.TrialConfig(master_seed=seed * 1000 + i, trials=size, algebra_shape=self.shape))
            for i, tid in enumerate(ids)
        )
        falsify = hz.TrialConfig(master_seed=seed * 1000 + len(ids), trials=FALSIFY_TRIALS, algebra_shape=self.shape)
        return ClaimsPlan(configs, falsify)

    def run(self, pirep, plan: ClaimsPlan, ledger: Ledger, tracer, probe=None):
        hz = pirep.harness
        tol = pirep.numerics.DEFAULT_TOL
        with timed_trials(hz, ledger, tracer, probe):
            for tid, config in plan.configs:
                t0 = clock()
                report = hz.verify(tid, config, tol, jobs=1)
                ledger.verify_s[tid] = ledger.verify_s.get(tid, 0.0) + clock() - t0
                ledger.results.append(("claim", report))
            t0 = clock()
            report = hz.verify("T2.2", plan.falsify, tol, jobs=1, falsify=True)
            replay = hz.replay_counterexample(report.counterexamples[0], tol) if report.counterexamples else None
            ledger.falsify_s += clock() - t0
            ledger.results.append(("falsify", report))
            ledger.results.append(("replay", replay))

    def check(self, pirep, ledger: Ledger) -> list:
        """Oracles; returns the JSON-able reports for the digest.  A trial
        that reported a violation was already recorded as a failed op."""
        reports = []
        for kind, result in ledger.results:
            if kind == "claim":
                reports.append(result.to_dict())
                ledger.trials += result.trials_run
                ledger.skips += result.hypothesis_skips
            elif kind == "falsify":
                reports.append(result.to_dict())
                if not result.counterexamples:
                    ledger.missing_ops += 1
                    ledger.failures.append("falsify: no counterexample found")
            elif result is not None:
                reports.append({"replay_status": result.status, "replay_residual": result.residual})
                if result.status != "violation":
                    ledger.failures.append(f"falsify: replayed counterexample came back {result.status!r}")
        return reports


# ---------------------------------------------------------------------------
# large faithful windows
# ---------------------------------------------------------------------------


ROUND_SECONDS = 7.0  # one round on the reference machine


def _shift_spec(sh, rng, n: int, broken: bool):
    """Seeded shift data at the acceptance-09 truncation max(minimal, 8 n^3).
    A broken spec has one weight below 1 at an index off the zero set, so
    it is really not partially isometric."""
    zero_set = frozenset(int(x) for x in rng.integers(0, 12, size=rng.integers(0, 5)))
    weights = {}
    if broken:
        m = int(rng.choice([m for m in range(6) if m not in zero_set]))
        weights[(int(rng.integers(1, n + 1)), m)] = float(rng.uniform(0.3, 0.9))
    trunc = max(sh.minimal_trunc(n, 3), 8 * n**3)
    return sh.WeightedShiftSpec(n=n, weights=weights, zero_set=zero_set, trunc=trunc)


def _case_shift(pirep, spec):
    """The unit-weight criterion, and the kernel formula against brute force
    for every direction and power up to 3."""
    sh = pirep.shifts
    tol = pirep.numerics.DEFAULT_TOL
    criterion = sh.shift_pi_criterion(spec, tol, power_cap=3)
    kernels = [
        (i, k, sh.kernel_formula(spec, i, k), sh.brute_force_kernel(spec, i, k, tol))
        for k in (1, 2, 3)
        for i in range(1, spec.n + 1)
    ]
    return criterion, kernels


def _case_power_report(pirep, spec):
    rep = pirep.shifts.build_shift(spec, pirep.numerics.DEFAULT_TOL)
    return pirep.powers.power_report(rep, 4)


def _case_wold(pirep, rep):
    return pirep.wold.wold_decompose(rep, check_hypotheses=False)


CASES = {"shift": _case_shift, "power_report": _case_power_report, "wold": _case_wold}


def _check_case(pirep, kind, arg, result):
    """(ok, report) for one large-window case."""
    if kind == "shift":
        criterion, kernels = result
        ok = criterion.is_pi == criterion.weights_unit_off_zero_set and (
            not criterion.is_pi or criterion.power_pi_up_to == arg.window_bound(cap=3)
        )
        ok = ok and all(formula == brute for _, _, formula, brute in kernels)
        return ok, {
            "spec": arg.to_dict(),
            "result": criterion.to_dict(),
            "kernels": [[i, k, formula] for i, k, formula, _ in kernels],
        }
    if kind == "power_report":
        ok = result.applicable and result.cumulative_pi() == result.cumulative_chain()
        return ok, {"spec": arg.to_dict(), "report": result.to_dict()}
    defects = [result.dual_gap]
    for side in (result.primal, result.dual):
        defects += [side.orthogonality_defect, side.direct_sum_residual]
    nx = pirep.numerics
    defects.append(nx.opnorm(result.primal.generated.projector() - result.dual.generated.projector()))
    defects.append(nx.opnorm(result.primal.residual.projector() - result.dual.residual.projector()))
    ok = result.is_partial_isometric and max(defects) <= WOLD_DEFECT
    return ok, result.to_dict()


class WindowWorkload:
    """Rounds of six cases on wide lifts: four seeded shift specs (n = 2
    and 3, with and without a broken weight), each a case of
    ``shift_pi_criterion`` plus ``kernel_formula`` against
    ``brute_force_kernel``; one ``power_report`` (n = 2, trunc 120, n_max
    4); one ``wold_decompose`` of a shift (+) unitary with q = 60, u = 20."""

    passes = 3
    # Op times are scaled by the wide probe: these cases are LAPACK-bound
    # and slow down less than the small probe does (speed.py).  An op's
    # time is then the fastest of its three repetitions.
    probe = WideProbe

    def size_for(self, seconds: float) -> int:
        """Rounds."""
        return max(1, round(seconds / ROUND_SECONDS))

    def inputs(self, pirep, seed: int, size: int) -> list:
        sh = pirep.shifts
        cases = []
        for r in range(size):
            rng = np.random.default_rng([seed, r])
            for n in (2, 3):
                for broken in (False, True):
                    cases.append(("shift", _shift_spec(sh, rng, n, broken)))
            cases.append(("power_report", sh.WeightedShiftSpec(n=2, trunc=120)))
            wold_rep = pirep.harness.shift_plus_unitary_fixture(rng, pirep.numerics.DEFAULT_TOL, q=60, u_dim=20)
            cases.append(("wold", wold_rep))
        return cases

    def run(self, pirep, cases: list, ledger: Ledger, tracer, probe=None):
        """The speed probe, if any, samples between cases, outside their time."""
        for index, (kind, arg) in enumerate(cases):
            if tracer is not None:
                tracer.begin_trial(index)
            if probe is not None:
                probe.maybe_sample()
            t0 = clock()
            ledger.starts.append(t0)
            try:
                result = CASES[kind](pirep, arg)
            except Exception as exc:  # a raising case is a failed op
                result = exc
                ledger.failures.append(f"case {index} ({kind}) raised {exc!r}")
            ledger.latencies.append(clock() - t0)
            ledger.results.append((kind, arg, result))

    def check(self, pirep, ledger: Ledger) -> list:
        reports = []
        for index, (kind, arg, result) in enumerate(ledger.results):
            if isinstance(result, Exception):
                reports.append({"case": kind, "raised": repr(result)})
                continue
            ok, report = _check_case(pirep, kind, arg, result)
            reports.append({"case": kind, **report})
            if not ok:
                ledger.failures.append(f"case {index} ({kind}) disagrees with its oracle")
        return reports


WORKLOADS = {
    "claims_scalar": ClaimsWorkload("scalar", trials_per_s=165.0),
    "claims_two_block": ClaimsWorkload("two_block", trials_per_s=50.0),
    "large_window": WindowWorkload(),
}
