"""Random instance generators and the randomized claim-verification engine.

Every trial draws its randomness from a counter-based stream keyed by
(master seed, trial index), so runs are reproducible and trials can be
evaluated concurrently in any order with identical results.  Claims are
registered under short ids; ``verify`` runs hypothesis-conditioned trials,
evaluates both sides of the registered equivalence or implication, and
collects violations as replayable counterexamples.  Violations are data,
not errors.

Instances are generated constructively, never by rejection alone: the
partial-isometry generator projects singular values after restriction to
the intertwiner space (spectral functions of T*T commute with the algebra
action, so covariance survives the projection).  The only instances drawn
at a margin are the forced non-partial isometries, whose top singular
value lies in [0.25, 0.75]; ``verify`` refuses an ``eq_rel`` above
``MAX_EQ_REL``.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import numerics as nx
from . import powers as pw
from . import shifts as sh
from . import wold as wd
from .correspondence import (
    SCALARS,
    FdCStarAlgebra,
    FdCorrespondence,
    StarRepresentation,
    TensorSpace,
    diagonal_correspondence,
    scalar_correspondence,
)
from .covrep import CovariantRep, rep_from_tilde
from .errors import NotApplicable, UsageError
from .numerics import Record, Tolerance, eye, herm, opnorm
from .products import (
    ProductRep,
    chain_condition_test,
    commuting_projection_test,
    defect_dilation_test,
    pinv_factorization_test,
    single_defect_dilation,
)
from .serialize import rep_to_json

TWO_BLOCK = FdCStarAlgebra([1, 1])


def rng_stream(master_seed: int, index: int) -> np.random.Generator:
    """Counter-based stream for trial ``index`` under ``master_seed``."""
    return np.random.Generator(np.random.Philox(key=(int(master_seed) << 64) | int(index)))


def crandn(rng: np.random.Generator, *shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(crandn(rng, d, d))
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


@dataclass(frozen=True)
class TrialConfig(Record):
    """Shared knobs for instance generation."""

    master_seed: int = 0
    trials: int = 100
    h_dim_range: tuple = (2, 6)
    module_dim_range: tuple = (1, 2)
    algebra_shape: str = "scalar"  # "scalar", "two_block", or "mixed"
    n_max: int = 4

    def __post_init__(self):
        if not 0 <= self.master_seed < 2**64:
            raise UsageError(f"master seed must be in [0, 2**64), got {self.master_seed}")
        if self.trials < 1:
            raise UsageError("need at least one trial")
        if self.algebra_shape not in ("scalar", "two_block", "mixed"):
            raise UsageError(f"unknown algebra shape {self.algebra_shape!r}")
        if self.n_max < 1:
            raise UsageError("n_max must be at least 1")
        for name in ("h_dim_range", "module_dim_range"):
            bounds = getattr(self, name)
            if not (
                isinstance(bounds, tuple)
                and len(bounds) == 2
                and all(isinstance(b, int) for b in bounds)
                and 0 <= bounds[0] <= bounds[1]
            ):
                raise UsageError(f"{name} must be two integers 0 <= lo <= hi, got {bounds!r}")

    @staticmethod
    def from_dict(obj: dict) -> "TrialConfig":
        """Inverse of to_dict; keys that to_dict does not write are ignored,
        and anything but an object with every key is a UsageError."""
        try:
            return TrialConfig(
                master_seed=int(obj["master_seed"]),
                trials=int(obj["trials"]),
                h_dim_range=tuple(obj["h_dim_range"]),
                module_dim_range=tuple(obj["module_dim_range"]),
                algebra_shape=obj["algebra_shape"],
                n_max=int(obj["n_max"]),
            )
        except KeyError as exc:
            raise UsageError(f"trial config lacks {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise UsageError(f"bad trial config: {exc}") from exc


# ---------------------------------------------------------------------------
# settings and covariant matrices
# ---------------------------------------------------------------------------


def draw_setting(rng: np.random.Generator, config: TrialConfig):
    """Draw (correspondence, sigma) for one trial."""
    shape = config.algebra_shape
    if shape == "mixed":
        shape = "scalar" if rng.integers(0, 2) == 0 else "two_block"
    n = int(rng.integers(config.module_dim_range[0], config.module_dim_range[1] + 1))
    if shape == "scalar":
        d = int(rng.integers(config.h_dim_range[0], config.h_dim_range[1] + 1))
        return scalar_correspondence(n), StarRepresentation(SCALARS, [d])
    left = [int(t) for t in rng.integers(0, 2, size=n)]
    right = [int(t) for t in rng.integers(0, 2, size=n)]
    lo = max(1, config.h_dim_range[0] // 2)
    hi = max(lo, config.h_dim_range[1] // 2)
    mults = [int(rng.integers(lo, hi + 1)), int(rng.integers(lo, hi + 1))]
    return diagonal_correspondence(TWO_BLOCK, left, right), StarRepresentation(TWO_BLOCK, mults)


def intertwiner_frame(space: TensorSpace, sigma: StarRepresentation, tol: Tolerance) -> np.ndarray:
    """Orthonormal basis (as columns of vectorized matrices) of the space of
    operators E (x) H -> H intertwining the induced actions, for
    ``space`` = E (x) H."""
    d = sigma.h_dim
    if sigma.algebra.is_scalar:
        return eye(d * space.dim)
    basis = sigma.algebra.basis()
    n = d * space.dim
    nx.check_bytes(nx.ENTRY_BYTES * len(basis) * n * n, f"the intertwiner constraints on dimension {n}")
    acts = space.induced_action(basis)
    # per matrix unit u: kron(act(u)^T, I_d) - kron(I, sigma(u)), stacked as rows
    rows = nx.kron_eye(acts.transpose(0, 2, 1), d) - nx.eye_kron(space.dim, sigma.apply(basis))
    return nx.kernel_frame(rows.reshape(len(basis) * n, n), tol)


def random_covariant_matrix(
    corr: FdCorrespondence, sigma: StarRepresentation, rng: np.random.Generator, tol: Tolerance
) -> np.ndarray:
    """Random element of the intertwiner space, as a dim(H) x dim(E (x) H)
    matrix.  Vectorization is column-stacked: X = reshape(space_dim, d).T."""
    space = corr.space(sigma, tol)
    d = sigma.h_dim
    frame = intertwiner_frame(space, sigma, tol)
    coeff = crandn(rng, frame.shape[1])
    return (frame @ coeff).reshape(space.dim, d).T.copy()


def spectral_remap(x: np.ndarray, fn) -> np.ndarray:
    """Replace each singular value s by fn(s).  This acts as a spectral
    function of X*X composed with X, so it preserves intertwining."""
    x = nx.as_matrix(x)
    if x.size == 0:
        return x.copy()
    u, s, vh = np.linalg.svd(x, full_matrices=False)
    return u @ (np.array([fn(v) for v in s])[:, None] * vh)


def random_pi_rep(
    corr: FdCorrespondence, sigma: StarRepresentation, rng: np.random.Generator, tol: Tolerance
) -> CovariantRep:
    """Random partially isometric representation: draw a covariant matrix,
    then project singular values to {0, 1} (threshold 1/2).  The zero lift
    is a possible draw."""
    x = random_covariant_matrix(corr, sigma, rng, tol)
    scale = opnorm(x)
    if scale > 0:
        x = x / scale * 1.2  # typical spread puts values on both sides of 1/2
    tilde = spectral_remap(x, lambda s: 1.0 if s >= 0.5 else 0.0)
    return rep_from_tilde(corr, sigma, tilde, tol)


def random_contractive_rep(
    corr: FdCorrespondence,
    sigma: StarRepresentation,
    rng: np.random.Generator,
    tol: Tolerance,
    *,
    force_non_pi: bool = False,
) -> CovariantRep:
    """Random completely contractive representation (norm <= 1).  With
    ``force_non_pi`` the top singular value is placed inside [0.25, 0.75],
    separating the instance from every partial isometry by a margin."""
    x = random_covariant_matrix(corr, sigma, rng, tol)
    scale = opnorm(x)
    if scale == 0.0:
        return rep_from_tilde(corr, sigma, x, tol)
    if force_non_pi:
        target = float(rng.uniform(0.25, 0.75))
        tilde = spectral_remap(x, lambda s: s / scale * target)
    else:
        tilde = x / scale * float(rng.uniform(0.2, 1.0))
    return rep_from_tilde(corr, sigma, tilde, tol)


def coisometric_covariant_rep(
    corr: FdCorrespondence, sigma: StarRepresentation, rng: np.random.Generator, tol: Tolerance
) -> CovariantRep | None:
    """Covariant lift with tilde tilde* = I, or None when the drawn
    covariant matrix X has rank below dim H.  At full row rank, setting
    every singular value to 1 gives the polar part (X X*)^(-1/2) X, which
    keeps covariance; below it, the remap would also lift zero singular
    values and break covariance."""
    x = random_covariant_matrix(corr, sigma, rng, tol)
    u, s, vh = np.linalg.svd(x, full_matrices=False)
    if np.count_nonzero(s > nx.rank_threshold(s, x.shape, tol, 1.0)) < sigma.h_dim:
        return None
    return rep_from_tilde(corr, sigma, u @ vh, tol)


# ---------------------------------------------------------------------------
# structured fixtures
# ---------------------------------------------------------------------------


def _scalar_rep(vs, tol):
    d = vs[0].shape[0]
    return CovariantRep(
        scalar_correspondence(len(vs)), StarRepresentation(SCALARS, [d]), vs, tol
    )


def unitary_fixture(rng, tol: Tolerance, d: int) -> CovariantRep:
    """A Haar unitary on C^d over E = C.  A lift of shape d x (n d) is
    isometric only for n = 1, where a finite-dimensional isometry is
    already unitary."""
    return _scalar_rep([haar_unitary(rng, d)], tol)


def truncated_shift_fixture(tol: Tolerance, d: int) -> CovariantRep:
    """The forward shift on C^d over E = C."""
    return _scalar_rep([np.diag([1.0] * (d - 1), -1).astype(complex)], tol)


def coisometric_row_fixture(rng, tol: Tolerance, n: int, d: int) -> CovariantRep:
    """A row of n Haar unitaries on C^d scaled by 1/sqrt(n), over E = C^n."""
    return _scalar_rep([haar_unitary(rng, d) / np.sqrt(n) for _ in range(n)], tol)


def invertible_contraction_fixture(rng, tol: Tolerance, d: int) -> CovariantRep:
    """An invertible contraction on C^d over E = C, its singular values in
    [0.3, 0.9]."""
    u, s, vh = np.linalg.svd(crandn(rng, d, d), full_matrices=False)
    return _scalar_rep([u @ ((0.3 + 0.6 * s / s.max())[:, None] * vh)], tol)


def shift_plus_unitary_fixture(rng, tol: Tolerance, q: int | None = None, u_dim: int | None = None) -> CovariantRep:
    """Forward truncated shift (+) unitary: the standard two-part model."""
    q = int(rng.integers(2, 5)) if q is None else q
    u_dim = int(rng.integers(1, 4)) if u_dim is None else u_dim
    u = haar_unitary(rng, u_dim)
    shift = np.diag([1.0] * (q - 1), -1).astype(complex)
    v = np.block(
        [
            [shift, np.zeros((q, u_dim), dtype=complex)],
            [np.zeros((u_dim, q), dtype=complex), u],
        ]
    )
    return _scalar_rep([v], tol)


def regular_fixture(rng, tol: Tolerance, *, want_pi: bool) -> CovariantRep:
    """Genuinely regular representation (lift onto): coisometric rows and
    unitaries for the partially isometric flavor, invertible contractions
    otherwise."""
    if want_pi:
        pick = int(rng.integers(0, 3))
        if pick == 0:
            return unitary_fixture(rng, tol, int(rng.integers(2, 6)))
        n = int(rng.integers(2, 4)) if pick == 1 else 2
        d = int(rng.integers(2, 5))
        return coisometric_row_fixture(rng, tol, n, d)
    return invertible_contraction_fixture(rng, tol, int(rng.integers(2, 6)))


def power_pi_fixture(rng, tol: Tolerance) -> CovariantRep:
    """A representation whose powers all stay partial isometries."""
    pick = int(rng.integers(0, 3))
    if pick == 0:
        return shift_plus_unitary_fixture(rng, tol)
    if pick == 1:
        return truncated_shift_fixture(tol, int(rng.integers(2, 6)))
    spec = sh.WeightedShiftSpec(
        n=int(rng.integers(1, 3)),
        zero_set=frozenset(int(x) for x in rng.integers(0, 6, size=rng.integers(0, 3))),
        trunc=24,
    )
    return sh.build_shift(spec, tol)


def commuting_pi_pair(rng, config: TrialConfig, tol: Tolerance):
    """Partially isometric pair built so the two projections commute
    (the true branch of the two-factor criterion)."""
    corr2, sigma = draw_setting(rng, config)
    if not corr2.algebra.is_scalar:
        # zero first factor: its initial projection commutes with anything
        rep2 = random_pi_rep(corr2, sigma, rng, tol)
        zero = np.zeros((sigma.h_dim, rep2.space(1).dim), dtype=complex)
        rep1 = rep_from_tilde(corr2, sigma, zero, tol)
        return rep1, rep2
    d = sigma.h_dim
    n1 = int(rng.integers(config.module_dim_range[0], config.module_dim_range[1] + 1))
    corr1 = scalar_correspondence(n1)
    rep2 = random_pi_rep(corr2, sigma, rng, tol)
    # split E_1 (x) H along the amplified final projection of the second
    # factor's lift and pick the initial space inside the two halves
    f_proj = np.kron(eye(n1), rep2.tilde @ herm(rep2.tilde))
    f_frame = nx.range_frame(f_proj, tol, scale_floor=1.0)
    f_comp = nx.kernel_frame(f_proj, tol, scale_floor=1.0)
    pieces = []
    if f_frame.shape[1]:
        k1 = int(rng.integers(0, f_frame.shape[1] + 1))
        if k1:
            pieces.append(f_frame @ nx.range_frame(crandn(rng, f_frame.shape[1], k1), tol))
    if f_comp.shape[1]:
        k2 = int(rng.integers(0, f_comp.shape[1] + 1))
        if k2:
            pieces.append(f_comp @ nx.range_frame(crandn(rng, f_comp.shape[1], k2), tol))
    frame = np.hstack(pieces) if pieces else np.zeros((n1 * d, 0), dtype=complex)
    if frame.shape[1] > d:
        frame = frame[:, :d]
    iso = nx.range_frame(crandn(rng, d, max(frame.shape[1], 1)), tol)[:, : frame.shape[1]]
    tilde = iso @ herm(frame)
    rep1 = rep_from_tilde(corr1, sigma, tilde, tol)
    return rep1, rep2


def random_pi_pair(rng, config: TrialConfig, tol: Tolerance):
    """Two partially isometric factors on a common (sigma, H)."""
    corr_a, sigma = draw_setting(rng, config)
    rep_a = random_pi_rep(corr_a, sigma, rng, tol)
    if corr_a.algebra.is_scalar:
        n_b = int(rng.integers(config.module_dim_range[0], config.module_dim_range[1] + 1))
        corr_b = scalar_correspondence(n_b)
    else:
        corr_b = corr_a
    rep_b = random_pi_rep(corr_b, sigma, rng, tol)
    return rep_a, rep_b


# ---------------------------------------------------------------------------
# outcomes and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialOutcome:
    status: str  # "ok" | "violation" | "skip"
    residual: float
    detail: dict = field(default_factory=dict)

    @staticmethod
    def ok(residual: float) -> "TrialOutcome":
        return TrialOutcome("ok", residual)

    @staticmethod
    def violation(residual: float, **detail) -> "TrialOutcome":
        return TrialOutcome("violation", residual, detail)

    @staticmethod
    def skip(reason: str) -> "TrialOutcome":
        return TrialOutcome("skip", 0.0, {"reason": reason})


@dataclass(frozen=True)
class VerificationReport(Record):
    theorem_id: str
    description: str
    falsify: bool
    config: TrialConfig
    tolerance: Tolerance
    trials_run: int
    equivalence_violations: int
    hypothesis_skips: int
    max_residual: float
    counterexamples: list


# ---------------------------------------------------------------------------
# registered claims
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClaimEntry:
    theorem_id: str
    description: str
    trial: object
    falsify_trial: object = None


def _trial_product_commuting(rng, config: TrialConfig, tol: Tolerance) -> TrialOutcome:
    force = int(rng.integers(0, 4)) == 0
    rep1, rep2 = (commuting_pi_pair if force else random_pi_pair)(rng, config, tol)
    res = commuting_projection_test(rep1, rep2)
    residual = float(max(res.commutator_norm if res.projections_commute else 0.0,
                         res.product_residual if res.product_is_pi else 0.0))
    if res.product_is_pi != res.projections_commute:
        return TrialOutcome.violation(
            residual,
            product_is_pi=res.product_is_pi,
            projections_commute=res.projections_commute,
            commutator_norm=res.commutator_norm,
            product_residual=res.product_residual,
            factors=[rep_to_json(rep1), rep_to_json(rep2)],
        )
    return TrialOutcome.ok(residual)


def _trial_product_naive_pi(rng, config: TrialConfig, tol: Tolerance) -> TrialOutcome:
    """Deliberately false claim: the product of two partial isometries is a
    partial isometry."""
    rep1, rep2 = random_pi_pair(rng, config, tol)
    residual, is_pi = nx.partial_isometry_residual(ProductRep([rep1, rep2]).tilde, tol)
    if not is_pi:
        return TrialOutcome.violation(
            residual, factors=[rep_to_json(rep1), rep_to_json(rep2)]
        )
    return TrialOutcome.ok(residual)


def _trial_chain(rng, config: TrialConfig, tol: Tolerance) -> TrialOutcome:
    corr, sigma = draw_setting(rng, config)
    count = int(rng.integers(3, 5))  # chains of length 3 or 4
    factors = [random_pi_rep(corr, sigma, rng, tol)]
    if corr.algebra.is_scalar:
        for _ in range(count - 1):
            n = int(rng.integers(config.module_dim_range[0], config.module_dim_range[1] + 1))
            rep = random_pi_rep(scalar_correspondence(n), sigma, rng, tol)
            if int(rng.integers(0, 3)) == 0:
                alt = coisometric_covariant_rep(scalar_correspondence(n), sigma, rng, tol)
                rep = alt if alt is not None else rep
            factors.append(rep)
    else:
        for _ in range(count - 1):
            factors.append(random_pi_rep(corr, sigma, rng, tol))
    report = chain_condition_test(factors)
    if not (report.cumulative_agree() and report.raw_agree_until_first_failure()):
        return TrialOutcome.violation(
            0.0, report=report.to_dict(), factors=[rep_to_json(f) for f in factors]
        )
    return TrialOutcome.ok(0.0)


def _trial_pinv_chain(rng, config: TrialConfig, tol: Tolerance) -> TrialOutcome:
    count = 2 if int(rng.integers(0, 3)) else 3
    corr, sigma = draw_setting(rng, config)
    factors = [random_pi_rep(corr, sigma, rng, tol)]
    for _ in range(count - 1):
        if corr.algebra.is_scalar:
            n = int(rng.integers(config.module_dim_range[0], config.module_dim_range[1] + 1))
            rep = random_pi_rep(scalar_correspondence(n), sigma, rng, tol)
            if int(rng.integers(0, 4)) == 0 and n == 1:
                rep = unitary_fixture(rng, tol, sigma.h_dim)  # true branch
            factors.append(rep)
        else:
            factors.append(random_pi_rep(corr, sigma, rng, tol))
    res = pinv_factorization_test(factors)
    if res.is_pi != res.pinv_factors_match:
        return TrialOutcome.violation(
            res.chain_residual,
            is_pi=res.is_pi,
            pinv_factors_match=res.pinv_factors_match,
            chain_residual=res.chain_residual,
            factors=[rep_to_json(f) for f in factors],
        )
    return TrialOutcome.ok(res.chain_residual if res.is_pi else 0.0)


def _trial_defect_dilation(rng, config: TrialConfig, tol: Tolerance) -> TrialOutcome:
    corr, sigma = draw_setting(rng, config)
    force_pi_first = int(rng.integers(0, 2)) == 0
    if force_pi_first:
        rep1 = random_pi_rep(corr, sigma, rng, tol)
    else:
        rep1 = random_contractive_rep(corr, sigma, rng, tol, force_non_pi=True)
    if corr.algebra.is_scalar:
        n = int(rng.integers(config.module_dim_range[0], config.module_dim_range[1] + 1))
        corr2 = scalar_correspondence(n)
    else:
        corr2 = corr
    rep2 = random_contractive_rep(corr2, sigma, rng, tol)
    res = defect_dilation_test(rep1, rep2)
    single = single_defect_dilation(rep1)
    single_ok = nx.is_partial_isometry(single, tol)
    if res.m_is_pi != res.rep1_is_pi or not single_ok:
        return TrialOutcome.violation(
            0.0,
            m_is_pi=res.m_is_pi,
            rep1_is_pi=res.rep1_is_pi,
            single_dilation_is_pi=single_ok,
            factors=[rep_to_json(rep1), rep_to_json(rep2)],
        )
    return TrialOutcome.ok(0.0)


def _draw_power_rep(rng, config: TrialConfig, tol: Tolerance) -> CovariantRep:
    pick = int(rng.integers(0, 3))
    if pick == 0:
        return power_pi_fixture(rng, tol)
    corr, sigma = draw_setting(rng, config)
    return random_pi_rep(corr, sigma, rng, tol)


def _trial_chain_vs_range(rng, config: TrialConfig, tol: Tolerance) -> TrialOutcome:
    rep = _draw_power_rep(rng, config, tol)
    for m in range(1, config.n_max + 1):
        lhs = pw.kernel_chain_condition(rep, m)
        rhs = pw.range_invariance_condition(rep, m)
        if lhs != rhs:
            return TrialOutcome.violation(0.0, m=m, chain=lhs, range_invariance=rhs,
                                          instance=rep_to_json(rep))
    return TrialOutcome.ok(0.0)


def _trial_power_criterion(rng, config: TrialConfig, tol: Tolerance) -> TrialOutcome:
    rep = _draw_power_rep(rng, config, tol)
    report = pw.power_report(rep, config.n_max)
    if not report.applicable:
        return TrialOutcome.skip("representation is not partially isometric")
    if report.cumulative_pi() != report.cumulative_chain():
        return TrialOutcome.violation(0.0, report=report.to_dict(), instance=rep_to_json(rep))
    return TrialOutcome.ok(0.0)


def _trial_power_step(rng, config: TrialConfig, tol: Tolerance) -> TrialOutcome:
    rep = _draw_power_rep(rng, config, tol)
    if not rep.is_partial_isometric():
        return TrialOutcome.skip("representation is not partially isometric")
    checked = False
    for n in range(2, config.n_max):
        if not nx.is_partial_isometry(rep.tilde_power(n), tol):
            continue
        if not pw.kernel_chain_condition(rep, n + 1):
            continue
        checked = True
        if not nx.is_partial_isometry(rep.tilde_power(n + 1), tol):
            return TrialOutcome.violation(0.0, n=n, instance=rep_to_json(rep))
    if not checked:
        return TrialOutcome.skip("hypotheses never satisfied at any power")
    return TrialOutcome.ok(0.0)


def _trial_kernel_step_lemma(rng, config: TrialConfig, tol: Tolerance) -> TrialOutcome:
    rep = regular_fixture(rng, tol, want_pi=bool(rng.integers(0, 2)))
    s = nx.pseudoinverse(rep.tilde, tol)
    res = pw.generalized_inverse_check(rep, s, m_bound=3)
    if not res.is_gen_inverse:
        return TrialOutcome.skip("pseudoinverse failed the generalized-inverse identities")
    if res.lemma_holds_up_to < 3:
        return TrialOutcome.violation(0.0, lemma_holds_up_to=res.lemma_holds_up_to,
                                      instance=rep_to_json(rep))
    return TrialOutcome.ok(0.0)


def _trial_regular_power(rng, config: TrialConfig, tol: Tolerance) -> TrialOutcome:
    rep = regular_fixture(rng, tol, want_pi=bool(rng.integers(0, 2)))
    try:
        res = pw.regular_pi_iff_power_pi(rep, bound=config.n_max)
    except NotApplicable as exc:
        return TrialOutcome.skip(str(exc))
    if res.is_pi and res.is_power_pi_up_to < config.n_max:
        return TrialOutcome.violation(0.0, result=res.to_dict(), instance=rep_to_json(rep))
    if not res.is_pi and res.is_power_pi_up_to >= 1:
        return TrialOutcome.violation(0.0, result=res.to_dict(), instance=rep_to_json(rep))
    return TrialOutcome.ok(0.0)


def _trial_shift_criterion(rng, config: TrialConfig, tol: Tolerance) -> TrialOutcome:
    n = int(rng.integers(1, 4))
    zero_set = frozenset(int(x) for x in rng.integers(0, 8, size=rng.integers(0, 4)))
    weights = {}
    if int(rng.integers(0, 2)) == 0:
        weights[(int(rng.integers(1, n + 1)), int(rng.integers(0, 4)))] = float(rng.uniform(0.3, 0.9))
    spec = sh.WeightedShiftSpec(n=n, weights=weights, zero_set=zero_set)
    res = sh.shift_pi_criterion(spec, tol, power_cap=3)
    detail = {"spec": spec.to_dict(), "result": res.to_dict()}
    if res.is_pi != res.weights_unit_off_zero_set:
        return TrialOutcome.violation(0.0, **detail)
    if res.is_pi and res.power_pi_up_to < spec.window_bound(cap=3):
        return TrialOutcome.violation(0.0, **detail)
    return TrialOutcome.ok(0.0)


def _root_instance(rng, config: TrialConfig, tol: Tolerance) -> CovariantRep:
    """Contractive representation with a partially isometric square: either
    an order-2 nilpotent row (square exactly zero) or a power-PI fixture."""
    if int(rng.integers(0, 4)) == 0:
        return power_pi_fixture(rng, tol)
    k1 = int(rng.integers(1, 3))
    k2 = int(rng.integers(1, 3))
    n = int(rng.integers(1, 3))
    row = crandn(rng, k2, n * k1)
    cut = 0.4 * max(1e-12, opnorm(row))
    if int(rng.integers(0, 2)) == 0:
        row = spectral_remap(row, lambda s: 1.0 if s >= cut else 0.0)
    else:
        row = row / (2.0 * max(opnorm(row), 1.0))
    vs = []
    for j in range(n):
        b = row[:, j * k1 : (j + 1) * k1]
        vs.append(
            np.block(
                [
                    [np.zeros((k1, k1), dtype=complex), np.zeros((k1, k2), dtype=complex)],
                    [b, np.zeros((k2, k2), dtype=complex)],
                ]
            )
        )
    return _scalar_rep(vs, tol)


def _trial_root(rng, config: TrialConfig, tol: Tolerance) -> TrialOutcome:
    rep = _root_instance(rng, config, tol)
    try:
        res = pw.root_criterion(rep, 2)
    except NotApplicable as exc:
        return TrialOutcome.skip(str(exc))
    if not res.hypothesis_ok:
        return TrialOutcome.skip("square of the lift is not a partial isometry")
    if (res.cond_a and res.cond_b) != res.rep_is_pi:
        return TrialOutcome.violation(
            max(res.isometry_defect, res.orthogonality_defect),
            result=res.to_dict(),
            instance=rep_to_json(rep),
        )
    return TrialOutcome.ok(0.0)


def _trial_kernel_match(rng, config: TrialConfig, tol: Tolerance) -> TrialOutcome:
    if int(rng.integers(0, 2)) == 0:
        d = int(rng.integers(1, 4))
        pad = int(rng.integers(1, 3))
        u = haar_unitary(rng, d)
        v = np.block(
            [
                [u, np.zeros((d, pad), dtype=complex)],
                [np.zeros((pad, d), dtype=complex), np.zeros((pad, pad), dtype=complex)],
            ]
        )
        rep = _scalar_rep([v], tol)
    else:
        rep = _root_instance(rng, config, tol)
    try:
        res = pw.kernel_match_criterion(rep, 2)
    except NotApplicable as exc:
        return TrialOutcome.skip(str(exc))
    if res.applicable and not res.rep_is_pi:
        return TrialOutcome.violation(0.0, result=res.to_dict(), instance=rep_to_json(rep))
    return TrialOutcome.ok(0.0)


def _trial_orthogonality_remark(rng, config: TrialConfig, tol: Tolerance) -> TrialOutcome:
    rep = _root_instance(rng, config, tol)
    try:
        out = pw.orthogonality_from_chain(rep, 2)
    except NotApplicable as exc:
        return TrialOutcome.skip(str(exc))
    if not out["implication_holds"]:
        return TrialOutcome.violation(0.0, result=out, instance=rep_to_json(rep))
    return TrialOutcome.ok(0.0)


def _trial_wold_bi_regular(rng, config: TrialConfig, tol: Tolerance) -> TrialOutcome:
    rep = regular_fixture(rng, tol, want_pi=bool(rng.integers(0, 2)))
    try:
        out = wd.wold_decompose(rep)
    except NotApplicable as exc:
        return TrialOutcome.skip(str(exc))
    residuals = (
        out.primal.direct_sum_residual,
        out.dual.direct_sum_residual,
        out.primal.orthogonality_defect,
        out.dual.orthogonality_defect,
    )
    residual = max(residuals)
    if not all(nx.residual_holds(x, 1.0, tol) for x in residuals):
        return TrialOutcome.violation(residual, result=out.to_dict(), instance=rep_to_json(rep))
    return TrialOutcome.ok(residual)


def _trial_wold_pi(rng, config: TrialConfig, tol: Tolerance) -> TrialOutcome:
    strict = int(rng.integers(0, 2)) == 0
    if strict:
        rep = regular_fixture(rng, tol, want_pi=True)
        out = wd.wold_decompose(rep)
    else:
        rep = shift_plus_unitary_fixture(rng, tol)
        out = wd.wold_decompose(rep, check_hypotheses=False)
    residual = max(
        out.primal.direct_sum_residual,
        out.dual.direct_sum_residual,
        out.primal.orthogonality_defect,
        out.dual.orthogonality_defect,
        out.dual_gap,
        opnorm(out.primal.generated.projector() - out.dual.generated.projector()),
        opnorm(out.primal.residual.projector() - out.dual.residual.projector()),
    )
    if not nx.residual_holds(residual, 1.0, tol):
        return TrialOutcome.violation(residual, result=out.to_dict(), instance=rep_to_json(rep))
    return TrialOutcome.ok(residual)


REGISTRY = {
    "T2.2": ClaimEntry(
        "T2.2",
        "two-factor product: partially isometric iff the initial and amplified"
        " final projections commute",
        _trial_product_commuting,
        _trial_product_naive_pi,
    ),
    "T2.3": ClaimEntry(
        "T2.3",
        "n-factor product: the four stagewise invariance conditions decide"
        " partial isometry together",
        _trial_chain,
        _trial_product_naive_pi,
    ),
    "R2.4": ClaimEntry(
        "R2.4",
        "product lift partially isometric iff its pseudoinverse equals the"
        " reversed amplified pseudoinverse chain",
        _trial_pinv_chain,
        _trial_product_naive_pi,
    ),
    "T2.5": ClaimEntry(
        "T2.5",
        "defect-dilation block operator partially isometric iff the first"
        " factor is; the single-lift dilation is unconditionally",
        _trial_defect_dilation,
    ),
    "P3.1": ClaimEntry(
        "P3.1",
        "kernel-chain inclusion equals range-invariance at every power",
        _trial_chain_vs_range,
    ),
    "T3.2": ClaimEntry(
        "T3.2",
        "powers partially isometric up to n iff the kernel chain holds up to n",
        _trial_power_criterion,
    ),
    "C3.3": ClaimEntry(
        "C3.3",
        "one-step promotion: power n partially isometric plus the chain at"
        " n+1 gives power n+1",
        _trial_power_step,
    ),
    "L3.5": ClaimEntry(
        "L3.5",
        "generalized inverses step kernels forward: (I (x) S) N(T_m) <= N(T_{m+1})"
        " for regular representations",
        _trial_kernel_step_lemma,
    ),
    "C3.6": ClaimEntry(
        "C3.6",
        "regular representations: partially isometric iff power partially isometric",
        _trial_regular_power,
    ),
    "P3.8": ClaimEntry(
        "P3.8",
        "weighted shifts: partially isometric iff unit weights off the zero"
        " set, and then power partially isometric",
        _trial_shift_criterion,
    ),
    "T3.9": ClaimEntry(
        "T3.9",
        "root criterion: with T_2 a partial isometry, partial isometry of the"
        " lift equals the isometry-plus-orthogonality conditions",
        _trial_root,
    ),
    "R3.10": ClaimEntry(
        "R3.10",
        "kernel-match criterion: N(I (x) T) = N(T_2) plus a partially"
        " isometric power forces partial isometry",
        _trial_kernel_match,
    ),
    "R3.11": ClaimEntry(
        "R3.11",
        "isometry condition plus the kernel chain imply the orthogonality condition",
        _trial_orthogonality_remark,
    ),
    "W3.12": ClaimEntry(
        "W3.12",
        "bi-regular decomposition: generated wandering part plus residual"
        " range fill the space orthogonally, in both orders",
        _trial_wold_bi_regular,
    ),
    "W3.13": ClaimEntry(
        "W3.13",
        "partially isometric decomposition: dual equals primal and the lift"
        " equals its Cauchy dual",
        _trial_wold_pi,
    ),
}


def theorem_ids() -> list:
    return sorted(REGISTRY)


# Loosest eq_rel verify accepts.  Accepted identities hold to roundoff and
# the forced non-partial isometries miss theirs by more than 0.2, so a
# cutoff at most 1e-5 keeps both over four decades clear of it.
MAX_EQ_REL = 1e-5


def _claim(theorem_id: str, falsify: bool):
    """The registered entry and its trial; an unknown id or a missing falsification variant is refused."""
    if not isinstance(theorem_id, str) or theorem_id not in REGISTRY:
        raise UsageError(f"unknown claim id {theorem_id!r}; known: {', '.join(theorem_ids())}")
    entry = REGISTRY[theorem_id]
    fn = entry.falsify_trial if falsify else entry.trial
    if fn is None:
        raise UsageError(f"claim {theorem_id} has no falsification variant")
    return entry, fn


def verify(
    theorem_id: str,
    config: TrialConfig,
    tol: Tolerance,
    *,
    jobs: int = 1,
    falsify: bool = False,
) -> VerificationReport:
    """Run the registered claim over ``config.trials`` seeded trials.

    Deterministic: identical (theorem_id, config, tolerance, falsify)
    produce identical reports regardless of ``jobs``.  ``jobs`` and its
    thread pool gain nothing on matrices this small; they stay only while
    the benchmark workloads pass ``jobs=1``, and go once those calls drop
    it (ROADMAP items 8, then 7).
    """
    entry, fn = _claim(theorem_id, falsify)
    if tol.eq_rel > MAX_EQ_REL:
        raise UsageError(f"verify needs eq_rel <= {MAX_EQ_REL} for clean separation")
    if jobs < 1:
        raise UsageError(f"verify needs jobs >= 1, got {jobs}")

    def run(index: int) -> TrialOutcome:
        return fn(rng_stream(config.master_seed, index), config, tol)

    indices = range(config.trials)
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(run, indices))
    else:
        outcomes = [run(i) for i in indices]

    violations, skips, counterexamples = 0, 0, []
    max_residual = 0.0
    for index, outcome in enumerate(outcomes):
        if outcome.status == "skip":
            skips += 1
            continue
        max_residual = max(max_residual, outcome.residual)
        if outcome.status == "violation":
            violations += 1
            counterexamples.append(
                {
                    "theorem_id": theorem_id,
                    "falsify": falsify,
                    "master_seed": config.master_seed,
                    "trial_index": index,
                    "residual": outcome.residual,
                    "config": config.to_dict(),
                    "detail": outcome.detail,
                }
            )
    return VerificationReport(
        theorem_id=theorem_id,
        description=entry.description,
        falsify=falsify,
        config=config,
        tolerance=tol,
        trials_run=config.trials,
        equivalence_violations=violations,
        hypothesis_skips=skips,
        max_residual=max_residual,
        counterexamples=counterexamples,
    )


def replay_counterexample(counterexample: dict, tol: Tolerance) -> TrialOutcome:
    """Re-run the embedded (master seed, trial index) and return the fresh
    outcome; a genuine counterexample reproduces its violation.  A seed
    or trial index that does not fit the embedded config is refused, and
    so is anything but an object with every key that ``verify`` writes."""
    if not isinstance(counterexample, dict):
        raise UsageError(f"a counterexample must be an object, got {type(counterexample).__name__}")
    missing = [k for k in ("theorem_id", "master_seed", "trial_index", "config") if k not in counterexample]
    if missing:
        raise UsageError(f"counterexample lacks {', '.join(missing)}")
    _, fn = _claim(counterexample["theorem_id"], bool(counterexample.get("falsify")))
    config = TrialConfig.from_dict(counterexample["config"])
    if counterexample["master_seed"] != config.master_seed:
        raise UsageError(f"master seed {counterexample['master_seed']!r} differs from the config's")
    index = counterexample["trial_index"]
    if not (isinstance(index, int) and 0 <= index < config.trials):
        raise UsageError(f"trial index {index!r} is outside [0, {config.trials})")
    return fn(rng_stream(config.master_seed, index), config, tol)
