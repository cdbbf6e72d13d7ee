"""Power and root criteria for partially isometric representations.

The power-side results relate, for the lift T = tilde of a partially
isometric representation,

    (a)  T_m is a partial isometry for every m <= n,
    (b)  (I_{E^(m-1)} (x) T) N(T_m)^perp  <=  N(T_{m-1})^perp for m <= n,
    (c)  (I_{E^(m-1)} (x) T T*) N(T_{m-1}) <=  N(T_{m-1})     for m <= n,

with T_0 = I_H, so the m = 1 instances are vacuous.  (b) and (c) are
equivalent for every m unconditionally; (a) and (b) are equivalent as
conjunctions over m.  Both are decided on cokernels N(T_j)^perp =
R(T_j*), frames of at most dim H columns: (c) through the equivalent
A N^perp <= N^perp for the self-adjoint A = I (x) T T*, so a power
report builds no kernel frame; each is spanned once per chain, in its
memo (``covrep.LiftChain``).  T_m is the product of m copies of T, so (b)
and (c) take any chain, its m-th factor in place of T: (c) on a product
is the range-invariance stage of ``products.chain_condition_test``.  The
root side goes the other way: from a partial isometry T_k, k >= 2, back
to T, through an isometry and an orthogonality condition on the
amplified lift.

I (x) T and I (x) T T* are operators (``numerics.Amplification``)
applied to the cokernel frames block by block, so a power report builds
no amplification either: in identity coordinates each block product
drops only exact-zero terms, and in quotient coordinates the product is
associated as embed ((I (x) Y) (lift F)); README "Numeric policy" gives
the error bound.  The root and kernel-match criteria take kernels of the
whole amplified lift and build it (``to_dense``).

The generalized range R^infty, the fixed point of S -> X(E (x) S), and
regularity's E (x) R^infty span E (x) S from the frame F (h x k) of S:
the N*k columns space(1).apply_embed(I_N (x) F), the coordinates of
xi_a (x) f_j (``_span_e_tensor``), never the dense dim(E (x) H)^2
amplification I (x) P_S.  In identity coordinates X(I (x) F) has exactly
the nonzero singular values of X(I (x) P_S) = X(I (x) F)(I (x) F)*.  In
quotient coordinates the dense matrix is embed (I (x) P_S) lift; for a
sigma-reducing S, P_S commutes with every sigma(<xi_a, xi_b>), so
I (x) P_S commutes with the Gram G and with the projection Q onto its
support, and embed (I (x) P_S) lift has the range of
embed (I (x) P_S) Q = embed (I (x) P_S), that of embed (I (x) F).  Every S
the iterations see is sigma-reducing: ranges and images of intertwiners
and their orthocomplements.  There the i-th singular value of the thin
matrix lies between sqrt(lambda_min) and sqrt(lambda_max) times the
dense one's, over the kept Gram eigenvalues lambda (all 1 on a diagonal
correspondence), and the rank cut stays the dense matrix's,
rank_rel * max(sigma_0, 1) * max(h, dim(E (x) H)), taken at that shape
(``numerics._range_frame_cut_as``).  Error argument: each step's computed
frame is within a principal-angle sine of about
(rows + cols) * 2**-53 * ||A|| / sigma_min of the range of the exact step
matrix A, by backward stability of the product and the SVD and Wedin's
bound, for the thin and the dense form alike; at most dim H + 1 steps add
these up (times ||X|| / sigma_min per step when X is not a partial
isometry).  On the 80-dimensional shift (+) unitary that bound is 1.1e-12
per subspace.

Certification is finite and explicit: a report states the bound it was
computed to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nx
from .covrep import CovariantRep, LiftChain
from .errors import NotApplicable, DimensionMismatch
from .numerics import Record, Subspace, eye, herm, opnorm


def kernel_chain_condition(chain: LiftChain, m: int) -> bool:
    """(I_{E_1 (x) ... (x) E_{m-1}} (x) W_m) N(T_m)^perp <= N(T_{m-1})^perp,
    on the chain's memoized cokernels; for a representation, W_m = tilde."""
    if m < 1:
        raise DimensionMismatch("kernel_chain_condition needs m >= 1")
    (factor,) = chain._factors(m - 1, m)
    moved = nx.image(chain.amplified(factor.tilde, m - 1, 1, 0), chain.cokernel_subspace(m), chain.tol)
    return nx.is_subset(moved, chain.cokernel_subspace(m - 1), chain.tol)


def range_invariance_condition(chain: LiftChain, m: int) -> bool:
    """(I_{E_1 (x) ... (x) E_{m-1}} (x) W_m W_m*) N(T_{m-1}) <= N(T_{m-1}),
    decided on the memoized cokernel: A = I (x) W_m W_m* is self-adjoint,
    so A N <= N iff A N^perp <= N^perp, and N^perp = R(T_{m-1}*) has at
    most dim H columns where N has nearly all of space(m-1).

    Error argument.  Let beta = ||(I - P_N) A P_N|| = ||P_N A (I - P_N)||
    (A is self-adjoint).  Either side's verdict compares with incl_abs
    the sine of the largest principal angle between an image and its
    subspace.  That sine is at most beta / s, with s the smallest
    singular value the image keeps (above its rank cut rank_rel *
    max(sigma_0, 1) * dim), and at least beta / ||A|| unless the cut
    drops the direction beta is attained on.  So the kernel and cokernel
    sides agree outside a band from that cut up to incl_abs: they split
    only when one image keeps a direction that A barely reaches.  On a
    projection of C^4 whose invariant line is tilted by eps, the kernel
    side accepts up to eps = 1e-8 (its sine is eps) while the cokernel
    side rejects from eps = 1e-9 (it keeps a direction of singular value
    eps, almost inside N, once eps is past the cut 4e-10)."""
    if m < 1:
        raise DimensionMismatch("range_invariance_condition needs m >= 1")
    (factor,) = chain._factors(m - 1, m)
    tilde = nx.Operand(factor.tilde)
    amp = chain.amplified(nx.matmul(tilde, tilde.H), m - 1, 0, 0)
    prev_cokernel = chain.cokernel_subspace(m - 1)
    return nx.is_subset(nx.image(amp, prev_cokernel, chain.tol), prev_cokernel, chain.tol)


@dataclass(frozen=True)
class PowerReport(Record):
    """Per-power partial-isometry flags and the two chain conditions,
    certified up to the stated bound."""

    n_max: int
    applicable: bool
    pi_flags: list
    chain_flags: list
    range_flags: list
    residuals: list

    def cumulative_pi(self):
        return nx.running_conjunction(self.pi_flags)

    def cumulative_chain(self):
        return nx.running_conjunction(self.chain_flags)


def power_report(rep: CovariantRep, n_max: int) -> PowerReport:
    """Fill all three flag vectors for m = 1..n_max.

    Marked not applicable when the representation itself is not partially
    isometric (the power criteria presuppose it)."""
    if n_max < 1:
        raise DimensionMismatch("power_report needs n_max >= 1")
    if not rep.is_partial_isometric():
        return PowerReport(n_max, False, [], [], [], [])
    pi_flags, chain_flags, range_flags, residuals = [], [], [], []
    for m in range(1, n_max + 1):
        res, is_pi = nx.partial_isometry_residual(rep.tilde_power(m), rep.tol)
        pi_flags.append(is_pi)
        chain_flags.append(kernel_chain_condition(rep, m))
        range_flags.append(range_invariance_condition(rep, m))
        residuals.append(res)
    return PowerReport(n_max, True, pi_flags, chain_flags, range_flags, residuals)


# ---------------------------------------------------------------------------
# generalized range and regularity
# ---------------------------------------------------------------------------


def iterated_range(rep: CovariantRep, x: np.ndarray) -> Subspace:
    """Intersection of the nested ranges R(X_m), computed by the fixed-point
    iteration S -> X(E (x) S); stabilizes within dim H steps because the
    ranges are decreasing.  X must intertwine the left action with sigma
    (tilde and its Cauchy dual do), so that every S is sigma-reducing."""
    x = nx.as_matrix(x)
    current = Subspace.whole(rep.h_dim)
    for _ in range(rep.h_dim + 1):
        nxt = _span_e_tensor(rep, current, x)
        if nxt.dim == current.dim:
            return nxt
        current = nxt
    return current


def _span_e_tensor(rep: CovariantRep, s: Subspace, x: np.ndarray | None) -> Subspace:
    """E (x) S inside space(1), or its image X(E (x) S) when X is given,
    spanned by the N*k columns space(1).apply_embed(I_N (x) F) for the
    frame F of S and cut as the dense X(I (x) P_S) with dim(E (x) H)
    columns (see the module docstring).  S must be sigma-reducing."""
    space = rep.space(1)
    n = space.module_dim
    nx.check_bytes(nx.ENTRY_BYTES * space.formal_dim * n * s.dim, "a spanning set of E (x) S")
    columns = space.apply_embed(nx.eye_kron(n, s.frame))
    if x is not None:
        columns = x @ columns
    return Subspace(nx._range_frame_cut_as(columns, (columns.shape[0], space.dim), rep.tol, 1.0))


def generalized_range(rep: CovariantRep) -> Subspace:
    """R^infty: the intersection of the ranges of all tensor powers."""
    return iterated_range(rep, rep.tilde)


def is_regular(rep: CovariantRep) -> bool:
    """N(tilde) <= E (x) R^infty (closed range is automatic here)."""
    return _is_regular_over(rep, generalized_range(rep))


def _is_regular_over(rep: CovariantRep, rinf: Subspace) -> bool:
    """is_regular with R^infty already computed as ``rinf``."""
    return nx.is_subset(rep.kernel_subspace(1), _span_e_tensor(rep, rinf, None), rep.tol)


@dataclass(frozen=True)
class GeneralizedInverseReport(Record):
    is_gen_inverse: bool
    identity_residuals: dict
    lemma_holds_up_to: int


def generalized_inverse_check(rep: CovariantRep, s: np.ndarray, m_bound: int) -> GeneralizedInverseReport:
    """Check S tilde S = S and tilde S tilde = tilde for S : H -> E (x) H;
    for a regular representation with a generalized inverse, also verify
    the kernel-step inclusions

        (I_{E^(x m)} (x) S) N(tilde_m) <= N(tilde_{m+1}),  m <= m_bound,

    reporting the largest verified m."""
    tol = rep.tol
    s = nx.as_matrix(s)
    space1 = rep.space(1)
    if s.shape != (space1.dim, rep.h_dim):
        raise DimensionMismatch(f"S must map H to E (x) H, got shape {s.shape}")
    t = rep.tilde
    res_s = opnorm(s @ t @ s - s)
    res_t = opnorm(t @ s @ t - t)
    # the cutoff is at least eq_rel, so ||S|| and ||tilde|| are taken only past it
    ok = all(
        nx.residual_holds(res, 1.0, tol) or nx.residual_holds(res, opnorm(m), tol)
        for res, m in ((res_s, s), (res_t, t))
    )
    up_to = 0
    if ok and is_regular(rep):
        for m in range(1, m_bound + 1):
            amp_s = rep.amplified(s, m, 0, 1)
            moved = nx.image(amp_s, rep.kernel_subspace(m), tol)
            if not nx.is_subset(moved, rep.kernel_subspace(m + 1), tol):
                break
            up_to = m
    return GeneralizedInverseReport(
        is_gen_inverse=ok,
        identity_residuals={"S_tilde_S": res_s, "tilde_S_tilde": res_t},
        lemma_holds_up_to=up_to,
    )


@dataclass(frozen=True)
class RegularPowerResult(Record):
    is_pi: bool
    is_power_pi_up_to: int


def regular_pi_iff_power_pi(rep: CovariantRep, bound: int) -> RegularPowerResult:
    """For regular representations, partial isometry of the lift is
    equivalent to all powers being partial isometries; reports the largest
    certified power."""
    if not is_regular(rep):
        raise NotApplicable("representation is not regular")
    is_pi = rep.is_partial_isometric()
    return RegularPowerResult(is_pi=is_pi, is_power_pi_up_to=power_pi_up_to(rep, is_pi, bound))


def power_pi_up_to(rep: CovariantRep, is_pi: bool, bound: int) -> int:
    """The largest k <= bound with T_1, ..., T_k partial isometries (or 0);
    ``is_pi`` is the caller's verdict on T_1, the lift."""
    up_to = 0
    for k in range(1, bound + 1):
        if not (is_pi if k == 1 else nx.is_partial_isometry(rep.tilde_power(k), rep.tol)):
            break
        up_to = k
    return up_to


# ---------------------------------------------------------------------------
# roots
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RootCriterionResult(Record):
    """Root test data: with T_k a partial isometry (hypothesis_ok), the
    representation is partially isometric iff the amplified lift is
    isometric on D = N(T_k) (-) N(I (x) T) (cond_a) and maps N(T_k)^perp
    and D onto orthogonal subspaces (cond_b)."""

    hypothesis_ok: bool
    cond_a: bool
    cond_b: bool
    rep_is_pi: bool
    isometry_defect: float
    orthogonality_defect: float


def root_criterion(rep: CovariantRep, k: int) -> RootCriterionResult:
    """Decide the root criterion at power k >= 2.

    Applicable to contractive representations of full correspondences;
    N(I (x) tilde) <= N(tilde_k) holds exactly in theory, and a failure
    beyond tolerance is reported as a numeric inconsistency."""
    if k < 2:
        raise DimensionMismatch("root criterion needs k >= 2")
    tol = rep.tol
    if not rep.corr.is_full(tol):
        raise NotApplicable("correspondence is not full")
    if not nx.is_contraction(rep.tilde, tol):
        raise NotApplicable("representation is not contractive")
    hypothesis_ok = nx.is_partial_isometry(rep.tilde_power(k), tol)
    w = rep.amplified(rep.tilde, k - 1, 1, 0).to_dense()  # I_{E^(k-1)} (x) tilde : space(k) -> space(k-1)
    n_k = rep.kernel_subspace(k)
    n_w = Subspace.kernel(w, tol)
    if not nx.is_subset(n_w, n_k, tol):
        raise NotApplicable(
            "numeric inconsistency: N(I (x) tilde) escapes N(tilde_k) beyond tolerance"
        )
    d_sub = nx.ominus(n_k, n_w, tol)
    if d_sub.dim == 0:
        cond_a, iso_defect = True, 0.0
    else:
        gram = herm(d_sub.frame) @ herm(w) @ w @ d_sub.frame
        iso_defect = opnorm(gram - eye(d_sub.dim))
        cond_a = nx.residual_holds(iso_defect, 1.0, tol)
    img_cokernel = nx.image(w, rep.cokernel_subspace(k), tol)
    img_d = nx.image(w, d_sub, tol)
    ortho_defect = opnorm(herm(img_cokernel.frame) @ img_d.frame)
    cond_b = nx.defect_within(ortho_defect, tol)
    return RootCriterionResult(
        hypothesis_ok=hypothesis_ok,
        cond_a=cond_a,
        cond_b=cond_b,
        rep_is_pi=rep.is_partial_isometric(),
        isometry_defect=iso_defect,
        orthogonality_defect=ortho_defect,
    )


@dataclass(frozen=True)
class KernelMatchResult(Record):
    applicable: bool
    rep_is_pi: bool


def kernel_match_criterion(rep: CovariantRep, k: int) -> KernelMatchResult:
    """Simplified root test: if N(I_E (x) tilde) = N(tilde_2) and some
    tilde_k (k >= 2) is a partial isometry, the representation is
    partially isometric.  ``applicable`` reports the kernel equality."""
    if k < 2:
        raise DimensionMismatch("kernel match criterion needs k >= 2")
    tol = rep.tol
    if not rep.corr.is_full(tol):
        raise NotApplicable("correspondence is not full")
    if not nx.is_contraction(rep.tilde, tol):
        raise NotApplicable("representation is not contractive")
    if not nx.is_partial_isometry(rep.tilde_power(k), tol):
        raise NotApplicable(f"tilde_{k} is not a partial isometry")
    amp = rep.amplified(rep.tilde, 1, 1, 0).to_dense()  # I_E (x) tilde : space(2) -> space(1)
    n_amp = Subspace.kernel(amp, tol)
    n_2 = rep.kernel_subspace(2)
    applicable = nx.is_subset(n_amp, n_2, tol) and nx.is_subset(n_2, n_amp, tol)
    return KernelMatchResult(applicable=applicable, rep_is_pi=rep.is_partial_isometric())


def orthogonality_from_chain(rep: CovariantRep, k: int) -> dict:
    """Companion fact to the root test: if cond_a holds and the chain
    inclusion (I (x) tilde) N(tilde_k)^perp <= N(tilde_{k-1})^perp holds,
    then cond_b holds."""
    res = root_criterion(rep, k)
    chain = kernel_chain_condition(rep, k)
    return {
        "cond_a": res.cond_a,
        "chain": chain,
        "cond_b": res.cond_b,
        "implication_holds": (not (res.cond_a and chain)) or res.cond_b,
    }
