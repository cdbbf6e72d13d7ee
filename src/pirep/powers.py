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
A* N^perp <= N^perp for A = I (x) T T* (``_cokernel_invariant``), so a
power report builds no kernel frame; each is spanned once per chain, in
its memo (``covrep.LiftChain``).  A N <= N iff A* N^perp <= N^perp for
any A, and beta = ||P_(N^perp) A P_N|| = ||P_N A* P_(N^perp)|| is the
same on both sides, so the two verdicts split only in the band from the
image's rank cut up to incl_abs (``range_invariance_condition``), A
self-adjoint or not.  T_m is the product of m copies of T, so (b)
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
the error bound.  The root criterion builds the whole amplified lift
(``to_dense``).  The kernel-match criterion decides N(I_E (x) T) =
N(T_2) as R((I_E (x) T)*) = R(T_2*) (S1 <= S2 has the defect of
S2^perp <= S1^perp, ||(I - P2) P1|| = ||P1 (I - P2)||), taking
I_N (x) R(T*) from the block T in identity coordinates, cut at the
amplified shape as ``numerics.kernel_frame`` cuts kernels.  The
kernel-step lemma of ``generalized_inverse_check``, (I (x) S) N(T_m) <=
N(T_(m+1)), holds iff N(T_m) is invariant under I (x) T S, since
T_(m+1) (I (x) S) = T_m (I (x) T S): it is decided on R(T_m*) with
X = (T S)*.  Neither criterion factors a kernel of a power.

Cost.  On a monomial lift in identity coordinates (a weighted shift past
the gate) the chain holds T, T_m, T T*, the cokernels and their images
as index forms (``numerics``): a power report reads the lift powers
through ``LiftChain._power``, and each verdict, image and inclusion is
O(columns) index work with no scan, no SVD and no dense power; the
power report of the n = 2, trunc 120 shift to n_max 4 fits a 1 MB dense
budget, where its dense T_4 alone is 3.7 MB.  Every other chain
(conjugated shifts, Wold's shift (+) unitary, two-block and dense-JSON
reps) forms T_m densely and factors its frames as before.

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
per subspace.  A step costs the product X(I (x) F) (``numerics.matmul``)
and one range frame of it.  Where S is unit vectors held by index in
identity coordinates (``Subspace.whole`` past the gate, every frame the
full-row-rank rule gives and every frame of a product with no core, as a
weighted shift's), ``iterated_range`` holds S as its rows and steps
``numerics._RowSteps``: X is scanned once per iteration, a step counts
X F from that scan (X's nonzeros in the columns of S) and returns the
rows of the next frame, with no product, frame or Subspace, and each
distinct core's singular values are taken once.  After the first step,
from every row, the iteration peels X's support to its greatest fixed
point in one pass over the nonzeros of the columns it drops
(``_RowSteps.peel``), which is the stepped iteration's answer byte for
byte wherever no dropped column holds a core entry, every isolated
modulus clears the first step's cut and the fixed point is empty or
past the gate (the ``numerics`` docstring gives why); otherwise it steps
on, each step counted from the scan.  On a shift (+) unitary, whose
unitary core fills its rows and takes no entry of a shift column, that
is one step and one pass over the shift chain at any q, and on a
weighted shift one step and a peel to no rows; the iteration builds one
Subspace, at its end.  A step that the rules do not decide builds its
product and cuts it as above, and from a frame that is not unit vectors
(or below the gate) the iteration goes on densely.

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
    moved = nx.image(chain._amplified_lift(m - 1), chain.cokernel_subspace(m), chain.tol)
    return nx.is_subset(moved, chain.cokernel_subspace(m - 1), chain.tol)


def range_invariance_condition(chain: LiftChain, m: int) -> bool:
    """(I_{E_1 (x) ... (x) E_{m-1}} (x) W_m W_m*) N(T_{m-1}) <= N(T_{m-1}),
    decided on the memoized cokernel (``_cokernel_invariant``): A N <= N
    iff A* N^perp <= N^perp, here with A* = A = I (x) W_m W_m*, and
    N^perp = R(T_{m-1}*) has at most dim H columns where N has nearly all
    of space(m-1).

    Error argument, for any A.  Let beta = ||(I - P_N) A P_N|| =
    ||P_N A* (I - P_N)||.  Either side's verdict compares with incl_abs
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
    lift = chain._factors(m - 1, m)[0]._lift
    return _cokernel_invariant(chain, m - 1, nx.matmul(lift, nx._adjoint(lift)))


def _cokernel_invariant(chain: LiftChain, m: int, x) -> bool:
    """(I_{E_1 (x) ... (x) E_m} (x) X) R(T_m*) <= R(T_m*) for X : H -> H, on
    the memoized cokernel; equivalently N(T_m) is invariant under
    I (x) X* (see the module docstring)."""
    cokernel = chain.cokernel_subspace(m)
    return nx.is_subset(nx.image(chain.amplified(x, m, 0, 0), cokernel, chain.tol), cokernel, chain.tol)


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
        res, is_pi = nx.partial_isometry_residual(rep._power(m), rep.tol)
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
    (tilde and its Cauchy dual do), so that every S is sigma-reducing.
    While S is unit vectors held by index in identity coordinates, it is
    held as its rows and stepped by ``numerics._RowSteps`` (X scanned once
    per iteration, each step counted from the scan), and after the first
    step from every row the remaining steps are one peel of X's support
    to its fixed point where that is exact (``_RowSteps.peel``: no dropped
    column holds a core entry, every isolated modulus clears the first
    step's cut, and the fixed point is empty or past the gate); every
    other step spans X(E (x) S) densely."""
    x = _intertwiner(rep, x)
    h, space, tol = rep.h_dim, rep.space(1), rep.tol
    shape, steps = (h, space.dim), None
    rows = np.arange(h) if space.embed is None and h * h >= nx._DEFLATE_MIN_SIZE else None  # Subspace.whole(h) by index
    current = Subspace.whole(h) if rows is None else None
    for _ in range(h + 1):
        if rows is None:
            nxt = _span_e_tensor(rep, current, nx.dense(x, "X"))
        else:
            steps = steps or nx._RowSteps(x, space.module_dim)
            got = steps.step(rows, shape, tol, 1.0)
            if got is not None and h * got.size >= nx._DEFLATE_MIN_SIZE:  # an index form: held
                if got.size == rows.size:
                    return Subspace(nx._units(h, got))
                fixed = steps.peel(shape, tol, 1.0) if rows.size == h else None  # from the step from every row
                if fixed is not None:
                    return Subspace(nx._units(h, fixed))
                rows = got
                continue
            nxt = Subspace(nx._range_frame_cut_as(steps.product(rows), shape, tol, 1.0) if got is None else nx._units(h, got))
        if nxt.dim == (current.dim if rows is None else rows.size):
            return nxt
        current, rows = nxt, _held_rows(rep, nxt)
    return current if rows is None else Subspace(nx._units(h, rows))


def _held_rows(rep: CovariantRep, s: Subspace) -> np.ndarray | None:
    """The rows of S when its frame is an index form of unit vectors (values
    1) in identity coordinates; None otherwise."""
    if type(s._frame) is not nx._Monomial or rep.space(1).embed is not None:
        return None
    return nx._unit_rows(s._frame)


def _intertwiner(rep: CovariantRep, x):
    """``x`` as a matrix or a form, refused unless it maps E (x) H to H."""
    x = nx._as_operator(x)
    want = (rep.h_dim, rep.space(1).dim)
    if x.shape != want:
        raise DimensionMismatch(f"X must map E (x) H to H, shape {want}, got shape {x.shape}")
    return x


def _e_tensor_columns(rep: CovariantRep, s: Subspace, x: np.ndarray | None):
    """The N*k columns space(1).apply_embed(I_N (x) F) that span E (x) S
    for the frame F (h x k) of S, or their images under X when X is
    given.  In identity coordinates a unit-vector frame's columns stay an
    index form, and X is gathered from its index."""
    space = rep.space(1)
    columns = nx._tensor_frame(s, space.module_dim, space.embed)
    return columns if x is None else nx.matmul(x, columns)


def _span_e_tensor(rep: CovariantRep, s: Subspace, x: np.ndarray | None) -> Subspace:
    """E (x) S inside space(1), or its image X(E (x) S) when X is given,
    spanned by ``_e_tensor_columns`` and cut as the dense X(I (x) P_S)
    with dim(E (x) H) columns (see the module docstring).  S must be
    sigma-reducing."""
    columns = _e_tensor_columns(rep, s, x)
    return Subspace(nx._range_frame_cut_as(columns, (columns.shape[0], rep.space(1).dim), rep.tol, 1.0))


def generalized_range(rep: CovariantRep) -> Subspace:
    """R^infty: the intersection of the ranges of all tensor powers."""
    return iterated_range(rep, rep._lift)


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

    each as (I (x) (tilde S)*) R(tilde_m*) <= R(tilde_m*) (see the module
    docstring), reporting the largest verified m; S's intertwining, which
    I (x) S needs, is decided once."""
    tol = rep.tol
    s = nx.as_matrix(s)
    if s.shape != (rep.space(1).dim, rep.h_dim):
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
    if ok and m_bound > 0 and is_regular(rep):
        rep.amplified(s, 1, 0, 1)  # refuses an S that does not intertwine
        x = herm(t @ s)
        for m in range(1, m_bound + 1):
            if not _cokernel_invariant(rep, m, x):
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
        if not (is_pi if k == 1 else nx.is_partial_isometry(rep._power(k), rep.tol)):
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


def _require_full_and_contractive(rep: CovariantRep) -> None:
    """The hypothesis gate shared by the root criteria."""
    if not rep.corr.is_full(rep.tol):
        raise NotApplicable("correspondence is not full")
    if not nx.is_contraction(rep.tilde, rep.tol):
        raise NotApplicable("representation is not contractive")


def root_criterion(rep: CovariantRep, k: int) -> RootCriterionResult:
    """Decide the root criterion at power k >= 2.

    Applicable to contractive representations of full correspondences;
    N(I (x) tilde) <= N(tilde_k) holds exactly in theory, and a failure
    beyond tolerance is reported as a numeric inconsistency."""
    if k < 2:
        raise DimensionMismatch("root criterion needs k >= 2")
    _require_full_and_contractive(rep)
    tol = rep.tol
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
    partially isometric.  ``applicable`` reports the kernel equality,
    decided on cokernels (see the module docstring)."""
    if k < 2:
        raise DimensionMismatch("kernel match criterion needs k >= 2")
    _require_full_and_contractive(rep)
    tol = rep.tol
    if not nx.is_partial_isometry(rep.tilde_power(k), tol):
        raise NotApplicable(f"tilde_{k} is not a partial isometry")
    c_amp = _amplified_cokernel(rep.amplified(rep.tilde, 1, 1, 0), tol)  # of I_E (x) tilde : space(2) -> space(1)
    c_2 = rep.cokernel_subspace(2)
    applicable = nx.is_subset(c_amp, c_2, tol) and nx.is_subset(c_2, c_amp, tol)
    return KernelMatchResult(applicable=applicable, rep_is_pi=rep.is_partial_isometric())


def _amplified_cokernel(amp: nx.Amplification, tol) -> Subspace:
    """R(A*) for A = left (I_n (x) Y) right: in identity coordinates (no
    left, no right) I_n (x) R(Y*) from the block Y, cut at A's shape as
    ``numerics.kernel_frame`` cuts I_n (x) N(Y); otherwise the span of the
    built adjoint."""
    plain = amp.left is None and amp.right is None
    inner = nx._range_frame_cut_as(nx._adjoint(amp.block if plain else amp.to_dense()), amp.shape[::-1], tol, 1.0)
    return Subspace(nx._tensor_frame(Subspace(inner), amp.n if plain else 1, None))


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
