"""Cauchy duals, bi-regularity, generated invariant subspaces, and the
two-part orthogonal decomposition they induce.

For a lift T = tilde with closed range, the Cauchy dual is
T' = T (T* T)^+; it coincides with T exactly when T is a partial
isometry.  The decomposition splits H into the subspace generated by the
wandering part W = H (-) T(E (x) H) and the residual intersection of
ranges:

    H = [W]_T (+) Rinf(T')   and   H = [W]_{T'} (+) Rinf(T).

Finite-dimensional caveat, stated here once: strict regularity
(N(T) <= E (x) Rinf(T)) forces T to be surjective on a finite-dimensional
H, so the decomposition is nontrivial only on truncations of
infinite-dimensional models, which fail the strict hypothesis while
satisfying the decomposition identities.  ``wold_decompose`` therefore
takes ``check_hypotheses``; with the default True it refuses (naming the
failed predicate), with False it computes the decomposition and reports
the hypothesis flags alongside.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nx
from .covrep import CovariantRep
from .errors import NotApplicable
from .numerics import Subspace, Tolerance, eye, herm, opnorm
from .powers import is_regular, iterated_range


def cauchy_dual(rep: CovariantRep) -> np.ndarray:
    """T' = T (T* T)^+.  Involutive on closed-range operators; equals T for
    partially isometric representations."""
    return cauchy_dual_of_matrix(rep.tilde, rep.tol)


def cauchy_dual_of_matrix(t: np.ndarray, tol: Tolerance) -> np.ndarray:
    t = nx.as_matrix(t)
    return t @ nx.pseudoinverse(herm(t) @ t, tol)


def is_bi_regular(rep: CovariantRep, n_max: int = 3) -> bool:
    """Regular, and N(I_{E^(x n)} (x) T^+) <= R(chain of amplified T^+)
    for n <= n_max."""
    if not is_regular(rep):
        raise NotApplicable("representation is not regular")
    tol = rep.tol
    dagger = nx.pseudoinverse(rep.tilde, tol)
    chain = dagger  # rep.pinv_chain(n), extended by one amplified factor per step
    for n in range(1, n_max + 1):
        amp = rep.amplified(dagger, n, 0, 1)
        kernel = Subspace.kernel(amp, tol)
        if not nx.is_subset(kernel, Subspace.span(chain, tol), tol):
            return False
        chain = amp @ chain
    return True


def adjoint_regularity_check(rep: CovariantRep, n_max: int = 3) -> bool:
    """Companion fact for regular representations: the adjoint satisfies
    N(I_{E^(x n)} (x) T*) <= R(tilde_n*) for n <= n_max."""
    tol = rep.tol
    for n in range(1, n_max + 1):
        amp = rep.amplified(herm(rep.tilde), n, 0, 1)
        kernel = Subspace.kernel(amp, tol)
        target = rep.cokernel_subspace(n)
        if not nx.is_subset(kernel, target, tol):
            return False
    return True


def generated_invariant_subspace(
    rep: CovariantRep, x: np.ndarray, w: Subspace, bound: int | None = None
) -> Subspace:
    """[W]_X: the span of the images X_m(E^(x m) (x) W) over m >= 0, where
    X_m composes X with its amplifications (X_0 = I).  Computed by the
    recursion T_m = X(E (x) T_{m-1}); the span can only grow, so it
    stabilizes within dim H steps."""
    tol = rep.tol
    x = nx.as_matrix(x)
    bound = rep.h_dim if bound is None else bound
    total = w
    layer = w
    for _ in range(bound):
        amp = rep.amplified(layer.projector(), 1, 0, 0)
        layer = Subspace.span(x @ amp, tol)
        grown = Subspace.span(np.hstack([total.frame, layer.frame]), tol)
        if grown.dim == total.dim:
            return total
        total = grown
    return total


@dataclass(frozen=True)
class WoldResult:
    """One side of the decomposition: wandering part, the subspace it
    generates, the residual generalized range, and the defect norms of
    orthogonality and completeness."""

    wandering: Subspace
    generated: Subspace
    residual: Subspace
    orthogonality_defect: float
    direct_sum_residual: float

    def to_dict(self):
        return {
            "wandering_dim": self.wandering.dim,
            "generated_dim": self.generated.dim,
            "residual_dim": self.residual.dim,
            "orthogonality_defect": self.orthogonality_defect,
            "direct_sum_residual": self.direct_sum_residual,
        }


@dataclass(frozen=True)
class WoldDecomposition:
    primal: WoldResult  # generated under T, residual of T'
    dual: WoldResult  # generated under T', residual of T
    is_partial_isometric: bool
    regular: bool
    bi_regular: bool | None
    dual_gap: float  # ||T' - T||; zero for partial isometries

    def to_dict(self):
        return {
            "primal": self.primal.to_dict(),
            "dual": self.dual.to_dict(),
            "is_partial_isometric": self.is_partial_isometric,
            "regular": self.regular,
            "bi_regular": self.bi_regular,
            "dual_gap": self.dual_gap,
        }


def _wold_side(rep: CovariantRep, generator: np.ndarray, residual_of: np.ndarray, w: Subspace, bound) -> WoldResult:
    tol = rep.tol
    generated = generated_invariant_subspace(rep, generator, w, bound)
    residual = iterated_range(rep, residual_of)
    ortho = opnorm(herm(generated.frame) @ residual.frame)
    total = generated.projector() + residual.projector()
    return WoldResult(
        wandering=w,
        generated=generated,
        residual=residual,
        orthogonality_defect=ortho,
        direct_sum_residual=opnorm(total - eye(rep.h_dim)),
    )


def wold_decompose(
    rep: CovariantRep, bound: int | None = None, *, check_hypotheses: bool = True
) -> WoldDecomposition:
    """Compute both forms of the decomposition.

    With ``check_hypotheses`` (default), requires bi-regularity for the
    two-sided form, or regularity plus partial isometry for the one-sided
    corollary form; the failed predicate is named otherwise.  With
    ``check_hypotheses=False`` the decomposition is computed regardless
    and the hypothesis flags are reported in the result (see the module
    docstring for why truncated shift models need this)."""
    tol = rep.tol
    t = rep.tilde
    t_dual = cauchy_dual(rep)
    pi = rep.is_partial_isometric()
    regular = is_regular(rep)
    bi_regular = None
    if regular:
        bi_regular = is_bi_regular(rep)
    if check_hypotheses:
        if not regular:
            raise NotApplicable("representation is not regular")
        if not (bi_regular or pi):
            raise NotApplicable(
                "representation is neither bi-regular nor partially isometric"
            )
    wandering = nx.ortho_complement(rep.range_subspace(1), tol)
    primal = _wold_side(rep, t, t_dual, wandering, bound)
    dual = _wold_side(rep, t_dual, t, wandering, bound)
    return WoldDecomposition(
        primal=primal,
        dual=dual,
        is_partial_isometric=pi,
        regular=regular,
        bi_regular=bi_regular,
        dual_gap=opnorm(t_dual - t),
    )
