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

A generated subspace grows by what each step adds.  Let S_0 = W and
S_m = S_{m-1} + X(E (x) S_{m-1}), so that S_m is the span of the first
m + 1 layers X_j(E^(x j) (x) W) and [W]_X is the S_m at which the
growth stops.  Since E (x) (A + B) = E (x) A + E (x) B and
X(E (x) S_{m-2}) <= S_{m-1} by the definition of S_{m-1},

    S_m = S_{m-1} + X(E (x) B_{m-1}),   B_{m-1} = S_{m-1} (-) S_{m-2},

so step m needs only the block B_{m-1} that step m - 1 added (B_0 = W).
``generated_invariant_subspace`` keeps one orthonormal frame Q of
S_{m-1}, takes the N * dim B columns space(1).apply_embed(I_N (x) F_B)
and their images under X (powers._e_tensor_columns), orthogonalizes them
against Q by two passes of classical Gram-Schmidt, R <- R - Q (Q* R),
and factors only that residual: its left singular vectors above the cut
are the frame of B_m, appended to Q, and the growth stops at rank 0.  The
columns span X(E (x) B) because B is sigma-reducing, as S_{m-1}, S_{m-2}
and their difference are when W is and X is an intertwiner (the powers
module docstring gives why, in quotient coordinates too).  The residual
stands in for the stacked [Q, X(I (x) P_B)] and is cut as that matrix:
rank_rel * max(sigma_0, 1) * max(h, dim Q + dim(E (x) H)).

Error argument.  With u = 2**-53 and c a low-degree polynomial in h and
dim Q, one pass leaves ||Q* R|| up to about c u ||X F_B||, which is large
next to ||R|| when the columns lie nearly inside S_{m-1}.  The second pass
starts from that R and leaves ||Q* R|| within about c u ||R||: either R
is dust of norm about c u ||X F_B||, far below the rank cut, and the
step adds nothing, or the kept directions are orthogonal to Q to about
c u sigma_max / sigma_min over the residual's kept singular values (the
classical "twice is enough" bound of Kahan and Parlett, and of Giraud,
Langou and Rozloznik).  By backward stability of the products and the
SVD and Wedin's bound, the frame of B_m is within a principal-angle sine
of about (h + N dim B) u ||X|| / sigma_min of the exact block, the
per-step bound the powers module docstring gives for the dense form, and
at most dim H steps add these up.  ``tests/test_wold.py`` compares the
result with the dense recursion of layers (to 1e-12, also on a shift (+)
unitary conjugated by a Haar unitary, where no entry is isolated).

Bi-regularity's kernels N(I_(E^n) (x) T^+) come from the block T^+
(``numerics.kernel_frame``: I (x) F in identity coordinates), the chain
grows block by block, and a zero kernel spans no chain: on the n = 3
coisometric row over C^4 no SVD has more than N h = 12 rows.

``wold_decompose`` takes Rinf(T) once: it decides regularity, the
regularity that bi-regularity presupposes, and the dual side's residual.
Rinf(T') is the primal side's.  It works on the lift as the
representation holds it: on a shift (+) unitary past the gate that is a
split form, the shift entries beside the u x u unitary core, so the
Cauchy dual (``_dual``), the partial-isometry verdict and the dual gap
are composed by parts in ``numerics`` (its docstring gives the algebra
and the error argument), and T' is a split form too; this module has no
by-parts code of its own.  On a shift (+) unitary of size q + u every
frame of the two R^infty iterations is unit vectors: each reads X's
nonzeros once per operator, off its parts, takes one step from every
row and peels the shift chain to the core rows in one pass (the
``numerics`` docstring gives why that is the iteration's answer), and
the unitary core's singular values are taken once per operator.  The
wandering part is read off the rows of R(T)'s unit vectors
(``numerics.ortho_complement``).  A generated subspace whose W is unit
vectors of value 1 (identity coordinates, X past _DEFLATE_MIN_SIZE
entries) is held as its set of rows on X's nonzeros.  For one row and a
one-block X the span is one walk (``numerics._RowSteps.walk``): while
the last block's column has exactly one nonzero outside the held rows,
of value exactly 1 + 0j, and 1 clears the stacked cut, that row is the
next block, since the SVD's frame of a unit column of value 1 is +e_r
(``tests/test_wold.py`` pins that); an exactly zero residual ends the
growth, and the span is the held rows.  Otherwise the last block's
residual is gathered once with the held rows set to zero
(``_RowSteps.residual_product``), which is the dense R - Q (Q* R) in
value (Q* R is R on Q's rows, and Q times it adds exact zeros
elsewhere), and the span goes on densely from the block it spans.  So
on a shift (+) unitary no residual is built or factored, the span is
one walk of q - 1 links, and it builds one Subspace, at its end.  When
both frames of a side are unit vectors held by index on disjoint rows,
its orthogonality defect is 0.0, the opnorm of their exact zero
product, and when the rows also cover H so is its direct-sum residual;
otherwise both are dense opnorms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nx
from .covrep import CovariantRep
from .errors import DimensionMismatch, NotApplicable
from .numerics import Record, Subspace, Tolerance, eye, herm, opnorm
from .powers import _e_tensor_columns, _intertwiner, _is_regular_over, generalized_range, is_regular, iterated_range

# Depth of the bi-regularity inclusions that is_bi_regular and wold_decompose check.
_BI_REGULAR_N_MAX = 3


def cauchy_dual(rep: CovariantRep) -> np.ndarray:
    """T' = T (T* T)^+.  Involutive on closed-range operators; equals T for
    partially isometric representations."""
    return nx.dense(_dual(rep._lift, rep.tol), "the Cauchy dual")


def cauchy_dual_of_matrix(t: np.ndarray, tol: Tolerance) -> np.ndarray:
    return _dual(nx.as_matrix(t), tol)


def _dual(t, tol: Tolerance):
    """T (T* T)^+ of a lift as it is held: for a split form, a split form
    composed by parts (see ``numerics``), with no array built."""
    return nx.matmul(t, nx._pinv(nx.matmul(nx._adjoint(t), t), tol))


def is_bi_regular(rep: CovariantRep) -> bool:
    """Regular, and N(I_{E^(x n)} (x) T^+) <= R(chain of amplified T^+)
    for n <= _BI_REGULAR_N_MAX."""
    if not is_regular(rep):
        raise NotApplicable("representation is not regular")
    return _pinv_chain_inclusions(rep, _BI_REGULAR_N_MAX)


def _pinv_chain_inclusions(rep: CovariantRep, n_max: int) -> bool:
    """The inclusions of is_bi_regular past regularity."""
    tol = rep.tol
    dagger = nx._pinv(rep._lift, tol)  # a split lift's is a split form
    chain = dagger  # rep.pinv_chain(n), extended by one amplified factor per step
    for n in range(1, n_max + 1):
        amp = rep.amplified(dagger, n, 0, 1)
        kernel = Subspace.kernel(amp, tol)
        if kernel.dim and not nx.is_subset(kernel, Subspace.span(chain, tol), tol):
            return False
        chain = amp @ chain
    return True


def generated_invariant_subspace(rep: CovariantRep, x: np.ndarray, w: Subspace) -> Subspace:
    """[W]_X: the span of the images X_m(E^(x m) (x) W) over m >= 0, where
    X_m composes X with its amplifications (X_0 = I).  The span grows by
    X(E (x) B) for the block B it gained last (B = W at first), so each
    step factors only the residual of those N * dim B columns against the
    frame so far; the span stabilizes within dim H steps.  W must be
    sigma-reducing and X an intertwiner (see the module docstring)."""
    x = _intertwiner(rep, x)
    if w.ambient_dim != rep.h_dim:
        raise DimensionMismatch(f"W must be a subspace of H (dim {rep.h_dim}), got ambient dim {w.ambient_dim}")
    h, tol, width = rep.h_dim, rep.tol, rep.space(1).dim
    block, residual, rows = w, None, _unit_rows_of(rep, x, w)
    total = w.frame if rows is None else None
    if rows is not None:  # W's rows held on X's nonzeros, then one gathered residual
        steps, last = nx._RowSteps(x, rep.space(1).module_dim), rows
        nx.check_bytes((1 + nx._INDEX_BYTES) * h, "the held rows of a generated subspace")
        held = np.zeros(h, dtype=bool)
        held[rows] = True
        if rows.size == 1 and steps.blocks == 1:  # a chain of unit columns, walked
            added, ended = steps.walk(int(rows[0]), held, 1, width, tol)
            held[added] = True
            rows, last = np.concatenate([rows, added]), (added[-1:] if added.size else rows)
            if ended:
                return Subspace._of(nx._units(h, rows))  # rank 0
        total, residual = nx._units(h, rows), steps.residual_product(last, held)
    for _ in range(h):
        if residual is None:
            residual = _e_tensor_columns(rep, block, nx.dense(x, "X"))
            for _ in range(2):  # classical Gram-Schmidt, twice
                residual = residual - total @ (herm(total) @ residual)
        block = Subspace(nx._range_frame_cut_as(residual, (h, total.shape[1] + width), tol, 1.0))
        if block.dim == 0:
            break
        total, residual = np.hstack([nx.dense(total, "a generated frame"), block.frame]), None
    # W's frame or its held rows, beside the checked blocks' frames
    return Subspace._of(total)


def _unit_rows_of(rep: CovariantRep, x: np.ndarray, w: Subspace) -> np.ndarray | None:
    """The rows of W's unit vectors (values 1) when X has at least
    _DEFLATE_MIN_SIZE entries and acts in identity coordinates; None
    otherwise, where the frame is kept dense."""
    if x.size < nx._DEFLATE_MIN_SIZE:
        return None
    rows = nx._unit_rows(w._frame)
    return None if rows is None or rep.space(1).embed is not None else rows


@dataclass(frozen=True)
class WoldResult(Record):
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
class WoldDecomposition(Record):
    primal: WoldResult  # generated under T, residual of T'
    dual: WoldResult  # generated under T', residual of T
    is_partial_isometric: bool
    regular: bool
    bi_regular: bool | None
    dual_gap: float  # ||T' - T||; zero for partial isometries


def _wold_side(rep: CovariantRep, generator: np.ndarray, residual: Subspace, w: Subspace) -> WoldResult:
    generated = generated_invariant_subspace(rep, generator, w)
    ortho, complete = nx._unit_frame_defects(generated, residual)
    if ortho is None:
        ortho = opnorm(herm(generated.frame) @ residual.frame)
    if complete is None:
        complete = opnorm(generated.projector() + residual.projector() - eye(rep.h_dim))
    return WoldResult(
        wandering=w,
        generated=generated,
        residual=residual,
        orthogonality_defect=ortho,
        direct_sum_residual=complete,
    )


def wold_decompose(rep: CovariantRep, *, check_hypotheses: bool = True) -> WoldDecomposition:
    """Compute both forms of the decomposition.

    With ``check_hypotheses`` (default), requires bi-regularity for the
    two-sided form, or regularity plus partial isometry for the one-sided
    corollary form; the failed predicate is named otherwise.  With
    ``check_hypotheses=False`` the decomposition is computed regardless
    and the hypothesis flags are reported in the result (see the module
    docstring for why truncated shift models need this)."""
    tol = rep.tol
    t = rep._lift
    t_dual = _dual(t, tol)
    pi = rep.is_partial_isometric()
    rinf = generalized_range(rep)  # R^infty(T): regularity and the dual side's residual
    regular = _is_regular_over(rep, rinf)
    bi_regular = None
    if regular:
        bi_regular = _pinv_chain_inclusions(rep, _BI_REGULAR_N_MAX)
    if check_hypotheses:
        if not regular:
            raise NotApplicable("representation is not regular")
        if not (bi_regular or pi):
            raise NotApplicable(
                "representation is neither bi-regular nor partially isometric"
            )
    wandering = nx.ortho_complement(rep.range_subspace(1), tol)
    primal = _wold_side(rep, t, iterated_range(rep, t_dual), wandering)
    dual = _wold_side(rep, t_dual, rinf, wandering)
    return WoldDecomposition(
        primal=primal,
        dual=dual,
        is_partial_isometric=pi,
        regular=regular,
        bi_regular=bi_regular,
        dual_gap=opnorm(nx._difference(t_dual, t)),
    )
