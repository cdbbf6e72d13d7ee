"""Products of covariant representations over tensor-product correspondences
and the partial-isometry criteria for them.

Given factors (sigma, V^(1)), ..., (sigma, V^(n)) over E_1, ..., E_n on the
same space, the stage operators are

    T_1 = tilde^(1),     T_i = T_{i-1} . (I_{E_1 (x) ... (x) E_{i-1}} (x) tilde^(i)),

the lifts of the product representation on E_1 (x) ... (x) E_i.  A
``ProductRep`` is the ``covrep.LiftChain`` of its factors, the same chain
that gives a representation its powers, so ``tilde_power(i)``, ``space(i)``,
``amplified`` and ``pinv_chain`` mean the same for a product of n copies
of one representation as for that representation.  The tests here decide
when the stages are partial isometries: a sufficient
intertwining identity, the commuting-projections equivalence for two
factors, the four-condition chain equivalence for n factors, the
pseudoinverse factorization equivalence, and the defect-dilation block
matrix.

Hypothesis failure is a distinct outcome, never conflated with a false
conclusion: a criterion whose hypotheses fail raises NotApplicable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nx
from .covrep import CovariantRep, LiftChain
from .errors import DimensionMismatch, DomainError, NotApplicable, UsageError
from .numerics import Record, Subspace, eye, herm, opnorm
from .powers import range_invariance_condition


class ProductRep(LiftChain):
    """Ordered factors sharing the coefficient algebra, sigma, H and the
    tolerance; the product reads the last two from its factors, so its
    spaces are theirs.  As a chain its lifts are the
    factors' lifts, and ``tilde_power(i)`` is the lift of the product of
    the first i factors."""

    def __init__(self, factors):
        factors = list(factors)
        if len(factors) < 2:
            raise DimensionMismatch("a product needs at least two factors")
        first = factors[0]
        for f in factors[1:]:
            if f.sigma != first.sigma:
                raise DimensionMismatch("factors must share sigma (algebra and multiplicities)")
            if f.tol != first.tol:
                raise UsageError("factors must share the tolerance")
        super().__init__(first.sigma, first.tol)
        self.factors = factors

    @property
    def n(self) -> int:
        return len(self.factors)

    def _factors(self, start: int, stop: int) -> list:
        if not 0 <= start <= stop <= self.n:
            raise DimensionMismatch(f"factors {start + 1}..{stop} out of range 1..{self.n}")
        return self.factors[start:stop]

    @property
    def tilde(self) -> np.ndarray:
        return self.tilde_power(self.n)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def sufficient_intertwining_check(rep1: CovariantRep, rep2: CovariantRep):
    """Sufficient condition for the two-factor product to be partially
    isometric:

        tilde1 (I (x) tilde2 tilde2*) = tilde2 tilde2* tilde1.

    Raises NotApplicable when either factor is not partially isometric.
    """
    prod = ProductRep([rep1, rep2])
    tol = prod.tol
    if not (rep1.is_partial_isometric() and rep2.is_partial_isometric()):
        raise NotApplicable("factors are not both partially isometric")
    final2 = rep2.tilde @ herm(rep2.tilde)
    amp = prod.amplified(final2, 1, 0, 0)
    return nx.identity_holds(rep1.tilde @ amp - final2 @ rep1.tilde, lambda: opnorm(rep1.tilde), tol)


@dataclass(frozen=True)
class CommutingProjectionResult(Record):
    product_is_pi: bool
    projections_commute: bool
    commutator_norm: float
    product_residual: float
    ef_norm: float  # ||E F||; idempotents of norm 1 + eps are borderline, so report it


def commuting_projection_test(rep1: CovariantRep, rep2: CovariantRep) -> CommutingProjectionResult:
    """Two partially isometric factors: the product lift is a partial
    isometry iff the initial projection of the first factor commutes with
    the amplified final projection of the second."""
    prod = ProductRep([rep1, rep2])
    tol = prod.tol
    if not rep1.is_partial_isometric():
        raise NotApplicable("first factor is not partially isometric")
    if not rep2.is_partial_isometric():
        raise NotApplicable("second factor is not partially isometric")
    # both projections act on E_1 (x) H
    e_proj = herm(rep1.tilde) @ rep1.tilde
    f_proj = prod.amplified(rep2.tilde @ herm(rep2.tilde), 1, 0, 0)
    ef = e_proj @ f_proj
    commutator = opnorm(ef - f_proj @ e_proj)
    residual, product_is_pi = nx.partial_isometry_residual(prod.tilde, tol)
    return CommutingProjectionResult(
        product_is_pi=product_is_pi,
        projections_commute=nx.residual_holds(commutator, 1.0, tol),
        commutator_norm=commutator,
        product_residual=residual,
        ef_norm=opnorm(ef),
    )


@dataclass(frozen=True)
class ChainConditionReport(Record):
    """Per-stage data for the four-condition product criterion.

    Stage s (1-based, s = 1..n-1) concerns appending factor s+1 to the
    product of the first s factors:

      stage_pi[s-1]          the (s+1)-stage lift is a partial isometry
      range_invariant[s-1]   (I (x) W W*) R(T_s*) <= R(T_s*)
      domain_invariant[s-1]  T_s* T_s R(I (x) W) <= R(I (x) W)
      idempotent[s-1]        P_{R(T_s*)} P_{R(I (x) W)} is idempotent

    with W the lift of factor s+1.  The four raw flags provably coincide
    up to and including the first failing stage; the cumulative
    (conjunction-so-far) vectors coincide at every stage and carry the
    theorem's content.
    """

    stage_pi: list
    range_invariant: list
    domain_invariant: list
    idempotent: list
    residuals: list

    def cumulative(self) -> dict:
        return {
            "stage_pi": nx.running_conjunction(self.stage_pi),
            "range_invariant": nx.running_conjunction(self.range_invariant),
            "domain_invariant": nx.running_conjunction(self.domain_invariant),
            "idempotent": nx.running_conjunction(self.idempotent),
        }

    def cumulative_agree(self) -> bool:
        c = self.cumulative()
        vectors = list(c.values())
        return all(v == vectors[0] for v in vectors)

    def raw_agree_until_first_failure(self) -> bool:
        rows = list(zip(self.stage_pi, self.range_invariant, self.domain_invariant, self.idempotent))
        for row in rows:
            if len(set(row)) > 1:
                return False
            if not row[0]:
                return True
        return True

    def to_dict(self):
        return dict(super().to_dict(), cumulative=self.cumulative())


def _product_of_partial_isometries(factors) -> ProductRep:
    """The product of ``factors``, refused unless each is partially isometric."""
    prod = ProductRep(factors)
    for i, f in enumerate(prod.factors):
        if not f.is_partial_isometric():
            raise NotApplicable(f"factor {i + 1} is not partially isometric")
    return prod


def chain_condition_test(factors) -> ChainConditionReport:
    """Evaluate the four equivalent stagewise conditions for a product of
    partially isometric factors."""
    prod = _product_of_partial_isometries(factors)
    factors, tol = prod.factors, prod.tol
    stage_pi, range_inv, dom_inv, idem, residuals = [], [], [], [], []
    for s in range(1, prod.n):
        t_s = prod.tilde_power(s)
        w_amp = prod.amplified(factors[s].tilde, s, 1, 0)
        pi_res, next_is_pi = nx.partial_isometry_residual(prod.tilde_power(s + 1), tol)
        stage_pi.append(next_is_pi)
        initial_range = prod.cokernel_subspace(s)
        range_inv.append(range_invariance_condition(prod, s + 1))
        w_range = Subspace.span(w_amp.to_dense(), tol)
        dom_inv.append(nx.is_subset(nx.image(herm(t_s) @ t_s, w_range, tol), w_range, tol))
        q = initial_range.projector() @ w_range.projector()
        idem_res = opnorm(q @ q - q)
        idem.append(nx.residual_holds(idem_res, 1.0, tol))
        residuals.append({"stage_pi": pi_res, "idempotent": idem_res})
    return ChainConditionReport(stage_pi, range_inv, dom_inv, idem, residuals)


@dataclass(frozen=True)
class PinvFactorizationResult(Record):
    is_pi: bool
    pinv_factors_match: bool
    chain_residual: float


def pinv_factorization_test(factors) -> PinvFactorizationResult:
    """The product lift is a partial isometry iff its Moore-Penrose inverse
    equals the reversed chain of amplified factor pseudoinverses."""
    prod = _product_of_partial_isometries(factors)
    tol = prod.tol
    t_n = prod.tilde
    direct = nx.pseudoinverse(t_n, tol)
    residual = opnorm(direct - prod.pinv_chain(prod.n))
    return PinvFactorizationResult(
        is_pi=nx.is_partial_isometry(t_n, tol),
        pinv_factors_match=nx.residual_holds(residual, opnorm(direct), tol),
        chain_residual=residual,
    )


@dataclass(frozen=True)
class DefectDilationResult(Record):
    m_is_pi: bool
    rep1_is_pi: bool


def single_defect_dilation(rep: CovariantRep) -> np.ndarray:
    """[[tilde, (I - tilde tilde*)^(1/2)], [0, 0]]: a partial isometry for
    every completely contractive representation."""
    tol = rep.tol
    if not nx.is_contraction(rep.tilde, tol):
        raise DomainError("defect dilation needs a contractive representation")
    d = rep.h_dim
    defect = nx.psd_sqrt(eye(d) - rep.tilde @ herm(rep.tilde), tol)
    top = np.hstack([rep.tilde, defect])
    return np.vstack([top, np.zeros_like(top)])


def defect_dilation_test(rep1: CovariantRep, rep2: CovariantRep) -> DefectDilationResult:
    """Assemble
        M = [[T_2, tilde1 (I (x) (I - tilde2 tilde2*))^(1/2)], [0, 0]]
    for contractive factors; M is a partial isometry iff the first factor
    is partially isometric."""
    prod = ProductRep([rep1, rep2])
    tol = prod.tol
    for i, rep in enumerate((rep1, rep2)):
        if not nx.is_contraction(rep.tilde, tol):
            raise DomainError(f"factor {i + 1} is not contractive")
    d = rep1.h_dim
    # amplification commutes with functional calculus, so
    # (I (x) (I - tilde2 tilde2*))^{1/2} = I (x) (I - tilde2 tilde2*)^{1/2}
    defect_root = nx.psd_sqrt(eye(d) - rep2.tilde @ herm(rep2.tilde), tol)
    amp_root = prod.amplified(defect_root, 1, 0, 0)
    top_left = prod.tilde
    top_right = rep1.tilde @ amp_root
    top = np.hstack([top_left, top_right])
    m = np.vstack([top, np.zeros_like(top)])
    return DefectDilationResult(
        m_is_pi=nx.is_partial_isometry(m, tol),
        rep1_is_pi=rep1.is_partial_isometric(),
    )
