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

Hypothesis failure is a distinct tri-state outcome, never conflated with a
false conclusion: functions either return None ("not applicable") where
documented or raise NotApplicable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numerics as nx
from .covrep import CovariantRep, LiftChain, rep_from_tilde
from .errors import DimensionMismatch, DomainError, NotApplicable, UsageError
from .numerics import Subspace, eye, herm, opnorm


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

    def as_rep(self, i: int | None = None) -> CovariantRep:
        """The product of the first i factors as a single representation."""
        i = self.n if i is None else i
        return rep_from_tilde(self.corr_power(i), self.sigma, self.tilde_power(i), self.tol)

    def check_defining_formula(self, rng: np.random.Generator, samples: int = 10) -> float:
        """Worst residual of T_n(xi_1 (x) ... (x) xi_n (x) h) =
        V^(1)(xi_1) ... V^(n)(xi_n) h on random simple tensors."""
        worst = 0.0
        space = self.space(self.n)
        d = self.sigma.h_dim
        for _ in range(samples):
            xis = [
                (rng.standard_normal(f.corr.module_dim) + 1j * rng.standard_normal(f.corr.module_dim))
                for f in self.factors
            ]
            h = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            formal = xis[0]
            for xi in xis[1:]:
                formal = np.kron(formal, xi)
            lhs = self.tilde @ space.coords_of_simple(formal, h)
            rhs = h
            for f, xi in zip(reversed(self.factors), reversed(xis)):
                rhs = sum(c * v for c, v in zip(xi, f.v_on_basis)) @ rhs
            worst = max(worst, float(np.linalg.norm(lhs - rhs)))
        return worst


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def sufficient_intertwining_check(rep1: CovariantRep, rep2: CovariantRep):
    """Sufficient condition for the two-factor product to be partially
    isometric:

        tilde1 (I (x) tilde2 tilde2*) = tilde2 tilde2* tilde1.

    Returns True/False, or None when either factor is not partially
    isometric (the condition is then not applicable).
    """
    prod = ProductRep([rep1, rep2])
    tol = prod.tol
    if not (rep1.is_partial_isometric() and rep2.is_partial_isometric()):
        return None
    final2 = rep2.tilde @ herm(rep2.tilde)
    amp = prod.amplified(final2, 1, 0, 0)
    return nx.identity_holds(rep1.tilde @ amp - final2 @ rep1.tilde, lambda: opnorm(rep1.tilde), tol)


@dataclass(frozen=True)
class CommutingProjectionResult:
    product_is_pi: bool
    projections_commute: bool
    commutator_norm: float
    product_residual: float
    ef_norm: float  # ||E F||; idempotents of norm 1 + eps are borderline, so report it

    def to_dict(self):
        return {
            "product_is_pi": self.product_is_pi,
            "projections_commute": self.projections_commute,
            "commutator_norm": self.commutator_norm,
            "product_residual": self.product_residual,
            "ef_norm": self.ef_norm,
        }


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
    commutator = opnorm(e_proj @ f_proj - f_proj @ e_proj)
    residual, product_is_pi = nx.partial_isometry_residual(prod.tilde, tol)
    return CommutingProjectionResult(
        product_is_pi=product_is_pi,
        projections_commute=commutator <= tol.eq_rel,
        commutator_norm=commutator,
        product_residual=residual,
        ef_norm=opnorm(e_proj @ f_proj),
    )


@dataclass(frozen=True)
class ChainConditionReport:
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
        return {
            "stage_pi": list(self.stage_pi),
            "range_invariant": list(self.range_invariant),
            "domain_invariant": list(self.domain_invariant),
            "idempotent": list(self.idempotent),
            "cumulative": self.cumulative(),
            "residuals": list(self.residuals),
        }


def chain_condition_test(factors) -> ChainConditionReport:
    """Evaluate the four equivalent stagewise conditions for a product of
    partially isometric factors."""
    prod = ProductRep(factors)
    factors, tol = prod.factors, prod.tol
    for i, f in enumerate(factors):
        if not f.is_partial_isometric():
            raise NotApplicable(f"factor {i + 1} is not partially isometric")
    stage_pi, range_inv, dom_inv, idem, residuals = [], [], [], [], []
    for s in range(1, prod.n):
        t_s = prod.tilde_power(s)
        fac = factors[s]
        w_amp = prod.amplified(fac.tilde, s, 1, 0)
        pi_res, next_is_pi = nx.partial_isometry_residual(prod.tilde_power(s + 1), tol)
        stage_pi.append(next_is_pi)
        initial_range = Subspace.span(herm(t_s), tol)
        final_w = fac.tilde @ herm(fac.tilde)
        amp_final_w = prod.amplified(final_w, s, 0, 0)
        range_inv.append(nx.is_subset(nx.image(amp_final_w, initial_range, tol), initial_range, tol))
        w_range = Subspace.span(w_amp, tol)
        dom_inv.append(nx.is_subset(nx.image(herm(t_s) @ t_s, w_range, tol), w_range, tol))
        q = initial_range.projector() @ w_range.projector()
        idem_res = opnorm(q @ q - q)
        idem.append(idem_res <= tol.eq_rel)
        residuals.append({"stage_pi": pi_res, "idempotent": idem_res})
    return ChainConditionReport(stage_pi, range_inv, dom_inv, idem, residuals)


@dataclass(frozen=True)
class PinvFactorizationResult:
    is_pi: bool
    pinv_factors_match: bool
    chain_residual: float

    def to_dict(self):
        return {
            "is_pi": self.is_pi,
            "pinv_factors_match": self.pinv_factors_match,
            "chain_residual": self.chain_residual,
        }


def pinv_factorization_test(factors) -> PinvFactorizationResult:
    """The product lift is a partial isometry iff its Moore-Penrose inverse
    equals the reversed chain of amplified factor pseudoinverses."""
    prod = ProductRep(factors)
    factors, tol = prod.factors, prod.tol
    for i, f in enumerate(factors):
        if not f.is_partial_isometric():
            raise NotApplicable(f"factor {i + 1} is not partially isometric")
    t_n = prod.tilde
    direct = nx.pseudoinverse(t_n, tol)
    residual = opnorm(direct - prod.pinv_chain(prod.n))
    scale = max(1.0, opnorm(direct))
    return PinvFactorizationResult(
        is_pi=nx.is_partial_isometry(t_n, tol),
        pinv_factors_match=residual <= tol.eq_rel * scale,
        chain_residual=residual,
    )


@dataclass(frozen=True)
class DefectDilationResult:
    matrix: np.ndarray = field(repr=False)
    m_is_pi: bool = False
    rep1_is_pi: bool = False

    def to_dict(self):
        return {"m_is_pi": self.m_is_pi, "rep1_is_pi": self.rep1_is_pi}


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
        matrix=m,
        m_is_pi=nx.is_partial_isometry(m, tol),
        rep1_is_pi=rep1.is_partial_isometric(),
    )
