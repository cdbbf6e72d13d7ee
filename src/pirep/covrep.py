"""Covariant representations, their lifted operators, tensor powers,
pseudoinverse chains, and reducing-subspace restriction.  ``classify``
reads the lift's classification from ``numerics.classify_operator``.

A covariant pair (sigma, V) is stored through the matrices V(xi_a) on the
module basis.  Its working avatar is the lift

    tilde :  E (x)_sigma H  ->  H,     tilde(xi (x) h) = V(xi) h,

which intertwines the induced left action with sigma.

``LiftChain`` builds powers and products alike: for lifts W_i over E_i,

    T_1 = W_1,     T_i = T_{i-1} (I_{E_1 (x) ... (x) E_{i-1}} (x) W_i).

A representation is the chain whose every factor is itself (T_m is the
power tilde_m); a product (``products.ProductRep``) is the chain of its
factors.  The T_m are cached; chains are immutable apart from this
idempotent cache, so concurrent readers are safe.  ``space(m)`` reads the
space from the correspondence memos (``FdCorrespondence.tensor`` and
``.space``), so all chains over the same correspondences, sigma and
tolerance share one coordinate system per prefix.  Each T_m is checked
against the byte budget (``numerics.check_bytes``) before it is built.
"""

from __future__ import annotations

import functools

import numpy as np

from . import numerics as nx
from .correspondence import FdCorrespondence, StarRepresentation, TensorSpace, amplify, plain_space
from .correspondence import intertwining_residual
from .errors import DimensionMismatch, DomainError, InvalidRepresentation
from .numerics import DEFAULT_TOL, Subspace, Tolerance, as_matrix, eye, herm, opnorm


class LiftChain:
    """The chain of lifts W_i : E_i (x)_sigma H -> H sharing sigma and the
    tolerance.  ``_factors(start, stop)`` lists the factors
    i = start+1..stop, each with ``corr`` E_i and lift ``tilde`` W_i; the
    list is built per call, so a representation that is its own factor
    forms no reference cycle."""

    def __init__(self, sigma: StarRepresentation, tol: Tolerance):
        self.sigma = sigma
        self.tol = tol
        self._powers: dict[int, np.ndarray] = {}

    def _factors(self, start: int, stop: int) -> list:
        raise NotImplementedError

    @property
    def h_dim(self) -> int:
        return self.sigma.h_dim

    # -- spaces -------------------------------------------------------------

    def corr_power(self, m: int) -> FdCorrespondence:
        """E_1 (x) ... (x) E_m, folded from the left through the memos."""
        if m < 1:
            raise DimensionMismatch("corr_power needs m >= 1")
        return functools.reduce(FdCorrespondence.tensor, [f.corr for f in self._factors(0, m)])

    def space(self, m: int) -> TensorSpace:
        """(E_1 (x) ... (x) E_m) (x)_sigma H; m = 0 is H itself."""
        return self._space(0, m)

    def _space(self, start: int, stop: int) -> TensorSpace:
        """(E_{start+1} (x) ... (x) E_stop) (x)_sigma H; start = stop is H itself."""
        if start == stop:
            return plain_space(self.sigma)
        corrs = [f.corr for f in self._factors(start, stop)]
        return functools.reduce(FdCorrespondence.tensor, corrs).space(self.sigma, self.tol)

    # -- the chain -----------------------------------------------------------

    def tilde_power(self, m: int) -> np.ndarray:
        """T_m = T_{m-1} (I_{E_1 (x) ... (x) E_{m-1}} (x) W_m), T_1 = W_1.

        When the three spaces involved have identity coordinates the
        amplified factor is block diagonal, and T_{m-1} is multiplied by
        it block by block instead of materializing it, over the nonzero
        columns of T_{m-1} only (``numerics._live_lines``; the terms of
        its zero columns are exact zeros)."""
        if m < 1:
            raise DimensionMismatch("tilde_power needs m >= 1")
        if m in self._powers:
            return self._powers[m]
        nx.check_bytes(nx.ENTRY_BYTES * self.h_dim * self.space(m).dim, f"the lift power T_{m}")
        (factor,) = self._factors(m - 1, m)
        w = factor.tilde
        if m == 1:
            mat = w
        else:
            prev = self.tilde_power(m - 1)
            side, big, small = self._space(m - 1, m), self.space(m), self.space(m - 1)
            if side.embed is None and big.embed is None and small.embed is None:
                d, width = self.h_dim, w.shape[1]
                _, live = nx._live_lines(prev)
                mat = np.zeros((d, small.module_dim * width), dtype=np.complex128)
                for j in range(small.module_dim):
                    keep = slice(None) if live is None else live[j * d : (j + 1) * d]
                    mat[:, j * width : (j + 1) * width] = prev[:, j * d : (j + 1) * d][:, keep] @ w[keep]
            else:
                mat = prev @ self.amplified(w, m - 1, 1, 0)
        self._powers[m] = mat
        return mat

    def amplified(self, x: np.ndarray, m: int, dom_power: int, cod_power: int) -> np.ndarray:
        """I_{E_1 (x) ... (x) E_m} (x) X for X : side(dom_power) -> side(cod_power),
        where side(p) is (E_{m+1} (x) ... (x) E_{m+p}) (x)_sigma H; as a map
        space(m + dom_power) -> space(m + cod_power)."""
        if m == 0:
            return as_matrix(x)
        return amplify(
            x,
            self._space(m, m + dom_power),
            self._space(m, m + cod_power),
            self.space(m + dom_power),
            self.space(m + cod_power),
            self.tol,
        )

    def pinv_chain(self, m: int) -> np.ndarray:
        """(I_{E_1 (x) ... (x) E_{m-1}} (x) W_m^+) ... (I_{E_1} (x) W_2^+) W_1^+,
        taking one pseudoinverse per distinct factor."""
        if m < 1:
            raise DimensionMismatch("pinv_chain needs m >= 1")
        factors = self._factors(0, m)
        daggers = {f: nx.pseudoinverse(f.tilde, self.tol) for f in dict.fromkeys(factors)}
        out = daggers[factors[0]]
        for j in range(1, m):
            out = self.amplified(daggers[factors[j]], j, 0, 1) @ out
        return out


class CovariantRep(LiftChain):
    """The pair (sigma, V) with its lift; as a chain, every factor is the
    representation itself, so ``tilde_power(m)`` is the m-th power."""

    def __init__(
        self,
        corr: FdCorrespondence,
        sigma: StarRepresentation,
        v_on_basis,
        tol: Tolerance = DEFAULT_TOL,
    ):
        if corr.algebra != sigma.algebra:
            raise DimensionMismatch("correspondence and representation algebras differ")
        super().__init__(sigma, tol)
        self.corr = corr
        d = sigma.h_dim
        vs = [as_matrix(v) for v in v_on_basis]
        if len(vs) != corr.module_dim or any(v.shape != (d, d) for v in vs):
            raise DimensionMismatch(
                f"need {corr.module_dim} matrices of shape ({d}, {d})"
            )
        self.v_on_basis = vs
        self._tilde = self._build_tilde()
        self._validate_covariance()

    def _factors(self, start: int, stop: int) -> list:
        return [self] * (stop - start)

    # -- the lift ---------------------------------------------------------------

    def _build_tilde(self) -> np.ndarray:
        space = self.space(1)
        if not self.v_on_basis:
            return np.zeros((self.h_dim, space.dim), dtype=np.complex128)
        formal = np.hstack(self.v_on_basis)  # column (b, j) is V(xi_b) e_j
        return formal if space.lift is None else formal @ space.lift

    def _validate_covariance(self):
        if self.corr.module_dim == 0 or self.corr.algebra.is_scalar:
            return  # no module vectors, or the scalar algebra: every axiom holds
        tol = self.tol
        scale = functools.cache(lambda: max(opnorm(v) for v in self.v_on_basis))
        basis = self.corr.algebra.basis()
        sigma_of = self.sigma.apply(basis)
        # left_action[t] and right_action[t] are the actions of the matrix unit u_t
        for la, sa in zip(self.corr.left_action, sigma_of):
            for rc, sc in zip(self.corr.right_action, sigma_of):
                w = la @ rc
                for b in range(self.corr.module_dim):
                    lhs = sum(w[y, b] * self.v_on_basis[y] for y in range(self.corr.module_dim))
                    if not nx.identity_holds(lhs - sa @ self.v_on_basis[b] @ sc, scale, tol):
                        raise InvalidRepresentation(
                            "bimodule covariance V(a xi c) = sigma(a) V(xi) sigma(c) fails"
                        )
        for act, su in zip(self.space(1).induced_action(basis), sigma_of):
            if not nx.identity_holds(self._tilde @ act - su @ self._tilde, scale, tol):
                raise InvalidRepresentation(
                    f"lift does not intertwine the left action (residual {self.intertwining_residual():.3e})"
                )

    def intertwining_residual(self) -> float:
        """Residual of tilde (phi(a) (x) I) = sigma(a) tilde over the algebra basis."""
        return intertwining_residual(self._tilde, self.space(1), plain_space(self.sigma))

    @property
    def tilde(self) -> np.ndarray:
        return self._tilde

    # -- classification -------------------------------------------------------

    def classify(self) -> nx.ClassificationReport:
        """The full six-way diagnostic; verdict-only callers use
        is_partial_isometric or nx.is_contraction instead."""
        return nx.classify_operator(self._tilde, self.tol)

    def is_partial_isometric(self) -> bool:
        return nx.is_partial_isometry(self._tilde, self.tol)

    # -- subspaces -------------------------------------------------------------
    # unit scale floor throughout (lifts are O(1)); tilde_0 = I_H

    def kernel_subspace(self, m: int = 1) -> Subspace:
        """N(tilde_m), inside space(m)."""
        if m == 0:
            return Subspace.zero(self.h_dim)
        return Subspace.kernel(self.tilde_power(m), self.tol)

    def cokernel_subspace(self, m: int = 1) -> Subspace:
        """N(tilde_m)^perp = R(tilde_m*), inside space(m)."""
        if m == 0:
            return Subspace.whole(self.h_dim)
        return Subspace.span(herm(self.tilde_power(m)), self.tol)

    def range_subspace(self, m: int = 1) -> Subspace:
        """R(tilde_m), inside H."""
        if m == 0:
            return Subspace.whole(self.h_dim)
        return Subspace.span(self.tilde_power(m), self.tol)

    # -- restriction -------------------------------------------------------------

    def restrict(self, k_sub: Subspace) -> "CovariantRep":
        """Compression to a reducing subspace.

        K must satisfy sigma(a) K <= K, tilde(E (x) K) <= K and
        tilde*(K) <= E (x) K; the failing inclusion is named otherwise.
        """
        tol = self.tol
        if k_sub.ambient_dim != self.h_dim:
            raise DimensionMismatch("subspace does not live on H")
        sigma_of = self.sigma.apply(self.corr.algebra.basis())
        for t, sa in enumerate(sigma_of):
            if not nx.is_subset(nx.image(sa, k_sub, tol), k_sub, tol):
                raise DomainError(f"K is not sigma-invariant (algebra basis element {t})")
        p_k = k_sub.projector()
        amp_pk = self.amplified(p_k, 1, 0, 0)
        e_tensor_k = Subspace.span(amp_pk, tol)
        if not nx.is_subset(nx.image(self._tilde, e_tensor_k, tol), k_sub, tol):
            raise DomainError("tilde(E (x) K) is not contained in K")
        if not nx.is_subset(nx.image(herm(self._tilde), k_sub, tol), e_tensor_k, tol):
            raise DomainError("tilde*(K) is not contained in E (x) K")
        f = k_sub.frame
        compressed = [herm(f) @ v @ f for v in self.v_on_basis]
        if self.corr.algebra.is_scalar:
            sigma_k = StarRepresentation(self.corr.algebra, [k_sub.dim])
            return CovariantRep(self.corr, sigma_k, compressed, tol)
        mults, w = _canonicalize_representation(self.corr.algebra, herm(f) @ sigma_of @ f, tol)
        sigma_k = StarRepresentation(self.corr.algebra, mults)
        rotated = [herm(w) @ v @ w for v in compressed]
        return CovariantRep(self.corr, sigma_k, rotated, tol)


def _canonicalize_representation(algebra, basis_mats, tol: Tolerance):
    """Unitary W with W* sigma'(a) W in the canonical (+)_i a_i (x) I form,
    from the (dim A, r, r) stack ``basis_mats`` of sigma' on the matrix units.

    Standard matrix-unit argument: an orthonormal basis of the range of
    sigma'(e^{(i)}_{11}) generates the block through sigma'(e^{(i)}_{p1}).
    """
    r = basis_mats.shape[-1]

    def mat_of(a):
        coords = algebra.coords(a)
        out = np.zeros((r, r), dtype=np.complex128)
        for c, m in zip(coords, basis_mats):
            if c != 0:
                out = out + c * m
        return out

    mults = []
    columns = []
    for i, k in enumerate(algebra.block_sizes):
        e11 = mat_of(algebra.unit(i, 0, 0))
        g = nx.range_frame(e11, tol)
        m_i = g.shape[1]
        mults.append(m_i)
        for p in range(k):
            ep1 = mat_of(algebra.unit(i, p, 0))
            for t in range(m_i):
                columns.append(ep1 @ g[:, t])
    w = np.column_stack(columns) if columns else np.zeros((r, 0), dtype=np.complex128)
    if w.shape != (r, r):
        raise DomainError("compression is not a representation of the canonical form")
    if opnorm(herm(w) @ w - eye(r)) > 100 * tol.eq_rel:
        raise DomainError("canonicalizing frame failed to be unitary")
    return mults, w


def rep_from_tilde(
    corr: FdCorrespondence,
    sigma: StarRepresentation,
    tilde: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
) -> CovariantRep:
    """Reconstruct (sigma, V) from a lift: V(xi_b) h = tilde(xi_b (x) h)."""
    tilde = as_matrix(tilde)
    space = corr.space(sigma, tol)
    if tilde.shape != (sigma.h_dim, space.dim):
        raise DimensionMismatch(f"lift shape {tilde.shape} != ({sigma.h_dim}, {space.dim})")
    d = sigma.h_dim
    vs = []
    for b in range(corr.module_dim):
        formal = np.zeros((space.formal_dim, d), dtype=np.complex128)
        formal[b * d : (b + 1) * d] = np.eye(d)
        vs.append(tilde @ space.apply_embed(formal))
    return CovariantRep(corr, sigma, vs, tol)
