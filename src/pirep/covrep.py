"""Covariant representations, their lifted operators, tensor powers and
pseudoinverse chains.  ``classify`` reads the lift's classification from
``numerics.classify_operator``.

A covariant pair (sigma, V) is stored through the matrices V(xi_a) on the
module basis, or through the lift's index form when it is built as one
(``shifts.build_shift``).  Its working avatar is the lift

    tilde :  E (x)_sigma H  ->  H,     tilde(xi (x) h) = V(xi) h,

which intertwines the induced left action with sigma.

``LiftChain`` builds powers and products alike: for lifts W_i over E_i,

    T_1 = W_1,     T_i = T_{i-1} (I_{E_1 (x) ... (x) E_{i-1}} (x) W_i).

A representation is the chain whose every factor is itself (T_m is the
power tilde_m); a product (``products.ProductRep``) is the chain of its
factors.  Each chain memoizes its T_m and cokernels (see ``LiftChain``),
as index forms on a chain of monomial lifts in identity coordinates.
``space(m)`` reads the space from the correspondence memos
(``FdCorrespondence.tensor`` and ``.space``), so all chains over the same
correspondences, sigma and tolerance share one coordinate system per
prefix.  Each dense T_m is checked against the byte budget before it is
built: on a dense chain before the product, on an index-form chain in
``numerics.dense`` when ``tilde_power`` reads it.

``amplified`` returns I (x) X as an operator for every m, m = 0
included (``numerics.Amplification``): it is applied block by block,
from the left to a frame or from the right to a matrix, and T_m is
T_{m-1} applied to it from the right.  ``pinv_chain`` applies it too.

A representation is built only if V is bimodule covariant and its lift
intertwines (``correspondence.bimodule_covariant`` and ``.intertwines``,
on the chain's one plain space H, so sigma is applied once per matrix
unit).  On a zero module or over the scalar algebra both hold for every
V, and neither check is called, so H is not built for them.  So a
factor's lift W_i is decided at most once, when the factor is built:
``amplified`` builds I (x) W_i for the factor's own lift with
``correspondence.amplification``, without a second check.  That check
would be the same decision: the factors share sigma and the tolerance,
so the domain E_i (x)_sigma H is the very space the factor was checked
on, H carries the same sigma(u), and the gaps W_i A(u) - sigma(u) W_i
are equal bit for bit, under the same cutoff eq_rel * max(1, ||W_i||).
Every other X (W W*, pseudoinverses, defect roots, a caller's S) goes
through ``amplify`` and is decided.
"""

from __future__ import annotations

import functools

import numpy as np

from . import numerics as nx
from .correspondence import FdCorrespondence, StarRepresentation, TensorSpace, amplification, amplify, plain_space
from .correspondence import bimodule_covariant, intertwines, intertwining_residual
from .errors import DimensionMismatch, InvalidRepresentation
from .numerics import Subspace, Tolerance, as_matrix


class LiftChain:
    """The chain of lifts W_i : E_i (x)_sigma H -> H sharing sigma and the
    tolerance.  ``_factors(start, stop)`` lists the factors
    i = start+1..stop, each with ``corr`` E_i and lift ``tilde`` W_i; the
    list is built per call, so a representation that is its own factor
    forms no reference cycle.

    One memo per chain holds each T_m and each cokernel N(T_m)^perp =
    R(T_m*) (at most dim H columns, so no more bytes than T_m), spanned
    once however many stage conditions read it, and each space
    ``_space(start, stop)``, folded once and then looked up.  When every
    factor's lift is held as an index form (a monomial lift in identity
    coordinates past the gate; see ``numerics``), the memo holds T_m as
    its index form, a row index and a value per column, composed from
    T_{m-1}'s form, and its cokernel as unit vectors by index: the
    criteria (``powers``, ``shifts``) read these and build no dense power.
    The dense T_m is built only on the public read ``tilde_power(m)``,
    once, and kept on the form, so after such a read the memo retains
    both; a ``Subspace.frame`` read of a cokernel likewise keeps its
    array.  Its arrays are read-only and its forms immutable, so the chain
    is immutable apart from this idempotent memo and concurrent readers
    are safe.  The memo forms no reference
    cycle: a ``TensorSpace`` holds only sigma and a weak proxy of its
    correspondence, never the chain.  Kernels (nearly all of space(m)) and
    ranges (what ``wold`` reads, redone on every rerun) are not memoized."""

    def __init__(self, sigma: StarRepresentation, tol: Tolerance):
        self.sigma = sigma
        self.tol = tol
        self._memo: dict = {}

    def _factors(self, start: int, stop: int) -> list:
        raise NotImplementedError

    @property
    def h_dim(self) -> int:
        return self.sigma.h_dim

    def _memoized(self, key, build):
        """build(), once per key, with its array (a Subspace's frame) made
        read-only; an index form is immutable already."""
        if key not in self._memo:
            value = build()
            array = value._frame if isinstance(value, Subspace) else value
            if isinstance(array, np.ndarray):
                array.setflags(write=False)
            self._memo[key] = value
        return self._memo[key]

    # -- spaces -------------------------------------------------------------

    def space(self, m: int) -> TensorSpace:
        """(E_1 (x) ... (x) E_m) (x)_sigma H; m = 0 is H itself."""
        return self._space(0, m)

    def _space(self, start: int, stop: int) -> TensorSpace:
        """(E_{start+1} (x) ... (x) E_stop) (x)_sigma H; start = stop is H
        itself, one per chain.  Folded once per (start, stop), then read
        from the memo."""
        key = ("space", start, stop) if start < stop else ("space", 0, 0)
        space = self._memo.get(key)
        if space is None:
            if start == stop:
                space = plain_space(self.sigma)
            else:
                corrs = [f.corr for f in self._factors(start, stop)]
                space = functools.reduce(FdCorrespondence.tensor, corrs).space(self.sigma, self.tol)
            self._memo[key] = space
        return space

    # -- the chain -----------------------------------------------------------

    def tilde_power(self, m: int) -> np.ndarray:
        """T_m = T_{m-1} (I_{E_1 (x) ... (x) E_{m-1}} (x) W_m), T_1 = W_1,
        with the amplified factor applied block by block from the right
        (``numerics.Amplification``: over the nonzero columns of T_{m-1}
        only).  The array; on a chain of index-form lifts it is built from
        T_m's index form on this first read (``numerics.dense``)."""
        if m < 1:
            raise DimensionMismatch("tilde_power needs m >= 1")
        return nx.dense(self._power(m), f"the lift power T_{m}")

    def _power(self, m: int):
        """T_m as the memo holds it: an index form when T_{m-1} and W_m are
        (see the class docstring), the array otherwise."""
        return self._memoized(("power", m), lambda: self._build_power(m))

    def _build_power(self, m: int):
        (factor,) = self._factors(m - 1, m)
        if m == 1:
            return factor._lift
        prev = self._power(m - 1)
        if not nx._is_form(prev):  # an index form checks its own bytes, and dense() T_m's
            nx.check_bytes(nx.ENTRY_BYTES * self.h_dim * self.space(m).dim, f"the lift power T_{m}")
        return prev @ self._amplified_lift(m - 1)

    def amplified(self, x: np.ndarray, m: int, dom_power: int, cod_power: int) -> nx.Amplification:
        """I_{E_1 (x) ... (x) E_m} (x) X for X : side(dom_power) -> side(cod_power),
        where side(p) is (E_{m+1} (x) ... (x) E_{m+p}) (x)_sigma H; as an
        operator space(m + dom_power) -> space(m + cod_power), applied
        block by block (``to_dense`` builds its matrix).  The factor's own
        lift W_{m+1} (dom_power 1, cod_power 0) is not decided again (see
        the module docstring); every other X is (``amplify``)."""
        if m == 0:
            return nx.Amplification(nx._as_operator(x), 1, None, None)
        if (dom_power, cod_power) == (1, 0) and x is self._factors(m, m + 1)[0].tilde:
            return amplification(x, *self._spaces(m, dom_power, cod_power))
        return amplify(x, *self._spaces(m, dom_power, cod_power), self.tol)

    def _spaces(self, m: int, dom_power: int, cod_power: int) -> tuple:
        """(side(dom_power), side(cod_power), space(m + dom_power), space(m + cod_power))."""
        dom, cod = m + dom_power, m + cod_power
        return self._space(m, dom), self._space(m, cod), self.space(dom), self.space(cod)

    def _amplified_lift(self, m: int) -> nx.Amplification:
        """I_{E_1 (x) ... (x) E_m} (x) W_{m+1} on the factor's lift as it holds
        it, an index form or the array; not decided again."""
        (factor,) = self._factors(m, m + 1)
        if m == 0:
            return nx.Amplification(factor._lift, 1, None, None)
        return amplification(factor._lift, *self._spaces(m, 1, 0))

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

    # -- subspaces -------------------------------------------------------------
    # unit scale floor throughout (lifts are O(1)); T_0 = I_H

    def kernel_subspace(self, m: int) -> Subspace:
        """N(T_m), inside space(m); not memoized."""
        if m == 0:
            return Subspace.zero(self.h_dim)
        return Subspace.kernel(self._power(m), self.tol)

    def cokernel_subspace(self, m: int) -> Subspace:
        """N(T_m)^perp = R(T_m*), inside space(m); memoized."""
        if m == 0:
            return self._memoized(("cokernel", 0), lambda: Subspace.whole(self.h_dim))
        return self._memoized(("cokernel", m), lambda: Subspace.span(nx._adjoint(self._power(m)), self.tol))

    def range_subspace(self, m: int) -> Subspace:
        """R(T_m), inside H; not memoized."""
        if m == 0:
            return Subspace.whole(self.h_dim)
        return Subspace.span(self._power(m), self.tol)


class CovariantRep(LiftChain):
    """The pair (sigma, V) with its lift; as a chain, every factor is the
    representation itself, so ``tilde_power(m)`` is the m-th power.

    ``v_on_basis`` is the list of the matrices V(xi_b) or, in identity
    coordinates, the lift's index form (``numerics._Monomial``, as
    ``shifts.build_shift`` builds it): the lift is then held as that form,
    and ``tilde`` and ``v_on_basis`` are built from it on their first read
    (``numerics.dense``).  Otherwise V is stacked into the lift, and in
    identity coordinates one scan decides whether the lift is monomial, and
    so held as its index form, or isolated entries beside one dense core,
    and so held as a split form (see ``numerics``)."""

    def __init__(
        self,
        corr: FdCorrespondence,
        sigma: StarRepresentation,
        v_on_basis,
        tol: Tolerance,
    ):
        if corr.algebra != sigma.algebra:
            raise DimensionMismatch("correspondence and representation algebras differ")
        super().__init__(sigma, tol)
        self.corr = corr
        d = sigma.h_dim
        lift = self.space(1).lift
        if type(v_on_basis) is nx._Monomial:
            shape = (d, corr.module_dim * d)
            if lift is not None or v_on_basis.shape != shape:
                raise DimensionMismatch(f"a lift held by index needs identity coordinates and shape {shape}")
            self._formal = self._tilde = self._lift = v_on_basis
            self._validate_covariance()
            return
        vs = [as_matrix(v) for v in v_on_basis]
        if len(vs) != corr.module_dim or any(v.shape != (d, d) for v in vs):
            raise DimensionMismatch(
                f"need {corr.module_dim} matrices of shape ({d}, {d})"
            )
        formal = np.hstack(vs) if vs else np.zeros((d, 0), dtype=np.complex128)  # column (b, j) is V(xi_b) e_j
        formal.setflags(write=False)
        self._formal = formal  # not the caller's arrays
        self._tilde = formal if lift is None else formal @ lift
        self._tilde.setflags(write=False)
        self._validate_covariance()
        # in identity coordinates one scan decides whether the lift is monomial
        # or isolated entries beside one core
        self._lift = (nx._index_form(self._tilde, split=True) if lift is None else None) or self._tilde

    def _factors(self, start: int, stop: int) -> list:
        return [self] * (stop - start)

    # -- the lift ---------------------------------------------------------------

    def _validate_covariance(self):
        if self.corr.module_dim == 0 or self.corr.algebra.is_scalar:
            return  # no module vectors, or the scalar algebra: every axiom holds
        # both checks read sigma(u) from the chain's one H, once per matrix unit
        if not bimodule_covariant(self.corr, self.space(0), self.v_on_basis, self.tol):
            raise InvalidRepresentation("bimodule covariance V(a xi c) = sigma(a) V(xi) sigma(c) fails")
        if not intertwines(self.tilde, self.space(1), self.space(0), self.tol):
            residual = self.intertwining_residual()
            raise InvalidRepresentation(f"lift does not intertwine the left action (residual {residual:.3e})")

    def intertwining_residual(self) -> float:
        """Residual of tilde (phi(a) (x) I) = sigma(a) tilde over the algebra basis."""
        return intertwining_residual(self.tilde, self.space(1), self.space(0))

    @property
    def tilde(self) -> np.ndarray:
        """The lift as an array, read-only; for a lift held by index, built
        on the first read and the same object on every read
        (``numerics.dense``)."""
        return nx.dense(self._tilde, "the lift")

    @functools.cached_property
    def v_on_basis(self) -> tuple:
        """The matrices V(xi_b), read-only views of the stacked V (for a
        lift held by index, of ``tilde``); the same tuple on every read."""
        formal, d = nx.dense(self._formal, "the lift"), self.h_dim
        return tuple(formal[:, b * d : (b + 1) * d] for b in range(self.corr.module_dim))

    # -- classification -------------------------------------------------------

    def classify(self) -> nx.ClassificationReport:
        """The full six-way diagnostic; verdict-only callers use
        is_partial_isometric or nx.is_contraction instead.  A lift held as
        an index form is classified from its index."""
        return nx.classify_operator(self._lift, self.tol)

    def is_partial_isometric(self) -> bool:
        return nx.is_partial_isometry(self._lift, self.tol)


def rep_from_tilde(
    corr: FdCorrespondence,
    sigma: StarRepresentation,
    tilde: np.ndarray,
    tol: Tolerance,
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
