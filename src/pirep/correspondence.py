"""Finite-dimensional C*-algebras, their representations, C*-correspondences,
interior tensor products, and identity amplification.

A correspondence is specified by finite structure data: an algebra-valued
Gram matrix on a chosen module basis plus left/right action matrices per
algebra basis element.  This encoding is a choice of this package (the
objects themselves are basis-free); it makes every invariant mechanically
checkable.

Index convention, fixed package-wide: in any tensor product the leftmost
factor is the most significant index (row-major), so for the scalar algebra
the interior tensor product E (x) H is the plain Kronecker ordering
``(basis_a (x) e_j) -> a * dim(H) + j`` with no permutation.

Correspondences are immutable (their structure arrays are read-only), so
they carry the package's only tensor memos: ``e.tensor(f)`` builds E (x) F
once per right factor F while F lives, and ``e.space(sigma, tol)`` builds
E (x)_sigma H once per sigma and tolerance while ``e`` lives.
Representations and products read their tensor powers and spaces from
these memos; ``amplify`` builds no tensor space.

``scalar_correspondence``, ``diagonal_correspondence`` and
``algebra_correspondence`` validate their arguments and then return one
shared correspondence per argument tuple from a process-wide table, so
every trial, factor and representation over the same structure reads the
same E (x) F and E (x)_sigma H.  Each memo value is a deterministic
function of content, so sharing moves no bit.  The cost is retention: the
table is never emptied, and its entries keep their memos, so the powers
E^(x m) (each held by the memo of E^(x m-1), keyed by E) and their spaces
stay until the process exits.  E^(x m) of E = C^n holds a Gram and two
action stacks of n^(2m) entries each: a process that has run
``power_report`` to m = 12 on an n = 2 shift keeps E^(x 12)'s three
4096 x 4096 arrays (3 x 268 MB), and about a third as much again for the
lower powers, after the representation is gone.

sigma and the module actions are linear maps on stacks of algebra
elements: ``StarRepresentation.apply``, ``FdCorrespondence.left``,
``FdCStarAlgebra.coords`` and ``TensorSpace.induced_action`` take one
element or a stack (..., K, K), and ``FdCStarAlgebra.basis()`` is
one read-only (dim A, K, K) stack.  So ``interior_tensor`` applies sigma
once to the whole (N, N, K, K) Gram, ``tensor_product`` sends all N_E^2
Gram entries through phi_F in one stacked product and through F's Gram in
one contraction, and every per-basis check reads one stack of actions.
Each block a_i (x) I_m of sigma(a) is the broadcast multiply that np.kron
itself performs (``numerics.kron_eye``), so it equals the per-element
kron bit for bit, signed zeros included.  With coordinates kept
contiguous, a stacked (1, dim A) x (dim A, N^2) product runs the same
BLAS kernel per element as a single one, so for dim A >= 2 the stacked
Gram equals the per-entry one bit for bit.  Over the scalar algebra the
per-entry form multiplied a Gram coordinate c by phi(1) on numpy's
scalar-times-vector path, which rounds a complex product differently;
the two differ only when phi(1) is not exactly the identity, by at most
one rounding of c * phi(1) per entry carried through F's Gram.  The
tests in tests/test_correspondence.py compare every stacked form with
the per-entry loops.

``amplify`` returns I_F (x) X as an operator (``numerics.Amplification``)
that is applied block by block and never built; only its ``to_dense``
forms the matrix.

Intertwining is decided in one place, ``intertwines``.  It forms the gaps
X A_dom(u) - A_cod(u) X for all matrix units u as one stacked array and
decides each slice with ``numerics.identity_holds`` at the one scale
||X||.  ``amplify`` (then its builder ``amplification``),
``intertwining_residual`` and the lift check of ``covrep.CovariantRep``
all call it.  The induced actions A(u) of a space are read from
``TensorSpace._basis_actions``, built on first use and kept with the
immutable space, so sigma and phi are applied once per matrix unit and
space; only this module reads them.  The memo is formed only over a
non-scalar algebra (on the scalar algebra every X intertwines) and holds
dim A * dim^2 entries, at most dim A / 2 times the embed and lift the
space already keeps.  ``bimodule_covariant`` decides V(a xi c) =
sigma(a) V(xi) sigma(c) with one loop over u_a, each step two stacked
contractions over (u_c, xi_b), one ``identity_holds`` per (u_a, u_c,
xi_b) at the scale max_b ||V(xi_b)||.

``StarRepresentation``, ``FdCStarAlgebra.basis``, phi, the induced
actions, ``tensor_product``, ``interior_tensor`` and an amplification's
applications and ``to_dense`` each check the bytes of their largest
array, stacks included, from shapes before allocating it
(``numerics.check_bytes``).
"""

from __future__ import annotations

import functools
import math
import numbers
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    IntertwinerError,
    InvalidCorrespondence,
)
from .numerics import (
    ENTRY_BYTES,
    Amplification,
    Tolerance,
    _as_operator,
    _eigh,
    _svd,
    as_matrix,
    check_bytes,
    eye,
    eye_kron,
    herm,
    identity_holds,
    kron_eye,
    materially_negative,
    opnorm,
    rank_threshold,
    residual_holds,
)


class FdCStarAlgebra:
    """Direct sum of full matrix algebras, realized block-diagonally.

    Elements are block-diagonal complex matrices with blocks of exactly
    the given sizes.  The canonical linear basis is the family of matrix
    units, ordered block by block, row-major within a block.
    """

    def __init__(self, block_sizes):
        sizes = tuple(int(k) for k in block_sizes)
        if not sizes or any(k < 1 for k in sizes):
            raise InvalidCorrespondence("block sizes must be a nonempty list of positive ints")
        self.block_sizes = sizes
        self.matrix_size = sum(sizes)
        self.dim = sum(k * k for k in sizes)
        offsets = []
        start = 0
        for k in sizes:
            offsets.append((start, start + k))
            start += k
        self._block_ranges = tuple(offsets)
        # row and column of each matrix unit, in basis order
        self._unit_rows = np.concatenate([np.repeat(np.arange(lo, hi), hi - lo) for lo, hi in offsets])
        self._unit_cols = np.concatenate([np.tile(np.arange(lo, hi), hi - lo) for lo, hi in offsets])
        self._basis = None

    def __eq__(self, other):
        return isinstance(other, FdCStarAlgebra) and self.block_sizes == other.block_sizes

    def __hash__(self):
        return hash(self.block_sizes)

    def __repr__(self):
        return f"FdCStarAlgebra{self.block_sizes}"

    @property
    def is_scalar(self) -> bool:
        return self.block_sizes == (1,)

    def identity(self) -> np.ndarray:
        return eye(self.matrix_size)

    def basis(self) -> np.ndarray:
        """The matrix units as one read-only (dim, K, K) stack, built once."""
        if self._basis is None:
            k = self.matrix_size
            check_bytes(ENTRY_BYTES * self.dim * k * k, f"the {self.dim} matrix units of size {k}")
            units = np.zeros((self.dim, k, k), dtype=np.complex128)
            units[np.arange(self.dim), self._unit_rows, self._unit_cols] = 1.0
            units.setflags(write=False)
            self._basis = units
        return self._basis

    def _elements(self, a) -> np.ndarray:
        """An element or a stack (..., K, K) of elements as a finite
        complex array."""
        a = np.asarray(a, dtype=np.complex128)
        if a.ndim < 2:
            a = as_matrix(a)
        k = self.matrix_size
        if a.shape[-2:] != (k, k):
            raise DimensionMismatch(f"element shape {a.shape[-2:]} != ({k}, {k})")
        if a.size and not np.all(np.isfinite(a)):
            raise DomainError("algebra element has non-finite entries")
        return a

    def coords(self, a) -> np.ndarray:
        """Coordinates in the matrix-unit basis of an element, or of each
        element of a stack: shape (..., dim).  Contiguous, so a stacked
        product with it runs the same BLAS kernel per element as a single
        one."""
        a = self._elements(a)
        return np.ascontiguousarray(a[..., self._unit_rows, self._unit_cols])

    def central_projection(self, i: int) -> np.ndarray:
        lo, hi = self._block_ranges[i]
        z = np.zeros((self.matrix_size, self.matrix_size), dtype=np.complex128)
        z[lo:hi, lo:hi] = np.eye(hi - lo)
        return z

    def block(self, a, i: int) -> np.ndarray:
        lo, hi = self._block_ranges[i]
        return as_matrix(a)[lo:hi, lo:hi]


SCALARS = FdCStarAlgebra([1])


class StarRepresentation:
    """Unital *-representation sigma(a) = (+)_i a_i (x) I_{m_i} on C^{H_dim}.

    The block structure (multiplicity per algebra block) pins the
    representation up to nothing: the matrix form is canonical.
    Nondegeneracy sigma(1) = I holds structurally.
    """

    def __init__(self, algebra: FdCStarAlgebra, multiplicities):
        mults = tuple(int(m) for m in multiplicities)
        if len(mults) != len(algebra.block_sizes) or any(m < 0 for m in mults):
            raise DimensionMismatch("need one nonnegative multiplicity per algebra block")
        self.algebra = algebra
        self.multiplicities = mults
        self.h_dim = sum(k * m for k, m in zip(algebra.block_sizes, mults))
        check_bytes(ENTRY_BYTES * self.h_dim**2, f"sigma(a) on H of dimension {self.h_dim}")

    def __eq__(self, other):
        return (
            isinstance(other, StarRepresentation)
            and self.algebra == other.algebra
            and self.multiplicities == other.multiplicities
        )

    def __repr__(self):
        return f"StarRepresentation({self.algebra!r}, mult={self.multiplicities})"

    def apply(self, a) -> np.ndarray:
        """sigma(a) for an element a, or for each element of a stack
        (..., K, K): shape (..., H_dim, H_dim).  Each block a_i (x) I_m is
        ``numerics.kron_eye``, the multiply np.kron does, so the result is
        np.kron's bit for bit."""
        a = self.algebra._elements(a)
        lead = a.shape[:-2]
        h = self.h_dim
        check_bytes(ENTRY_BYTES * math.prod(lead) * h * h, f"sigma of {math.prod(lead)} elements on H of dimension {h}")
        out = np.zeros(lead + (h, h), dtype=np.complex128)
        at = 0
        for (lo, hi), m in zip(self.algebra._block_ranges, self.multiplicities):
            n = (hi - lo) * m
            if n:
                out[..., at : at + n, at : at + n] = kron_eye(a[..., lo:hi, lo:hi], m)
            at += n
        return out


def _read_only(a) -> np.ndarray:
    """A read-only complex copy."""
    out = np.array(a, dtype=np.complex128)
    out.setflags(write=False)
    return out


class FdCorrespondence:
    """C*-correspondence over a finite-dimensional C*-algebra.

    Structure data on a module basis xi_1..xi_N, for the matrix units
    u_t = algebra.basis()[t]:
      gram[a, b]          = <xi_a, xi_b>  in A   (shape (N, N, K, K))
      left_action[t]      = matrix of phi(u_t) on module coordinates
      right_action[t]     = matrix of xi -> xi . u_t

    The module inner product is conjugate-linear in the first slot.

    Immutable: the structure arrays are read-only copies, which is what
    lets the tensor memos below live on the object and the constructors
    share one object per structure for the life of the process.
    """

    def __init__(self, algebra: FdCStarAlgebra, gram, left_action, right_action):
        self.algebra = algebra
        self.gram = _read_only(gram)
        self.left_action = _read_only(left_action)
        self.right_action = _read_only(right_action)
        # E (x) F per right factor F; the key is weak, so the memo forms no
        # reference cycle even for F = E and drops E (x) F when F dies
        self._tensor_memo = weakref.WeakKeyDictionary()
        self._space_memo: dict = {}
        n = self.gram.shape[0]
        k = algebra.matrix_size
        if self.gram.shape != (n, n, k, k):
            raise DimensionMismatch(f"gram must have shape (N, N, {k}, {k})")
        if self.left_action.shape != (algebra.dim, n, n):
            raise DimensionMismatch("left_action must be (dim A, N, N)")
        if self.right_action.shape != (algebra.dim, n, n):
            raise DimensionMismatch("right_action must be (dim A, N, N)")
        self.module_dim = n

    def tensor(self, f: "FdCorrespondence") -> "FdCorrespondence":
        """E (x) F, built by ``tensor_product`` once per right factor F."""
        out = self._tensor_memo.get(f)
        if out is None:
            out = self._tensor_memo.setdefault(f, tensor_product(self, f))
        return out

    def space(self, sigma: StarRepresentation, tol: Tolerance) -> "TensorSpace":
        """E (x)_sigma H, built by ``interior_tensor`` once per sigma and
        tolerance.  The space refers back to E through a weak proxy, so
        the memo forms no reference cycle and dies with E."""
        key = (sigma.algebra, sigma.multiplicities, tol)
        out = self._space_memo.get(key)
        if out is None:
            out = self._space_memo.setdefault(key, interior_tensor(weakref.proxy(self), sigma, tol))
        return out

    def left(self, a) -> np.ndarray:
        """Matrix of phi(a) on module coordinates, for an element or each
        element of a stack (..., K, K): one stacked (1, dim A) x (dim A, N^2)
        product per element."""
        c = self.algebra.coords(a)
        lead, n = c.shape[:-1], self.module_dim
        check_bytes(ENTRY_BYTES * math.prod(lead) * n * n, f"phi of {math.prod(lead)} elements on module dimension {n}")
        out = c[..., None, :] @ self.left_action.reshape(self.algebra.dim, n * n)
        return out.reshape(lead + (n, n))

    def gram_as_block_matrix(self) -> np.ndarray:
        """The (N*K) x (N*K) scalar matrix [ <xi_a, xi_b> ]_{a,b}."""
        n, k = self.module_dim, self.algebra.matrix_size
        return self.gram.transpose(0, 2, 1, 3).reshape(n * k, n * k)

    def validate(self, tol: Tolerance):
        """Check the Hilbert-bimodule axioms on the structure data."""
        n = self.module_dim
        if n == 0:
            return self  # no module vectors: every axiom holds vacuously
        scale = max(1.0, float(np.abs(self.gram).max(initial=0.0)))
        # Hermitian A-valued Gram
        flip = np.conj(self.gram.transpose(1, 0, 3, 2))
        if not residual_holds(np.abs(self.gram - flip).max(initial=0.0), scale, tol):
            raise InvalidCorrespondence("gram is not Hermitian as an A-valued matrix")
        # positivity of the scalar block matrix
        big = self.gram_as_block_matrix()
        if big.size:
            w = _eigh(big, vectors=False)
            if w.size and materially_negative(w[0], float(w[-1]), tol):
                raise InvalidCorrespondence(
                    f"gram block matrix is not positive semidefinite: eigenvalues {w[0]:.3e} to {w[-1]:.3e}"
                )
        basis = self.algebra.basis()
        # right compatibility  <xi_a, xi_b . c> = <xi_a, xi_b> c
        for t, c in enumerate(basis):
            lhs = np.einsum("xb,axij->abij", self.right_action[t], self.gram)
            rhs = np.einsum("abij,jk->abik", self.gram, c)
            if not residual_holds(np.abs(lhs - rhs).max(initial=0.0), scale, tol):
                raise InvalidCorrespondence(f"right action incompatible with gram (basis {t})")
        # phi unital
        if not identity_holds(self.left(self.algebra.identity()) - eye(n), lambda: 1.0, tol):  # ||I|| = 1
            raise InvalidCorrespondence("left action is not unital")
        # phi multiplicative and adjointable w.r.t. the gram
        for s, a in enumerate(basis):
            for t, b in enumerate(basis):
                lhs = self.left_action[s] @ self.left_action[t]
                if not identity_holds(lhs - self.left(a @ b), lambda: opnorm(lhs), tol):
                    raise InvalidCorrespondence("left action is not multiplicative")
            la = self.left_action[s]
            lstar = self.left(herm(a))
            lhs = np.einsum("xp,xqij->pqij", np.conj(la), self.gram)
            rhs = np.einsum("yq,pyij->pqij", lstar, self.gram)
            if not residual_holds(np.abs(lhs - rhs).max(initial=0.0), scale, tol):
                raise InvalidCorrespondence("left action is not adjointable w.r.t. the gram")
        return self

    def is_full(self, tol: Tolerance) -> bool:
        """True iff the inner products <xi_a, xi_b> span the whole algebra."""
        rows = self.algebra.coords(self.gram).reshape(-1, self.algebra.dim)
        if rows.size == 0:
            return self.algebra.dim == 0
        s = _svd(rows, False, compute_uv=False)
        cut = rank_threshold(s, rows.shape, tol)
        return int(np.sum(s > cut)) == self.algebra.dim


# One correspondence per constructor argument tuple, shared by the whole
# process and never dropped (see the module docstring).  Each constructor
# validates first, so no bad key is stored, and fills the table with
# ``setdefault``, so threads that race on a cold key get one object.
_CONSTRUCTED: dict = {}


def _index(value, what: str, stop: int | None = None) -> int:
    """value as an int in [0, stop), refused unless an integer (no bool or
    float)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DimensionMismatch(f"{what} must be an integer, got {value!r}")
    if value < 0 or (stop is not None and value >= stop):
        bound = "nonnegative" if stop is None else f"in [0, {stop})"
        raise DimensionMismatch(f"{what} must be {bound}, got {value!r}")
    return int(value)


def scalar_correspondence(n: int) -> FdCorrespondence:
    """E = C^n with orthonormal basis over the scalar algebra; one shared
    object per n."""
    key = ("scalar", _index(n, "module dimension"))
    if key in _CONSTRUCTED:
        return _CONSTRUCTED[key]
    n = key[1]
    gram = np.eye(n, dtype=np.complex128).reshape(n, n, 1, 1)
    action = np.eye(n, dtype=np.complex128).reshape(1, n, n)
    return _CONSTRUCTED.setdefault(key, FdCorrespondence(SCALARS, gram, action, action.copy()))


def algebra_correspondence(algebra: FdCStarAlgebra) -> FdCorrespondence:
    """The algebra as the trivial correspondence over itself, <u, v> = u* v;
    one shared object per algebra."""
    key = ("algebra", algebra)
    if key in _CONSTRUCTED:
        return _CONSTRUCTED[key]
    basis = algebra.basis()
    n = algebra.dim
    k = algebra.matrix_size
    gram = np.zeros((n, n, k, k), dtype=np.complex128)
    left = np.zeros((n, n, n), dtype=np.complex128)
    right = np.zeros((n, n, n), dtype=np.complex128)
    for a, u in enumerate(basis):
        for b, v in enumerate(basis):
            gram[a, b] = herm(u) @ v
    for t, c in enumerate(basis):
        for b, u in enumerate(basis):
            left[t, :, b] = algebra.coords(c @ u)
            right[t, :, b] = algebra.coords(u @ c)
    return _CONSTRUCTED.setdefault(key, FdCorrespondence(algebra, gram, left, right))


def diagonal_correspondence(algebra: FdCStarAlgebra, left_tags, right_tags) -> FdCorrespondence:
    """Correspondence with diagonal structure over a multi-block algebra;
    one shared object per (algebra, left_tags, right_tags).

    Basis vector xi_a carries <xi_a, xi_a> = central unit of block
    right_tags[a] and left action phi(a)xi = a_{left_tags[a]} . xi
    (scalar multiplication by the (0,0) entry of the tagged block; the
    tagged blocks must be 1x1).  Each tag must be a block index.
    """
    blocks = len(algebra.block_sizes)
    left_tags = tuple(_index(tag, "block tag", blocks) for tag in left_tags)
    right_tags = tuple(_index(tag, "block tag", blocks) for tag in right_tags)
    n = len(left_tags)
    if len(right_tags) != n:
        raise DimensionMismatch("left_tags and right_tags must have equal length")
    for tag in left_tags + right_tags:
        if algebra.block_sizes[tag] != 1:
            raise InvalidCorrespondence("diagonal correspondences need 1x1 tagged blocks")
    key = ("diagonal", algebra, left_tags, right_tags)
    if key in _CONSTRUCTED:
        return _CONSTRUCTED[key]
    k = algebra.matrix_size
    gram = np.zeros((n, n, k, k), dtype=np.complex128)
    left = np.zeros((algebra.dim, n, n), dtype=np.complex128)
    right = np.zeros((algebra.dim, n, n), dtype=np.complex128)
    for a in range(n):
        gram[a, a] = algebra.central_projection(right_tags[a])
    basis = algebra.basis()
    for t, u in enumerate(basis):
        for a in range(n):
            left[t, a, a] = algebra.block(u, left_tags[a])[0, 0]
            right[t, a, a] = algebra.block(u, right_tags[a])[0, 0]
    return _CONSTRUCTED.setdefault(key, FdCorrespondence(algebra, gram, left, right))


def tensor_product(e: FdCorrespondence, f: FdCorrespondence) -> FdCorrespondence:
    """Tensor product of correspondences over the same algebra.

    Gram: <xi (x) eta, xi' (x) eta'> = <eta, phi(<xi, xi'>) eta'>; the left
    action acts on the first factor, the right action on the last.  The
    N_E^2 Gram entries go through phi_F in one stacked product and through
    F's Gram in one contraction, and each action stack is one kron
    broadcast; every entry equals the per-entry evaluation bit for bit
    when dim A >= 2 (see tests/test_correspondence.py).
    """
    if e.algebra != f.algebra:
        raise DimensionMismatch("tensor product requires a common coefficient algebra")
    ne, nf = e.module_dim, f.module_dim
    k = e.algebra.matrix_size
    check_bytes(ENTRY_BYTES * (ne * nf * k) ** 2, f"the tensor product Gram of module dimension {ne * nf}")
    acted = f.left(e.gram)  # phi_F(<xi_a, xi_b>), (N_E, N_E, N_F, N_F)
    gram = np.einsum("cxij,abxd->acbdij", f.gram, acted).reshape(ne * nf, ne * nf, k, k)
    left = kron_eye(e.left_action, nf)
    right = eye_kron(ne, f.right_action)
    return FdCorrespondence(e.algebra, gram, left, right)


def tensor_power(e: FdCorrespondence, m: int) -> FdCorrespondence:
    """m-fold tensor power; m = 0 is the algebra as the trivial correspondence."""
    if m < 0:
        raise DimensionMismatch("tensor power needs m >= 0")
    if m == 0:
        return algebra_correspondence(e.algebra)
    out = e
    for _ in range(m - 1):
        out = out.tensor(e)
    return out


# ---------------------------------------------------------------------------
# Interior tensor product
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TensorSpace:
    """Hilbert space E (x)_sigma H in an orthonormal coordinate system.

    ``embed`` maps formal vectors (module basis (x) H basis, length
    N * H_dim) to coordinates; ``lift`` is its Moore-Penrose section.
    Both are read-only.  ``None`` for both means the coordinate system IS
    the formal basis (scalar algebra with orthonormal module basis), in
    which case no (N*H_dim)^2 matrix is ever materialized.

    ``corr`` is None for the plain coefficient space H itself; a space
    memoized by ``FdCorrespondence.space`` holds a weak proxy of its
    correspondence.
    """

    corr: FdCorrespondence | None
    h_dim: int
    dim: int
    embed: np.ndarray | None
    lift: np.ndarray | None
    action_source: object

    @property
    def module_dim(self) -> int:
        return 1 if self.corr is None else self.corr.module_dim

    @property
    def formal_dim(self) -> int:
        return self.module_dim * self.h_dim

    def apply_embed(self, v: np.ndarray) -> np.ndarray:
        return v if self.embed is None else self.embed @ v

    def apply_lift(self, v: np.ndarray) -> np.ndarray:
        return v if self.lift is None else self.lift @ v

    def coords_of_simple(self, xi_coords, h) -> np.ndarray:
        """Coordinates of the simple tensor xi (x) h."""
        formal = np.kron(np.asarray(xi_coords, dtype=np.complex128), np.asarray(h, dtype=np.complex128))
        return self.apply_embed(formal)

    def induced_action(self, a) -> np.ndarray:
        """The operator phi(a) (x) I_H compressed to the coordinates (or
        sigma(a) itself for the plain space), for an element or each
        element of a stack (..., K, K); callers pass the whole basis."""
        if self.corr is None:
            return self.action_source.apply(a)
        phi = self.corr.left(a)
        count, n = math.prod(phi.shape[:-2]), self.formal_dim
        check_bytes(ENTRY_BYTES * count * n * n, f"the induced actions of {count} elements on formal dimension {n}")
        formal = kron_eye(phi, self.h_dim)
        if self.embed is None:
            return formal
        return self.embed @ formal @ self.lift

    @functools.cached_property
    def _basis_actions(self) -> np.ndarray:
        """``induced_action`` of every matrix unit, one read-only (dim A,
        dim, dim) stack built on first use and kept with the immutable
        space (threads that race build equal stacks); read only by this
        module's covariance and intertwining checks."""
        actions = self.induced_action(self.action_source.algebra.basis())
        actions.setflags(write=False)
        return actions


def plain_space(sigma: StarRepresentation) -> TensorSpace:
    """H itself, viewed as the 0-fold tensor space."""
    return TensorSpace(corr=None, h_dim=sigma.h_dim, dim=sigma.h_dim, embed=None, lift=None, action_source=sigma)


def _gram_is_standard(e: FdCorrespondence) -> bool:
    if not e.algebra.is_scalar:
        return False
    n = e.module_dim
    expected = np.eye(n, dtype=np.complex128).reshape(n, n, 1, 1)
    return bool(np.array_equal(e.gram, expected))


def interior_tensor(
    e: FdCorrespondence,
    sigma: StarRepresentation,
    tol: Tolerance,
) -> TensorSpace:
    """Build E (x)_sigma H: put the semi-inner product
    <xi (x) h, eta (x) g> = <h, sigma(<xi, eta>) g> on the formal tensor
    space, quotient by its null vectors, and return an orthonormal
    coordinatization.

    The quotient basis is the Gram eigenbasis restricted to nonzero
    eigenvalues, scaled so the coordinates are orthonormal for the
    quotient inner product.  When the scalar Gram is exactly the identity
    (scalar algebra, orthonormal module basis) the coordinate map is the
    identity and is represented implicitly.
    """
    if e.algebra != sigma.algebra:
        raise DimensionMismatch("correspondence and representation algebras differ")
    d = sigma.h_dim
    n = e.module_dim
    if _gram_is_standard(e):
        return TensorSpace(corr=e, h_dim=d, dim=n * d, embed=None, lift=None, action_source=sigma)
    if n * d == 0:
        empty = _read_only(np.zeros((0, 0)))
        return TensorSpace(corr=e, h_dim=d, dim=0, embed=empty, lift=empty, action_source=sigma)
    check_bytes(ENTRY_BYTES * (n * d) ** 2, f"the interior tensor Gram of formal dimension {n * d}")
    blocks = sigma.apply(e.gram)  # sigma(<xi_a, xi_b>), (N, N, d, d)
    big = blocks.transpose(0, 2, 1, 3).reshape(n * d, n * d)
    w, v = _eigh(big, vectors=True)
    if materially_negative(w[0], float(w[-1]), tol):
        raise InvalidCorrespondence(
            f"interior tensor gram is not positive semidefinite: eigenvalues {w[0]:.3e} to {w[-1]:.3e}"
        )
    keep = w > rank_threshold(w[::-1], big.shape, tol)
    lam = w[keep]
    basis = v[:, keep]
    embed = _read_only(np.sqrt(lam)[:, None] * herm(basis))
    lift = _read_only(basis / np.sqrt(lam)[None, :])
    return TensorSpace(corr=e, h_dim=d, dim=int(lam.size), embed=embed, lift=lift, action_source=sigma)


# ---------------------------------------------------------------------------
# Identity amplification
# ---------------------------------------------------------------------------


def _intertwining_gaps(x: np.ndarray, dom: TensorSpace, cod: TensorSpace) -> np.ndarray:
    """X A_dom(u) - A_cod(u) X over the matrix units u, as one (dim A,
    cod.dim, dom.dim) stack read from the spaces' memoized basis actions."""
    # each product and the stack hold dim A * cod.dim * dom.dim entries, no
    # more than the larger basis-action stack, whose bytes were checked
    return x @ dom._basis_actions - cod._basis_actions @ x


def intertwines(x: np.ndarray, dom: TensorSpace, cod: TensorSpace, tol: Tolerance) -> bool:
    """X : dom -> cod intertwines the induced actions: each gap
    X A_dom(u) - A_cod(u) X holds as an identity at the one scale ||X||,
    computed at most once.  The only intertwining decision of the package.
    True on the scalar algebra and for an empty X, before any gap is formed."""
    if dom.action_source.algebra.is_scalar or x.size == 0:
        return True
    scale = functools.cache(lambda: opnorm(x))
    return all(identity_holds(gap, scale, tol) for gap in _intertwining_gaps(x, dom, cod))


def intertwining_residual(x: np.ndarray, dom: TensorSpace, cod: TensorSpace) -> float:
    """max over the matrix units u of ||X dom.induced_action(u) - cod.induced_action(u) X||
    for X : dom -> cod; 0.0 on the scalar algebra and for an empty X."""
    if dom.action_source.algebra.is_scalar or x.size == 0:
        return 0.0
    return max(opnorm(gap) for gap in _intertwining_gaps(x, dom, cod))


def bimodule_covariant(corr: FdCorrespondence, h: TensorSpace, v_on_basis, tol: Tolerance) -> bool:
    """V(a xi c) = sigma(a) V(xi) sigma(c) for V given on the basis of a
    nonzero module over a non-scalar algebra (on a zero module or the
    scalar algebra every linear V is covariant, and ``covrep`` does not
    call this) and sigma the action of the plain space ``h``: for each u_a
    in turn the gaps over every (u_c, xi_b) are two stacked contractions,
    each decided as an identity at the scale max_b ||V(xi_b)||."""
    v = np.array(v_on_basis)  # (N, H, H)
    # one u_a at a time, the largest arrays are the (u_c, xi_b) gap stack and
    # the (u_c) stack of L_a R_c; neither is larger than the induced actions
    # of E (x)_sigma H, dim A * (N H)^2 entries, that the lift check forms
    check_bytes(ENTRY_BYTES * corr.algebra.dim * len(v) * max(v[0].size, len(v)), "the covariance gaps")
    # u_a xi_b u_c in module coordinates is column b of left_action[a] right_action[c]
    stacks = (
        np.einsum("cyb,yij->cbij", la @ corr.right_action, v) - (sa @ v)[None] @ h._basis_actions[:, None]
        for la, sa in zip(corr.left_action, h._basis_actions)
    )
    scale = functools.cache(lambda: max(opnorm(vb) for vb in v))
    return all(identity_holds(gap, scale, tol) for stack in stacks for gaps in stack for gap in gaps)


def amplification(
    x: np.ndarray, dom: TensorSpace, cod: TensorSpace, big_dom: TensorSpace, big_cod: TensorSpace
) -> Amplification:
    """I_F (x) X as ``amplify`` builds it, with no intertwining check: for
    an X already decided to intertwine ``dom`` and ``cod`` (a lift checked
    when its representation was built; see ``covrep``)."""
    # dim F = dim(F (x) D) / dim D, read off a side whose module is nonzero
    nf = max(big_dom.module_dim // max(dom.module_dim, 1), big_cod.module_dim // max(cod.module_dim, 1))
    # the report bits depend on this order: (lift_cod X) embed_dom
    y = cod.apply_lift(x)
    if dom.embed is not None:
        y = y @ dom.embed
    return Amplification(y, nf, big_cod.embed, big_dom.lift)


def amplify(
    x: np.ndarray,
    dom: TensorSpace,
    cod: TensorSpace,
    big_dom: TensorSpace,
    big_cod: TensorSpace,
    tol: Tolerance,
) -> Amplification:
    """I_F (x) X under F (x) (D (x) H) ~ (F (x) D) (x) H, as an operator
    ``big_cod.embed (I_F (x) lift_cod X embed_dom) big_dom.lift`` that is
    applied block by block (``numerics.Amplification``; its ``to_dense``
    builds the matrix).

    X must map ``dom`` to ``cod`` (either may be a tensor space or the
    plain space H) and intertwine the induced algebra actions
    (``intertwines``); otherwise the amplification is ill-defined and
    IntertwinerError is raised.

    ``big_dom`` and ``big_cod`` are the interior tensor products F (x) dom
    and F (x) cod, read by the caller from the correspondence memos; this
    function allocates no tensor space.
    """
    x = _as_operator(x)  # an index form (identity coordinates) stays one
    if x.shape != (cod.dim, dom.dim):
        raise DimensionMismatch(f"operator shape {x.shape} != ({cod.dim}, {dom.dim})")
    if not intertwines(x, dom, cod, tol):
        residual = intertwining_residual(x, dom, cod)
        raise IntertwinerError(f"operator does not intertwine the algebra actions (residual {residual:.3e})")
    return amplification(x, dom, cod, big_dom, big_cod)
