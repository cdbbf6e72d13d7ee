"""Dense complex linear algebra with an explicit tolerance discipline.

Matrices are plain ``numpy.ndarray`` values of dtype complex128.  Every
thresholded verdict of the package is decided in this module, under a
single :class:`Tolerance` value that every function takes from its
caller; no other module reads a field of it to decide.  One seam per
kind of decision:

* rank cut -- :func:`rank_threshold` (``_SplitSVD.cut``): a singular
  value sigma counts as zero iff
  ``sigma <= rank_rel * max(sigma_max, scale_floor) * max(rows, cols)``;
* identity -- :func:`identity_holds` on the gap A - B, or
  :func:`residual_holds` on a residual already computed: accepted iff
  ``||A - B|| <= eq_rel * max(1, scale)``;
* inclusion -- :func:`is_subset`, or :func:`defect_within` on a defect
  already computed: ``S1 <= S2`` iff ``||(I - P2) F1|| <= incl_abs`` for
  an orthonormal frame F1 of S1;
* negativity floor -- :func:`materially_negative`: a matrix meant to be
  positive semidefinite is refused iff its lowest eigenvalue is below
  ``-10 * eq_rel * max(1, scale)``;
* contraction -- :func:`is_contraction`: ``||T|| <= 1 + eq_rel``;
* partial isometry -- :func:`is_partial_isometry` and
  :func:`partial_isometry_residual`: ``||T T* T - T|| <= eq_rel * ||T||``,
  or ``||T|| <= rank_rel``.

The seams on values already computed (``residual_holds``,
``defect_within``, ``materially_negative``) accept no NaN and no cutoff
that overflowed to infinity; the seams on matrices take only finite
ones (:func:`as_matrix`).  The norms are spectral unless a caller states
otherwise.

Every dense array that grows with a tensor power (Grams, lifts, the
products an :class:`Amplification` forms and its ``to_dense``, full
kernel frames, sigma(a) and stacks of it and of the induced actions) is
checked against one byte budget, ``DENSE_BYTES``, from its shape and
before it is allocated: the site that builds it calls :func:`check_bytes`.
An amplification I (x) X is an operator applied block by block, so no
caller builds it unless it takes a kernel or span of the whole map.

:func:`classify_operator` is the one classification of an operator: the
contraction and isometry verdicts plus the six-way partial-isometry
diagnostic, whose frames, rank and pseudoinverse come from one thin SVD.

A verdict that compares a spectral norm with a cutoff and discards the
norm goes through :func:`norm_within`, which screens with the Frobenius
bounds ``||A||_F / sqrt(min(rows, cols)) <= ||A||_2 <= ||A||_F``.  Both
bounds are widened by the relative slack ``NORM_SLACK`` (1e-6), and the
exact ``opnorm`` is taken only when the cutoff falls inside the widened
band.  The error argument: the computed Frobenius norm is the square
root of a dot product of n <= 2 * DENSE_BYTES / ENTRY_BYTES real terms,
so its relative error is at most n * 2**-53 / 2, below 1e-8 for any
array the byte budget admits and below 1e-9 for the largest array a
claim or the benchmark builds (20 MB); LAPACK's largest singular value
is backward stable, with a relative error of at most rows * cols *
2**-53, below 1e-8 for any array the budget admits.  Outside the band
the screened verdict is therefore the exact one.  A Frobenius norm
outside [1e-140, 1e140], where the sum of squares could under- or
overflow, is not screened.  No reported value comes from the screen:
every residual, norm and defect that a report or the CLI prints is an
exact ``opnorm``.

Every factorization (:func:`opnorm`, :func:`pseudoinverse`, the range
and kernel frames, and the frames and pseudoinverse of
:func:`classify_operator`) of an array of at least ``_DEFLATE_MIN_SIZE``
entries first splits off its exactly-zero rows and columns and its
isolated entries, each the only nonzero of its row and of its column
(:func:`_deflate`, :class:`_SplitSVD`).  After permuting rows and
columns the array is diag(v_1, ..., v_k) (+) core (+) 0, so its SVD is
the union of the parts' SVDs: an isolated entry v at (i, j) is the
singular value |v| with left vector e_i and right vector conj(v)/|v| e_j,
its pseudoinverse entry at (j, i) is 1/v, zero columns are kernel
vectors, and LAPACK factors only the core.  The singular values are
merged in descending order and every rank cut stays the one of the
original shape, rank_rel * max(largest sigma overall, scale_floor) *
max(shape).  The error argument: |v| is within one ulp of the exact
modulus (exact for real v) and 1/v within a few ulps (correctly rounded
for real v), where a dense SVD is within (rows + cols) * 2**-53 * ||A||;
the isolated directions are exact unit vectors; and LAPACK is backward
stable on the core, with an error bound in the core's (smaller)
dimensions and norm.  So a lift power, h x N**m h of rank at most h, is
factored at its rank and not its width, and a monomial matrix (at most
one nonzero per row and per column: a weighted shift's lift, its powers
and the frames they span) is factored with no LAPACK call at all.  Unit
vectors stay unit vectors under products of monomial matrices, since
each entry of such a product has at most one nonzero term, so the next
step splits again.

The products of the partial-isometry verdict, and the gather of an
:class:`Amplification` with a monomial block applied from the right, drop
only the exactly-zero rows and columns (:func:`_live_lines`).  This is
exact: it changes no norm or defect T T* T - T (zero wherever T has a
zero row or column).  A floating-point product only loses exact-zero
terms, so where each entry is a sum of at most one nonzero term, as in
every product of weighted-shift matrices, the product is the dense one
bit for bit, and the shift verdicts and power-report residuals with it;
elsewhere it may round in another order, within the dense product's own
error bound.  The Frobenius screen's lower bound
``||A||_F / sqrt(min(shape))`` stays valid for the compressed shape.
Below the gate nothing is scanned and the dense path runs as it is: on a
2-core x86 host with one BLAS thread the zero-line scan costs about 7 us
at 72 entries (11% of a thin SVD), and the split's scan about 45 us at
4,096 dense entries (3%).

A product whose right factor has at most one nonzero per column is a
gather (:func:`matmul`): when every column of B holds at most one
nonzero, v_j in row r_j, A B is A[:, r] * v; otherwise it is
``np.matmul``.  Only the right factor is ever scanned.  The sites: both
products of the inclusion gap, the triple product of the
partial-isometry verdict and residual, T T* in the range-invariance
condition, the products of :func:`classify_operator`, and an
:class:`Amplification` applied to a frame with such columns or with such
a block.  The same gate applies: only an operand of at least
_DEFLATE_MIN_SIZE entries is scanned, once (``_nonzero_lines``, the scan
of the deflation; an ``Operand`` and its adjoint share it), so below the
gate every product is the dense one as before.  The scan counts the
nonzeros of each line only when there are at most max(rows, cols) of
them: an array with more has a column with two.  The error argument: each
entry of such a product has at most one nonzero term.  For real-valued
entries (complex128 with zero imaginary parts: every shift, its lift,
powers and frames) a product of two entries is correctly rounded and
the zero terms add exact zeros, so the gather equals the GEMM bit for
bit, up to the sign of an exact zero.  For complex entries the gather is
one rounded complex multiply per entry, within sqrt(5) * 2**-53 *
|a_ir| |v_j| of the exact product; BLAS's one-term sum is within the
same bound but may round differently (its complex kernel need not
multiply as numpy does), so the two can differ by up to twice that.

All values are immutable after construction; nothing here mutates its
inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DimensionMismatch, DomainError, NumericFailure, ResourceLimit

# Bytes one dense array may take.  The largest array a claim or the
# benchmark builds is 20 MB (the lift power T_3 of the n = 3, M = 216
# shift, 217 x 5,859); 2**30 admits the 61 MB T_4 of the power report on
# that shift at n_max = 4, whose amplifications are applied block by block.
DENSE_BYTES = 2**30

# Bytes per complex128 entry.
ENTRY_BYTES = 16


def check_bytes(nbytes: int, what: str) -> None:
    """Refuse an array of ``nbytes`` before it is allocated.  Reads
    ``DENSE_BYTES`` at call time."""
    if nbytes > DENSE_BYTES:
        raise ResourceLimit(f"{what} needs {nbytes} bytes, over the budget {DENSE_BYTES}")


class Record:
    """Base of the frozen dataclasses whose JSON is their fields, in order:
    lists and tuples become lists, and dicts and nested records are
    converted entry by entry."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}


def _plain(value):
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


@dataclass(frozen=True)
class Tolerance(Record):
    """Numeric policy shared by all decision procedures.  Every function
    that decides takes it from its caller; these field defaults are the
    one statement of the default policy, ``DEFAULT_TOL``."""

    rank_rel: float = 1e-10
    eq_rel: float = 1e-8
    incl_abs: float = 1e-8

    def __post_init__(self):
        for name in ("rank_rel", "eq_rel", "incl_abs"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise DomainError(f"tolerance {name} must be finite and strictly positive")
        if not self.rank_rel < 1.0:
            raise DomainError("rank_rel must be < 1")


DEFAULT_TOL = Tolerance()


def as_matrix(m) -> np.ndarray:
    """Coerce to a finite 2-d complex128 array."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got ndim={a.ndim}")
    # the sum is finite unless an entry is not or the sum overflows;
    # only then is every entry tested
    if a.size and not np.isfinite(a.sum()) and not np.isfinite(a).all():
        raise DomainError("matrix has non-finite entries")
    return a


def herm(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(m.T)


# Entries from which an array is scanned for exactly-zero rows and columns
# and for isolated entries (see the module docstring); below it the scan
# costs more than it saves.
_DEFLATE_MIN_SIZE = 4096


def _nonzero_lines(a: np.ndarray) -> tuple | None:
    """(nonzero, row_count, col_count): the mask of the nonzero entries of
    an array of at least _DEFLATE_MIN_SIZE entries and their number in
    each row and in each column, counted only when there are at most
    max(rows, cols) of them (so every monomial array is counted) and None
    otherwise; None below the gate, where nothing is scanned.  The one
    scan behind _live_lines, _deflate and Operand."""
    if a.size < _DEFLATE_MIN_SIZE:
        return None
    nonzero = a != 0
    if np.count_nonzero(nonzero) > max(a.shape):
        return nonzero, None, None
    i, j = _coordinates(nonzero)
    return nonzero, np.bincount(i, minlength=a.shape[0]), np.bincount(j, minlength=a.shape[1])


def _coordinates(nonzero: np.ndarray) -> tuple:
    """np.nonzero of a 2-d mask, found on the flattened mask (several
    times faster for a few nonzeros in a large mask)."""
    return np.divmod(np.flatnonzero(nonzero), nonzero.shape[1])


def _live_lines(a: np.ndarray, lines=None) -> tuple:
    """Boolean masks of the rows and of the columns of ``a`` that hold a
    nonzero entry, each None when it would keep every line or when ``a``
    has fewer than _DEFLATE_MIN_SIZE entries; ``lines`` is a's scan when
    it is already taken."""
    lines = _nonzero_lines(a) if lines is None else lines
    if lines is None:
        return None, None
    nonzero, row_count, col_count = lines
    if row_count is None:
        rows, cols = nonzero.any(axis=1), nonzero.any(axis=0)
    else:
        rows, cols = row_count > 0, col_count > 0
    return (None if rows.all() else rows), (None if cols.all() else cols)


def _ix(rows, cols) -> tuple:
    """Index of the submatrix on the kept rows and columns (None keeps all)."""
    if rows is None or cols is None:
        return (slice(None) if rows is None else rows), (slice(None) if cols is None else cols)
    return np.ix_(rows, cols)


_NO_ENTRIES = (np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.complex128))


def _deflate(a: np.ndarray) -> tuple:
    """(core, rows, cols, (i, j, v)): ``a`` without its exactly-zero rows
    and columns and without its isolated entries, the only nonzero of
    their row and of their column (a view of all of ``a`` when nothing is
    dropped); the masks of the core's rows and columns, each None when it
    keeps every line; and the rows, columns and values of the isolated
    entries.  Below _DEFLATE_MIN_SIZE entries ``a`` is not scanned."""
    lines = _nonzero_lines(a)
    if lines is None:
        return a, None, None, _NO_ENTRIES
    nonzero, row_count, col_count = lines
    if row_count is None:
        row_count, col_count = nonzero.sum(axis=1), nonzero.sum(axis=0)
    single = np.flatnonzero(row_count == 1)
    j = nonzero[single].argmax(axis=1)
    alone = col_count[j] == 1
    i, j = single[alone], j[alone]
    rows, cols = row_count > 0, col_count > 0
    rows[i] = False
    cols[j] = False
    rows, cols = (None if rows.all() else rows), (None if cols.all() else cols)
    return a[_ix(rows, cols)], rows, cols, (i, j, a[i, j])


def _scatter(x: np.ndarray, shape, rows, cols) -> np.ndarray:
    """``x`` placed on the given rows and columns of a zero matrix of
    ``shape``; ``x`` itself when both masks are None."""
    if rows is None and cols is None:
        return x
    out = np.zeros(shape, dtype=np.complex128)
    out[_ix(rows, cols)] = x
    return out


class Operand:
    """A factor of :func:`matmul`: a matrix, or its conjugate transpose
    ``Operand(a).H``, which is formed only where a dense product needs it.
    Past _DEFLATE_MIN_SIZE entries the array is scanned once, on
    construction (``_nonzero_lines``), and an operand and its adjoint
    share that scan: the column counts of herm(a) are the row counts of a."""

    __slots__ = ("array", "adjoint", "lines")

    def __init__(self, a: np.ndarray):
        self.array, self.adjoint, self.lines = a, False, _nonzero_lines(a)

    @property
    def H(self) -> "Operand":
        return _operand_of(self.array, not self.adjoint, self.lines)

    def dense(self) -> np.ndarray:
        return herm(self.array) if self.adjoint else self.array

    def live(self) -> "Operand":
        """The matrix without its exactly-zero rows and columns, its scan
        cut from this one's (``_live_lines``); not for an adjoint."""
        if self.lines is None:
            return self
        rows, cols = _live_lines(self.array, self.lines)
        if rows is None and cols is None:
            return self
        nonzero, row_count, col_count = self.lines
        if row_count is not None:
            row_count = row_count if rows is None else row_count[rows]
            col_count = col_count if cols is None else col_count[cols]
        return _operand_of(self.array[_ix(rows, cols)], False, (nonzero[_ix(rows, cols)], row_count, col_count))

    def single_entries(self) -> tuple | None:
        """(index, value) when every column of the operand holds at most
        one nonzero: column l has its nonzero at row index[l] with value
        value[l], and a zero column has index 0 and value 0.  None
        otherwise, below the gate, and for an operand built unscanned."""
        if self.lines is None or self.lines[1] is None:
            return None
        nonzero, row_count, col_count = self.lines
        by_columns = not self.adjoint  # a column of herm(a) is a row of a
        if (col_count if by_columns else row_count).max(initial=0) > 1:
            return None
        i, j = _coordinates(nonzero)
        line, other = (j, i) if by_columns else (i, j)
        index = np.zeros(nonzero.shape[1 if by_columns else 0], dtype=np.intp)
        value = np.zeros(index.size, dtype=np.complex128)
        index[line] = other
        value[line] = np.conj(self.array[i, j]) if self.adjoint else self.array[i, j]
        return index, value

    def columns(self, index: np.ndarray) -> np.ndarray:
        """The operand's columns at ``index``."""
        return herm(self.array[index]) if self.adjoint else self.array[:, index]


def _operand_of(a: np.ndarray, adjoint: bool, lines) -> Operand:
    """An Operand with its scan given, not taken."""
    out = object.__new__(Operand)
    out.array, out.adjoint, out.lines = a, adjoint, lines
    return out


def matmul(a, b) -> np.ndarray:
    """``a @ b`` for matrices or Operands: when every column of b holds at
    most one nonzero, v_j in row r_j, the gather a[:, r] * v (see the
    module docstring), and ``np.matmul`` otherwise.  Only b is scanned,
    and only from _DEFLATE_MIN_SIZE entries; a is never scanned."""
    if type(b) is not Operand:
        b = Operand(b)
    single = b.single_entries()
    if single is not None:
        index, value = single
        out = a.columns(index) if type(a) is Operand else a[:, index]
        out *= value  # the gather is a fresh array
        return out
    return np.matmul(a.dense() if type(a) is Operand else a, b.dense())


def opnorm(m) -> float:
    """Spectral norm; 0.0 for empty matrices."""
    core, _, _, (_, _, v) = _deflate(as_matrix(m))
    top = float(np.abs(v).max(initial=0.0))
    if core.size:
        top = max(top, float(_svd(core, False, compute_uv=False)[0]))
    return top


# Relative slack that widens both Frobenius bounds of norm_within; far
# above the roundoff of the Frobenius sum and of LAPACK's sigma_max.
NORM_SLACK = 1e-6


def _norm_bounds(a: np.ndarray) -> tuple:
    """(lo, hi) around the computed opnorm(a): the Frobenius bounds, each
    widened by NORM_SLACK (see the module docstring); (0.0, 0.0)
    for a zero or empty matrix, and (0.0, inf) when the sum of squares
    may have under- or overflowed."""
    fro = float(np.linalg.norm(a))
    if 1e-140 <= fro <= 1e140:
        return fro * (1.0 - NORM_SLACK) / math.sqrt(min(a.shape)), fro * (1.0 + NORM_SLACK)
    if not a.any():
        return 0.0, 0.0
    return 0.0, math.inf


def norm_within(m, cutoff: float) -> bool:
    """``opnorm(m) <= cutoff``, decided from the Frobenius bounds when the
    cutoff lies outside them and from ``opnorm`` otherwise."""
    a = as_matrix(m)
    lo, hi = _norm_bounds(a)
    if hi <= cutoff:
        return True
    if lo > cutoff:
        return False
    return opnorm(a) <= cutoff


def identity_holds(gap, scale, tol: Tolerance) -> bool:
    """An operator identity whose sides differ by ``gap`` holds:
    ``opnorm(gap) <= eq_rel * max(1.0, scale())``.  The cutoff is at least
    eq_rel, so ``scale`` (a callable, often a norm) is called only when
    ||gap|| > eq_rel."""
    a = as_matrix(gap)
    return norm_within(a, tol.eq_rel) or norm_within(a, tol.eq_rel * max(1.0, scale()))


# The seams below decide on values already computed.  None accepts a NaN
# (``max(scale, 1.0)`` keeps a NaN scale, and every comparison with NaN is
# False), nor a cutoff that overflowed: an infinite scale decides nothing.


def residual_holds(residual: float, scale: float, tol: Tolerance) -> bool:
    """An identity with computed residual holds:
    ``residual <= eq_rel * max(1.0, scale)``."""
    return bool(residual <= tol.eq_rel * max(scale, 1.0) < math.inf)


def defect_within(defect: float, tol: Tolerance) -> bool:
    """A computed inclusion or orthogonality defect is negligible:
    ``defect <= incl_abs``."""
    return bool(defect <= tol.incl_abs)


def materially_negative(lowest: float, scale: float, tol: Tolerance) -> bool:
    """The lowest eigenvalue of a matrix meant to be positive semidefinite
    lies below the roundoff floor ``-10 * eq_rel * max(1.0, scale)``; a
    NaN counts as negative."""
    return not lowest >= -10.0 * tol.eq_rel * max(scale, 1.0) > -math.inf


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.complex128)


# np.kron(a, b) is the broadcast product multiply(a[:, None, :, None],
# b[None, :, None, :]) reshaped; the two helpers below write that same
# multiply, in the same operand order, for a whole stack at once, so each
# matrix of the result equals np.kron bit for bit, signed zeros included.


def kron_eye(a: np.ndarray, m: int) -> np.ndarray:
    """``np.kron(x, I_m)`` for every matrix x of a stack (..., r, c)."""
    r, c = a.shape[-2:]
    return (a[..., :, None, :, None] * np.eye(m)[:, None, :]).reshape(a.shape[:-2] + (r * m, c * m))


def eye_kron(m: int, a: np.ndarray) -> np.ndarray:
    """``np.kron(I_m, x)`` for every matrix x of a stack (..., r, c)."""
    r, c = a.shape[-2:]
    return (np.eye(m)[:, None, :, None] * a[..., None, :, None, :]).reshape(a.shape[:-2] + (m * r, m * c))


class Amplification:
    """The linear map ``left (I_n (x) block) right``, applied block by
    block and never built.

    ``block`` is p x q; ``left`` (rows x n p) and ``right`` (n q x cols)
    are the outer coordinate maps, None for the identity.  ``A @ F`` is
    right, then one stacked product of ``block`` with the n row blocks,
    then left.  ``M @ A`` is left, then one stacked product of the n
    column blocks with ``block``, then right.  A stacked product runs the
    same BLAS kernel per block as a loop of block products, so the two
    equal each other bit for bit.  When the vectors of ``A @ F`` (or the
    columns of ``block`` in ``M @ A``) hold at most one nonzero each, the
    product is a gather instead, as in :func:`matmul`: each column of F
    picks one column of ``block`` and scales it into its row block, and
    each column of ``block`` picks one column of each column block of M,
    skipping the exactly-zero columns (``_live_lines``), whose terms are
    exact zeros.
    Each application checks the bytes of its largest array from shapes
    before allocating it; ``to_dense`` is the only place the matrix is
    built.
    """

    __slots__ = ("block", "n", "left", "right", "shape")
    __array_ufunc__ = None  # ndarray @ A defers to __rmatmul__

    def __init__(self, block: np.ndarray, n: int, left: np.ndarray | None, right: np.ndarray | None):
        self.block, self.n, self.left, self.right = block, n, left, right
        p, q = block.shape
        self.shape = (n * p if left is None else left.shape[0], n * q if right is None else right.shape[1])

    def _check_application(self, count: int) -> None:
        nbytes = ENTRY_BYTES * count * self.n * max(self.block.shape)
        check_bytes(nbytes, f"an amplification applied to {count} vectors")

    def __matmul__(self, f) -> np.ndarray:
        f = np.asarray(f)
        if f.ndim != 2 or f.shape[0] != self.shape[1]:
            raise DimensionMismatch(f"amplification of shape {self.shape} applied to shape {f.shape}")
        k = f.shape[1]
        self._check_application(k)
        p, q = self.block.shape
        g = f if self.right is None else self.right @ f
        single = Operand(g).single_entries()
        if single is None:
            out = np.matmul(self.block, g.reshape(self.n, q, k)).reshape(self.n * p, k)
        else:
            # column c of g is v_c e_(b q + t): its image is v_c times
            # column t of the block, placed in row block b
            at, v = single
            b, t = np.divmod(at, q)
            out = np.zeros((self.n, p, k), dtype=np.complex128)
            columns = self.block[:, t]
            columns *= v
            out[b, :, np.arange(k)] = columns.T
            out = out.reshape(self.n * p, k)
        return out if self.left is None else self.left @ out

    def __rmatmul__(self, m) -> np.ndarray:
        m = np.asarray(m)
        if m.ndim != 2 or m.shape[1] != self.shape[0]:
            raise DimensionMismatch(f"shape {m.shape} applied to an amplification of shape {self.shape}")
        r = m.shape[0]
        self._check_application(r)
        p, q = self.block.shape
        g = m if self.left is None else m @ self.left
        single = Operand(self.block).single_entries()
        if single is not None:
            # column t of the block is w_t e_s: column t of output block b is
            # w_t times column s of input block b, gathered where w_t != 0
            # and that column is live
            s, w = single
            _, live = _live_lines(g)
            live = np.ones(self.n * p, dtype=bool) if live is None else live
            t = np.flatnonzero(w)
            b, at = np.nonzero(live.reshape(self.n, p)[:, s[t]])
            t = t[at]
            out = np.zeros((r, self.n * q), dtype=np.complex128)
            columns = g[:, b * p + s[t]]
            columns *= w[t]
            out[:, b * q + t] = columns
        else:
            blocks = np.matmul(g.reshape(r, self.n, p).transpose(1, 0, 2), self.block)
            out = blocks.transpose(1, 0, 2).reshape(r, self.n * q)
        return out if self.right is None else out @ self.right

    def to_dense(self) -> np.ndarray:
        """The matrix, for the callers that take a kernel or span of the
        whole map; its bytes are checked in formal coordinates first."""
        p, q = self.block.shape
        check_bytes(ENTRY_BYTES * self.n**2 * p * q, "an amplification")
        formal = eye_kron(self.n, self.block)
        if self.right is not None:
            formal = formal @ self.right
        return formal if self.left is None else self.left @ formal


def _svd(m: np.ndarray, full_matrices: bool, compute_uv: bool = True):
    try:
        return np.linalg.svd(m, full_matrices=full_matrices, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NumericFailure(f"SVD did not converge: {exc}", shape=m.shape) from exc


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(M + M*) / 2, formed as M / 2 + M* / 2: the same bits outside the
    subnormal range, and no overflow for entries near the float maximum."""
    return m / 2.0 + herm(m) / 2.0


def _eigh(m: np.ndarray, vectors: bool):
    """``np.linalg.eigh`` of the Hermitian part of ``m``, or ``eigvalsh``
    without ``vectors``."""
    h = _hermitian_part(m)
    try:
        return np.linalg.eigh(h) if vectors else np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericFailure(f"eigh did not converge: {exc}", shape=m.shape) from exc


def rank_threshold(s: np.ndarray, shape, tol: Tolerance, scale_floor: float = 0.0) -> float:
    """Cutoff below which singular values are treated as zero.

    ``scale_floor`` guards products that should vanish exactly but carry
    roundoff dust: with a pure relative cutoff, a matrix of norm 1e-16
    has "rank" relative to its own dust.  Subspace-producing operations
    pass 1.0 (every operator this package decides on has norm O(1));
    inverse-producing operations keep the pure relative rule.
    """
    if s.size == 0:
        return 0.0
    return tol.rank_rel * max(float(s[0]), scale_floor) * max(shape)


class _SplitSVD:
    """The thin (or full) SVD of ``a`` with its zero lines and isolated
    entries split off (:func:`_deflate`): an isolated entry v at (i, j) is
    the singular value |v| with left vector e_i and right vector
    conj(v)/|v| e_j, and LAPACK factors only the core (u, core_s, vh).
    ``s`` holds every singular value in descending order; ``order[t]`` is
    where ``s[t]`` came from, isolated entry p < k or core value p - k, for
    the k isolated entries (None when there are none: ``s`` is the
    core's)."""

    def __init__(self, a: np.ndarray, full_matrices: bool = False):
        self.shape = a.shape
        core, self.rows, self.cols, (self.i, self.j, self.v) = _deflate(a)
        if core.size:
            self.u, self.core_s, self.vh = _svd(core, full_matrices)
        else:
            p, q = core.shape
            self.u, self.core_s = np.zeros((p, 0), dtype=np.complex128), np.zeros(0)
            self.vh = eye(q) if full_matrices else np.zeros((0, q), dtype=np.complex128)
        self.s, self.order = self.core_s, None
        if self.v.size:
            merged = np.concatenate([np.abs(self.v), self.core_s])
            self.order = np.argsort(-merged, kind="stable")
            self.s = merged[self.order]

    def cut(self, shape, tol: Tolerance, scale_floor: float = 0.0) -> tuple:
        """(cutoff, rank): ``rank_threshold`` over every singular value,
        at ``shape``."""
        cut = rank_threshold(self.s, shape, tol, scale_floor)
        return cut, int(np.sum(self.s > cut))

    def left(self, r: int) -> np.ndarray:
        """The first r left singular vectors, a frame of R(A) at rank r."""
        if self.order is None:
            return _scatter(self.u[:, :r], (self.shape[0], r), self.rows, None)
        return _frame(self.shape[0], self.i, np.ones(self.i.size), self.rows, self.u, self.order[:r])

    def right(self, r: int) -> np.ndarray:
        """The first r right singular vectors, a frame of R(A*) at rank r."""
        if self.order is None:
            return _scatter(herm(self.vh[:r]), (self.shape[1], r), self.cols, None)
        phases = np.conj(self.v) / np.abs(self.v)
        return _frame(self.shape[1], self.j, phases, self.cols, herm(self.vh), self.order[:r])

    def pinv(self, cut: float) -> np.ndarray:
        """The pseudoinverse over the singular values above ``cut``: the
        core's V diag(1/s) U* scattered back, and 1/v at (j, i) for each
        kept isolated entry."""
        out = _scatter(_pinv_from_svd(self.u, self.core_s, self.vh, cut), self.shape[::-1], self.cols, self.rows)
        if self.order is not None:
            kept = np.abs(self.v) > cut
            out[self.j[kept], self.i[kept]] = 1.0 / self.v[kept]
        return out


def _frame(n: int, lone: np.ndarray, units: np.ndarray, mask, vectors: np.ndarray, picks: np.ndarray) -> np.ndarray:
    """The n x len(picks) frame whose column c, for p = picks[c], is
    units[p] e_{lone[p]} when p < k = len(lone) and column p - k of
    ``vectors`` on the rows of ``mask`` otherwise."""
    k = lone.size
    out = np.zeros((n, picks.size), dtype=np.complex128)
    at = np.arange(picks.size)
    mine = picks < k
    out[lone[picks[mine]], at[mine]] = units[picks[mine]]
    out[_ix(mask, at[~mine])] = vectors[:, picks[~mine] - k]
    return out


def pseudoinverse(m, tol: Tolerance) -> np.ndarray:
    """Moore-Penrose inverse via SVD with the rank_rel cutoff.

    The result satisfies the four defining identities
    ``A X A = A``, ``X A X = X``, ``(A X)* = A X``, ``(X A)* = X A``
    up to roundoff on the retained singular values.
    """
    a = as_matrix(m)
    split = _SplitSVD(a)
    return split.pinv(split.cut(a.shape, tol)[0])


def _pinv_from_svd(u, s, vh, cut: float) -> np.ndarray:
    """V diag(1/s) U* over the singular values above the cutoff."""
    inv = np.where(s > cut, 1.0 / np.where(s > cut, s, 1.0), 0.0)
    return herm(vh) @ (inv[:, None] * herm(u))


def range_frame(m, tol: Tolerance, scale_floor: float = 0.0) -> np.ndarray:
    """Orthonormal column basis of the range of m."""
    a = as_matrix(m)
    return _range_frame_cut_as(a, a.shape, tol, scale_floor)


def _range_frame_cut_as(a: np.ndarray, shape, tol: Tolerance, scale_floor: float) -> np.ndarray:
    """Orthonormal column basis of the range of ``a``, cut as a matrix of
    ``shape``: rank_rel * max(sigma_0, scale_floor) * max(shape).  A thin
    spanning set that stands in for a wider matrix with the same range
    keeps that matrix's cutoff."""
    split = _SplitSVD(a)
    return split.left(split.cut(shape, tol, scale_floor)[1])


def kernel_frame(m, tol: Tolerance, scale_floor: float = 0.0) -> np.ndarray:
    """Orthonormal column basis of the kernel of m."""
    a = as_matrix(m)
    check_bytes(ENTRY_BYTES * a.shape[1] ** 2, "a kernel frame's full SVD")
    split = _SplitSVD(a, full_matrices=True)
    cut, _ = split.cut(a.shape, tol, scale_floor)
    # an empty core's vh is the identity of its columns, the whole kernel
    inner = herm(split.vh[int(np.sum(split.core_s > cut)) :]) if split.core_s.size else split.vh
    if split.cols is None:
        return inner
    # the kernel of the core on its columns, then the unit vectors of the
    # zero columns and of the columns of isolated entries cut as zero
    dead = ~split.cols
    dead[split.j[np.abs(split.v) > cut]] = False
    dead = np.flatnonzero(dead)
    frame = np.zeros((a.shape[1], inner.shape[1] + dead.size), dtype=np.complex128)
    frame[split.cols, : inner.shape[1]] = inner
    frame[dead, inner.shape[1] + np.arange(dead.size)] = 1.0
    return frame


def psd_sqrt(m, tol: Tolerance) -> np.ndarray:
    """Self-adjoint PSD square root of a self-adjoint PSD matrix.

    Eigenvalues in ``[-eq_rel*||M||, 0)`` are clamped to zero (roundoff
    dust); anything below ``-10*eq_rel*||M||`` is a hard failure.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"psd_sqrt needs a square matrix, got {a.shape}")
    if a.size == 0:
        return a.copy()
    scale = opnorm(a)
    if not residual_holds(opnorm(a - herm(a)), scale, tol):
        raise DomainError("psd_sqrt: input is not self-adjoint within tolerance")
    w, v = _eigh(a, vectors=True)
    if w.size and materially_negative(w[0], scale, tol):
        raise DomainError(f"psd_sqrt: materially negative eigenvalue {w[0]:.3e}")
    w = np.clip(w, 0.0, None)
    return _hermitian_part((v * np.sqrt(w)) @ herm(v))


# ---------------------------------------------------------------------------
# Subspaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Subspace:
    """A closed subspace of C^d, stored as an orthonormal column frame.

    The zero subspace is a frame with zero columns; every operation
    accepts it.
    """

    frame: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "frame", as_matrix(self.frame))

    @property
    def ambient_dim(self) -> int:
        return self.frame.shape[0]

    @property
    def dim(self) -> int:
        return self.frame.shape[1]

    def projector(self) -> np.ndarray:
        return self.frame @ herm(self.frame)

    @staticmethod
    def whole(d: int) -> "Subspace":
        return Subspace(eye(d))

    @staticmethod
    def zero(d: int) -> "Subspace":
        return Subspace(np.zeros((d, 0), dtype=np.complex128))

    @staticmethod
    def span(columns, tol: Tolerance) -> "Subspace":
        """Subspace spanned by the columns of a matrix (need not be
        orthonormal or independent)."""
        return Subspace(range_frame(columns, tol, scale_floor=1.0))

    @staticmethod
    def kernel(m, tol: Tolerance) -> "Subspace":
        """Kernel of an operator, with the same unit scale floor as span."""
        return Subspace(kernel_frame(m, tol, scale_floor=1.0))


def _check_same_ambient(s1: Subspace, s2: Subspace):
    if s1.ambient_dim != s2.ambient_dim:
        raise DimensionMismatch(
            f"ambient dimensions differ: {s1.ambient_dim} vs {s2.ambient_dim}"
        )


def ortho_complement(s: Subspace, tol: Tolerance) -> Subspace:
    return Subspace(kernel_frame(herm(s.frame), tol))


def _inclusion_gap(s1: Subspace, s2: Subspace) -> np.ndarray:
    """(I - P2) F1, formed from the frames as F1 - F2 (F2* F1) and never
    through the d x d projector P2."""
    _check_same_ambient(s1, s2)
    f2 = _operand_of(s2.frame, False, None)  # only ever a left factor: not scanned
    return s1.frame - matmul(f2, matmul(f2.H, s1.frame))


def inclusion_defect(s1: Subspace, s2: Subspace) -> float:
    """||(I - P2) F1||; 0.0 when S1 is zero."""
    return opnorm(_inclusion_gap(s1, s2))


def is_subset(s1: Subspace, s2: Subspace, tol: Tolerance) -> bool:
    """S1 <= S2 iff ||(I - P2) F1|| <= incl_abs."""
    return norm_within(_inclusion_gap(s1, s2), tol.incl_abs)


def ominus(s1: Subspace, s2: Subspace, tol: Tolerance) -> Subspace:
    """S1 (-) S2 for nested S2 <= S1."""
    _check_same_ambient(s1, s2)
    if not is_subset(s2, s1, tol):
        raise DomainError("ominus: second subspace is not contained in the first")
    return Subspace.span(s1.frame - s2.projector() @ s1.frame, tol)


def image(m, s: Subspace, tol: Tolerance) -> Subspace:
    """Image of the subspace under the operator, a matrix or an
    ``Amplification``: R(M @ frame).

    Directions whose singular value is pure roundoff dust (below
    rank_rel * dim on the unit scale) are dropped; see rank_threshold.
    """
    a = m if isinstance(m, Amplification) else as_matrix(m)
    if a.shape[1] != s.ambient_dim:
        raise DimensionMismatch(
            f"operator domain {a.shape[1]} != subspace ambient {s.ambient_dim}"
        )
    # an amplification is applied block by block; a matrix is multiplied
    # whole, and the span splits off the product's zero lines and isolated entries
    return Subspace.span(a @ s.frame, tol)


# ---------------------------------------------------------------------------
# Operator predicates
# ---------------------------------------------------------------------------


def partial_isometry_residual(m, tol: Tolerance) -> tuple:
    """The triple-product residual ||M M* M - M|| and the partial-isometry
    verdict residual <= eq_rel * ||M||.

    A matrix whose norm is below rank_rel on the unit scale is roundoff
    dust left by a cancellation; it is indistinguishable from the zero
    operator, which is a partial isometry.
    """
    a = Operand(as_matrix(m)).live()
    residual = opnorm(_triple_defect(a))
    return residual, _partial_isometry_verdict(a.array, (residual, residual), lambda: residual, tol)


def is_partial_isometry(m, tol: Tolerance) -> bool:
    """The verdict of partial_isometry_residual, with the residual screened
    like ||M||."""
    a = Operand(as_matrix(m)).live()
    defect = _triple_defect(a)
    return _partial_isometry_verdict(a.array, _norm_bounds(defect), lambda: opnorm(defect), tol)


def _triple_defect(a: Operand) -> np.ndarray:
    """A A* A - A, multiplied in that order."""
    return matmul(matmul(a, a.H), a) - a.array


def _partial_isometry_verdict(a: np.ndarray, residual_bounds: tuple, residual, tol: Tolerance) -> bool:
    """``scale <= rank_rel or residual() <= eq_rel * scale`` for scale =
    opnorm(a), decided from the bounds on both norms where they settle it
    and from the exact norms otherwise."""
    lo, hi = _norm_bounds(a)
    r_lo, r_hi = residual_bounds
    if hi <= tol.rank_rel or r_hi <= tol.eq_rel * lo:
        return True
    if lo > tol.rank_rel and r_lo > tol.eq_rel * hi:
        return False
    scale = opnorm(a)
    return scale <= tol.rank_rel or residual() <= tol.eq_rel * scale


def _contraction_cutoff(tol: Tolerance) -> float:
    return 1.0 + tol.eq_rel


def is_contraction(m, tol: Tolerance) -> bool:
    """``opnorm(m) <= 1 + eq_rel``."""
    return norm_within(m, _contraction_cutoff(tol))


def running_conjunction(flags) -> list:
    """[f1, f1 and f2, f1 and f2 and f3, ...] as plain bools."""
    out, ok = [], True
    for f in flags:
        ok = ok and bool(f)
        out.append(ok)
    return out


_CONDITIONS = (
    "norm_on_cokernel",
    "adjoint_norm",
    "triple_product",
    "initial_projection",
    "final_projection",
    "pinv_is_adjoint",
)


@dataclass(frozen=True)
class ClassificationReport(Record):
    """Verdicts plus the residuals of all six partial-isometry conditions.

    The partial-isometry verdict is the triple-product condition
    ||T T* T - T|| <= eq_rel ||T||; the remaining five are diagnostics.
    ``consistent`` is False when the six disagree beyond tolerance, which
    is reported, never silently resolved.

    Condition keys:
      ``norm_on_cokernel``   isometric on the orthocomplement of the kernel
      ``adjoint_norm``       the adjoint is isometric on its cokernel
      ``triple_product``     T T* T = T
      ``initial_projection`` T* T is the projection onto R(T*)
      ``final_projection``   T T* is the projection onto R(T)
      ``pinv_is_adjoint``    pinv(T) = T*
    """

    is_contractive: bool
    is_isometric: bool
    is_partial_isometric: bool
    norm: float
    isometry_residual: float
    condition_residuals: dict
    condition_verdicts: dict
    consistent: bool


def _frame_gram_residual(x: Operand, f: Operand) -> float:
    """||F* X* X F - I|| for an orthonormal frame F of N(X)^perp."""
    k = f.array.shape[1]
    if k == 0:
        return 0.0
    return opnorm(matmul(matmul(matmul(f.H, x.H), x), f) - eye(k))


def _frames_and_pinv(a: np.ndarray, tol: Tolerance) -> tuple:
    """Orthonormal frames of R(A) and R(A*) and the pseudoinverse of a
    nonempty A, all from one thin SVD cut as ``range_frame`` and
    ``pseudoinverse`` cut it."""
    split = _SplitSVD(a)
    cut, r = split.cut(a.shape, tol)
    return split.left(r), split.right(r), split.pinv(cut)


def classify_operator(m, tol: Tolerance) -> ClassificationReport:
    """Contraction, isometry and the six-way partial-isometry diagnostic.

    ||M|| is computed once.  The frames of R(M) and R(M*), the rank and
    the pseudoinverse all come from one thin SVD of M, cut at the same
    ``rank_threshold`` as ``range_frame`` and ``pseudoinverse``; the
    verdict itself is ``partial_isometry_residual``.
    """
    a = as_matrix(m)
    norm = opnorm(a)
    op = Operand(a)
    gram = matmul(op.H, op)
    iso_res = opnorm(gram - eye(a.shape[1]))
    if norm <= tol.rank_rel:
        # numerically the zero operator: every characterization holds
        residuals = dict.fromkeys(_CONDITIONS, 0.0)
        verdicts = dict.fromkeys(_CONDITIONS, True)
    else:
        final, initial, pinv = _frames_and_pinv(a, tol)  # initial spans R(M*) = N(M)^perp
        triple, triple_ok = partial_isometry_residual(a, tol)
        final, initial = Operand(final), Operand(initial)
        residuals = {
            "norm_on_cokernel": _frame_gram_residual(op, initial),
            "adjoint_norm": _frame_gram_residual(op.H, final),
            "triple_product": triple,
            "initial_projection": opnorm(gram - matmul(initial, initial.H)),
            "final_projection": opnorm(matmul(op, op.H) - matmul(final, final.H)),
            "pinv_is_adjoint": opnorm(pinv - herm(a)),
        }
        verdicts = {key: residual_holds(residuals[key], norm, tol) for key in residuals}
        verdicts["triple_product"] = triple_ok
    return ClassificationReport(
        is_contractive=norm <= _contraction_cutoff(tol),
        is_isometric=residual_holds(iso_res, norm**2, tol),
        is_partial_isometric=verdicts["triple_product"],
        norm=norm,
        isometry_residual=iso_res,
        condition_residuals=residuals,
        condition_verdicts=verdicts,
        consistent=len(set(verdicts.values())) <= 1,
    )
