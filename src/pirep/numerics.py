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
products an :class:`Amplification` forms and its ``to_dense``, the U or
V of a kernel frame's full SVD, whichever is larger, sigma(a) and stacks
of it and of the induced actions) is checked against one byte budget,
``DENSE_BYTES``, from its shape and before it is allocated: the site
that builds it calls :func:`check_bytes`.
An amplification I (x) X is an operator applied block by block, so no
caller builds it unless it takes a span of the whole map, or a kernel
or cokernel with coordinates.

The kernel of I_n (x) Y in identity coordinates (:func:`kernel_frame`)
is I_n (x) F for the kernel frame F of the p x q block Y, cut at the
amplified shape, rank_rel * max(sigma_0, scale_floor) * max(n p, n q):
I_n (x) Y has Y's singular values, each n times.  The error argument: by
backward stability a computed value is within (n p + n q) * 2**-53 *
||Y|| of the exact one on the dense matrix and within (p + q) * 2**-53 *
||Y|| on the block, so the ranks differ only for a value that close to
the cut, where the dense rank is just as uncertain, and F obeys Wedin's
bound in the block's smaller dimensions; the cokernel I_n (x) R(Y*) is
cut the same way (``powers._amplified_cokernel``).  With coordinates the
matrix is built and factored whole.

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

A range frame (:func:`_range_frame_cut_as`: every span, image and
cokernel) of an array of at least _DEFLATE_MIN_SIZE entries whose core
is square or wide first takes the core's singular values without
vectors, and cuts them with the isolated entries' moduli at the stated
shape, as the split SVD would.  When every core value clears the cut the
core has full row rank, so its range is the whole coordinate block of
its rows: the frame is the unit vectors of the core's rows and of the
kept isolated entries' rows, in row order, and no singular vector is
computed.  Otherwise the same deflation (no second scan) is factored with
vectors and cut as before.  The error argument: that frame is exact for
the rank the values give.  LAPACK's singular values without vectors are
backward stable with the same bound as with them, within
(rows + cols) * 2**-53 * ||core|| of the exact ones, so only a value
within that bound of the cut can be counted differently, where the
dense path's own rank is just as uncertain; otherwise the range has the
same dimension in another orthonormal basis.  Below the gate nothing
changes.  A kernel frame (:func:`_kernel_frame_cut_as`) of such an array
whose core is square or tall does the same on the columns: when every
core value clears the cut the core has full column rank, its kernel is
the zero vector, and the frame is the unit vectors of the zero columns
and of the columns of the isolated entries cut as zero, with no singular
vector.  The orthocomplement of a frame of unit vectors of value 1 held
by index is the unit vectors of the other rows, ascending: F* has only
isolated entries of modulus 1, and that is the split SVD's kernel frame.

The steps of a subspace iteration S -> X(E (x) S) (``_RowSteps``):
where S is held as unit vectors of value 1 (an index form in identity
coordinates), the iteration holds it as its rows, X F is X's columns at
those rows times 1, and X is fixed through the iteration.  X's nonzeros
are read by column (``_column_nonzeros``): an array by one scan per
iteration, a form off its parts once and kept on it, so the iterations
of one operator read them once; each step counts
X F from that scan (``_RowSteps._decided``): it reads X's nonzeros in
F's columns, a few integer operations each, and takes the deflation's
counts of X F (times 1, a zero stays zero and a nonzero stays nonzero):
per row the number of nonzeros, whether a row's one nonzero is isolated
(its column of X F has no other) and its modulus, and the core rows.
The rows of the frame are then decided by index: past the gate a square
or wide core whose values clear the cut keeps its rows and the kept
isolated entries' rows, ascending, and a product with no core (every
nonzero isolated, as a weighted shift's) keeps the isolated entries'
rows stably by descending modulus, the split SVD's order, whose frame is
the unit vectors of those rows.  Each distinct (core rows, core columns
in F's order) pair gathers the core, multiplied by F's values as the
gather does, and takes its singular values once.  Reusing them is exact:
an equal pair is an equal array, and LAPACK returns equal values for it.
So each step's rows are those of the product's ``_range_frame_cut_as``,
byte for byte; where neither rule decides (a tall core, a core short of
its rows, a product below the gate, exactly zero or not), the product is
built and cut as before.  A step builds no product, frame or Subspace,
and the iteration builds one Subspace at its end.  The same count
serves a generated span held by rows (``_RowSteps.residual``): X's
nonzeros in the last block's columns outside the held rows are the
Gram-Schmidt residual, decided by the same two rules, or by its being
exactly zero or one unit column of value 1.  The scan (a byte per entry
of X) and X's nonzeros (an index each) are checked before they are
built.  What stays dense: S held as an array, quotient coordinates and X
below the gate (every claim battery's).

The R^infty iteration takes only its first step, from every row, and
then peels (``_RowSteps.peel``): it drops each row that no nonzero of X
reaches from the columns of the rows still kept, until none is left to
drop, in one pass over the nonzeros of the dropped columns (Python
lists, O(nnz)), and decides that greatest fixed point's rows by
``_decided_rows``, as a step at that point would.  Why it is the
iteration's answer: a step whose every core value and isolated modulus
clears the cut keeps exactly the rows of X F with a nonzero, the rows
that F's columns reach; that map is monotone in F's rows, so from every
row the steps descend to its greatest fixed point, the peel's.  Three
conditions, all checked from the first step's counts, make every step
such a step.  (1) No column the peel drops holds a core entry: then no
core row loses a nonzero, the core and its columns (ascending, as every
step with a core feeds its rows back) are the first step's, and so are
its cached values, while an isolated entry stays isolated until its
column goes.  (2) Every isolated modulus clears the first step's cut;
the core values do, or that step would not be decided.  The cut,
rank_rel * max(sigma_0, largest modulus, scale_floor) * max(shape), only
falls as entries leave, so the first step's bounds every later one.
(3) The fixed point is empty, or past both gates, h * |S| and
h * blocks * |S| >= _DEFLATE_MIN_SIZE (blocks >= 1, so the first implies
the second), and so is every step before it, whose S is larger.  An
empty fixed point needs no gate: with no row kept there is no frame
order to match, the zero subspace's one frame is h x 0, and by (1) and
(2) each step below the gate, which builds its product, spans no more
than the rows the map keeps (rounding dust stays below the cut), so the
stepped iteration ends at 0 too.  Where a condition fails
the peel answers None and the iteration steps on, each step counted
from the scan.  Its rows are then those of the stepped iteration byte
for byte: ascending with a core, by descending modulus without one.  A
generated span held by rows walks its chain of one-column residuals the
same way (``_RowSteps.walk``): while the last block is one row of a
one-block X whose column has exactly one nonzero outside the held rows,
of value exactly 1 + 0j, and 1 clears the cut at the stacked shape,
that row is the next block; an empty column ends the growth; any other
residual goes to ``residual`` at that point.  The three tests are
``residual``'s, read off lists built once from the scan.  So on a shift
(+) unitary, held as a split form, each operator's nonzeros are read
once, off its parts, and each iteration is one step or none and one pass
over the shift chain, whatever q is, and the unitary core's values are
taken once per operator; on a weighted shift, whose chains all run out
at the truncation, R^infty is one step and one peel to no rows.

The partial-isometry verdict drops the exactly-zero rows and columns of
its operand (``_live_part``).  This is exact: it changes no norm or
defect T T* T - T (zero wherever T has a zero row or column), and the
Frobenius screen's lower bound ``||A||_F / sqrt(min(shape))`` stays
valid for the compressed shape.  Below the gate nothing is scanned and
the dense path runs as it is.  On a 2-core x86 host with one BLAS thread
the zero-line scan costs about 7 us at 72 entries (11% of a thin SVD),
and the split's scan of a dense array 20-30 us at 1,024 entries: 7-10%
of the thin SVD of a 32 x 32 matrix and 29% of that of an 80 x 13
frame.  A thin frame whose entries are isolated (a weighted shift's,
down to 80 x 13) saves its SVD outright, and about 2% of the arrays of
a claim battery have 1,024 to 4,095 entries, so the gate sits at 1,024.

The index form (``_Monomial``) is the one sparse carrier: an array with
at most one nonzero in each row and each column, held as its shape and,
per column, the row and value of its nonzero (row 0 and value 0 for a
zero column).  A product whose right factor B is an index form is a
gather (:func:`matmul`): column j of B is v_j e_(r_j), so A B is
A[:, r] * v, and with A a form too it is the form whose column j holds
A's entry in column r_j times v_j.  Every other product is
``np.matmul``: no array is scanned to find a gather.  The error
argument: each entry of such a product has at most one nonzero term.
For real-valued entries (complex128 with zero imaginary parts: every
shift, its lift, powers and frames) a product of two entries is
correctly rounded and the zero terms add exact zeros, so the gather
equals the GEMM bit for bit, up to the sign of an exact zero.  For
complex entries the gather is one rounded complex multiply per entry,
within sqrt(5) * 2**-53 * |a_ir| |v_j| of the exact product; BLAS's
one-term sum is within the same bound but may round differently (its
complex kernel need not multiply as numpy does), so the two can differ
by up to twice that.

An array becomes a form once, where it enters, by the one scan of
``_index_form`` (past the gate, when the scan finds it monomial): a
``CovariantRep`` lift in identity coordinates (scalar algebra, standard
Gram), unless ``shifts.build_shift`` builds it as its form with no scan;
the operator of :func:`classify_operator` and its two split-SVD frames;
and the operand of the partial-isometry verdict, whose live part (its k
nonzeros) is then the k x k form of those entries at any size.  Forms
beget forms: the lift powers composed from form lifts
(``Amplification.__rmatmul__``) and their T T*; the cokernel and range
frames of such powers and the images of those frames
(``_monomial_range_frame``: unit vectors of phase 1 in the split SVD's
stable order of descending modulus, so no ``herm`` copy); and the
unit-vector frames of the full-row-rank rule above (``_units``) and of
C^d (``Subspace.whole``).  A product is a form only from
_DEFLATE_MIN_SIZE entries and is built as its array below.  Why it is
exact: each value a form holds is the one product the gather forms,
multiplied in the same order (T_{m-1}'s entry times w_t for a lift
power, v conj(v) for T T*, (v conj(v)) v - v for the triple defect), so
no report byte moves.  The norm of a form is its largest modulus, as
the split finds it on isolated entries (the Frobenius screen's band
holds it, so the screen decides nothing else), and its split SVD has no
core (``_deflate`` reads its entries); the inclusion gap of two
unit-vector frames is exactly F1's columns whose row F2 lacks.  A
partial-isometry verdict whose live part is below the gate takes its
norms from the k x k arrays, as before.  The consumers read a form with
no scan, finiteness sum, copy or dense allocation.  Its array is built
by :func:`dense` alone, on a public read (``LiftChain.tilde_power``,
``Subspace.frame``), and kept on the form; a form scanned from a
read-only array (a lift's ``tilde``) keeps that array, so T_1 is
``tilde`` itself.  Building or applying a form checks its bytes (a row
index and a value per column) from shapes first, and a composed form
checks its values for finiteness once, so a power that overflowed
raises DomainError as ``as_matrix`` does on its array.

A split form is the same carrier with one dense core beside its index
part: the core's rows R and columns K, ascending, and its block C, on
lines that hold no entry of the index part (``_Monomial._core``).  It is
taken where a lift enters ``CovariantRep`` in identity coordinates past
the gate, when the construction scan's ``_deflate`` finds isolated
entries beside a core (Wold's shift (+) unitary); a conjugated shift (+)
unitary has no isolated entry and stays an array.  Write T = S + C, S
the isolated entries (values v).  Then T* = S* + C* on the swapped
lines, and two split forms compose by parts when no cross term lives
(the right factor's isolated entries avoid the left's core columns, and
its core rows avoid the left's isolated entries): A B = S_A S_B + C_A C_B,
the index parts composed as above and the cores multiplied over the
lines they share (``_compose``).  So T*T = S*S + C*C, and T T* and
(T T*) T likewise, multiplied in the order ``_triple_defect`` multiplies;
(T*T)^+ is 1/|v|^2 at S's places plus (C*C)^+, cut at the full shape
(``_SplitSVD.pinv``); T' = T (T*T)^+ is v (1/|v|^2) at S's places plus
C (C*C)^+; T' - T has T's support and is subtracted by parts
(``_difference``); and ||T|| = max(max |v|, ||C||).  Every factorization
reads the split from its parts (``_deflate_form``: the core alone is
scanned for its own zero lines and isolated entries, so the deflation is
the array's, bit for bit), as do ``opnorm``, ``pseudoinverse`` and the
range and kernel frames, and ``_RowSteps`` reads X's nonzeros off the
parts.  The error argument: a core GEMM adds the same nonzero terms as
the full-width GEMM, whose other terms are exact zeros, and each isolated
value is the one product the full GEMM forms (bit for bit for real v, as
every shift's; within the gather's bound above for complex v).  On every
shift (+) unitary checked (q from 40 to 400, u = 2 and 20, and the
benchmark's eight) the core products gave the dense T' and ||T' - T|| bit
for bit.  The partial-isometry verdict of a split form screens both norms
from their parts (the Frobenius norm of a split form is the hypot of its
values' and its core's); the reported residual
(``partial_isometry_residual``) and ``classify_operator`` stay on the
array, since the live part's wider GEMM can round otherwise (about 1e-15
on those reps).  Public results stay arrays through ``dense``: ``tilde``,
``cauchy_dual`` and ``pseudoinverse``.  An amplification, a product with
any other factor and a frame read take a split form's array.  What stays
dense: a lift with two nonzeros in a line and no isolated entry (a
conjugated shift), every lift below the gate, in quotient coordinates or
over a non-scalar algebra, every power of a split lift, and every
product whose right factor is such an array.

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
# shift, 217 x 5,859, built only when read through ``tilde_power``: the
# criteria hold it as an index form); 2**30 admits the 61 MB dense T_4 of
# that shift at n_max = 4.
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
_DEFLATE_MIN_SIZE = 1024


def _nonzero_lines(a: np.ndarray) -> tuple | None:
    """(nonzero, row_count, col_count): the mask of the nonzero entries of
    an array of at least _DEFLATE_MIN_SIZE entries and their number in
    each row and in each column, counted only when there are at most
    max(rows, cols) of them (so every monomial array is counted) and None
    otherwise; None below the gate, where nothing is scanned.  The one
    scan behind _live_lines, _deflate and _index_form."""
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


def _deflate(a, lines: tuple | None = None) -> tuple:
    """(core, rows, cols, (i, j, v)): ``a`` without its exactly-zero rows
    and columns and without its isolated entries, the only nonzero of
    their row and of their column (a view of all of ``a`` when nothing is
    dropped); the masks of the core's rows and columns, each None when it
    keeps every line; and the rows, columns and values of the isolated
    entries, by row.  Below _DEFLATE_MIN_SIZE entries ``a`` is not
    scanned; ``lines`` is its scan when it is already taken.  An index
    form is read with no scan of its array (``_deflate_form``)."""
    if type(a) is _Monomial:
        return _deflate_form(a)
    lines = _nonzero_lines(a) if lines is None else lines
    if lines is None:
        return a, None, None, _NO_ENTRIES
    nonzero, row_count, col_count = lines
    if row_count is None:
        row_count, col_count = nonzero.sum(axis=1), nonzero.sum(axis=0)
    i, j, rows, cols = _isolated(nonzero, row_count, col_count)
    rows, cols = (None if rows.all() else rows), (None if cols.all() else cols)
    return a[_ix(rows, cols)], rows, cols, (i, j, a[i, j])


def _isolated(nonzero: np.ndarray, row_count: np.ndarray, col_count: np.ndarray) -> tuple:
    """(i, j, rows, cols): the isolated entries of a nonzero mask with the
    given line counts, by row, and the masks of the other nonzero lines."""
    single = np.flatnonzero(row_count == 1)
    j = nonzero[single].argmax(axis=1)
    alone = col_count[j] == 1
    i, j = single[alone], j[alone]
    rows, cols = row_count > 0, col_count > 0
    rows[i] = False
    cols[j] = False
    return i, j, rows, cols


def _deflate_form(a: "_Monomial") -> tuple:
    """``_deflate`` of a form, taken once and kept on it: every entry of
    its index part is isolated, and its core is scanned alone for its
    zero lines and its own isolated entries (a few hundred entries, where
    the whole array has h x w), so the result is the scan's of the array,
    bit for bit."""
    if a._parts is not None:
        return a._parts
    cols, rows, val = a._live()
    row_mask, col_mask = np.zeros(a.shape[0], dtype=bool), np.zeros(a.shape[1], dtype=bool)
    core = np.zeros((0, 0), dtype=np.complex128)
    if a._core is not None:
        r, k, block = a._core
        nonzero = block != 0
        i, j, keep_r, keep_c = _isolated(nonzero, nonzero.sum(axis=1), nonzero.sum(axis=0))
        rows, cols, val = np.concatenate([rows, r[i]]), np.concatenate([cols, k[j]]), np.concatenate([val, block[i, j]])
        core = block if keep_r.all() and keep_c.all() else block[np.ix_(keep_r, keep_c)]
        row_mask[r[keep_r]] = True
        col_mask[k[keep_c]] = True
    by_row = np.argsort(rows)  # the scan's order
    a._parts = core, (None if row_mask.all() else row_mask), (None if col_mask.all() else col_mask), (rows[by_row], cols[by_row], val[by_row])
    for array in (core, *a._parts[1:3], *a._parts[3]):
        if array is not None:
            array.setflags(write=False)  # kept on the form and shared by its readers
    return a._parts


def _scatter(x: np.ndarray, shape, rows, cols) -> np.ndarray:
    """``x`` placed on the given rows and columns of a zero matrix of
    ``shape``; ``x`` itself when both masks are None."""
    if rows is None and cols is None:
        return x
    out = np.zeros(shape, dtype=np.complex128)
    out[_ix(rows, cols)] = x
    return out


# ---------------------------------------------------------------------------
# The index form of a monomial array
# ---------------------------------------------------------------------------

# Bytes of one row index of an index form.
_INDEX_BYTES = np.dtype(np.intp).itemsize


def _check_form_bytes(columns: int, what: str) -> None:
    """Refuse an index form of ``columns`` columns (a row index and a value
    each) before it is allocated."""
    check_bytes((ENTRY_BYTES + _INDEX_BYTES) * columns, f"the index form of {what}")


class _Monomial:
    """An array held by index: its shape, and for each column the row and
    the value of its nonzero (row 0 and value 0 for a zero column), at
    most one in each row and in each column; optionally beside one dense
    core, ``_core`` = (rows, columns, block): ascending rows R and columns
    K that hold no entry of the index part, and the block of the array on
    R x K.  Without a core it is a monomial array (an index form); with
    one, an array of isolated entries beside one core (a split form).  See
    the module docstring for where each is taken.  Immutable; its dense
    array is built by :func:`dense` alone and kept, and so are its
    deflation (``_deflate_form``) and the nonzeros that ``_RowSteps``
    reads (``_column_nonzeros``)."""

    __slots__ = ("shape", "_at", "_val", "_core", "_dense", "_scan", "_parts")

    def __init__(self, shape, at: np.ndarray, val: np.ndarray, core: tuple | None = None):
        """Refuses a non-finite value (one pass over the values and the
        core, so a composed product that overflowed ends in DomainError);
        a zero value gets row 0, as a scan would report it."""
        if not np.isfinite(val).all() or (core is not None and not np.isfinite(core[2]).all()):
            raise DomainError("matrix has non-finite entries")
        zero = val == 0
        if zero.any():
            at, val = np.where(zero, 0, at), np.where(zero, 0, val)
        for array in (at, val) + (() if core is None else core):
            array.setflags(write=False)
        self.shape, self._at, self._val, self._core = (int(shape[0]), int(shape[1])), at, val, core
        self._dense = self._scan = self._parts = None

    @property
    def size(self) -> int:
        return self.shape[0] * self.shape[1]

    def _live(self) -> tuple:
        """(columns, rows, values) of the index part's nonzeros, by column."""
        cols = np.flatnonzero(self._val)
        return cols, self._at[cols], self._val[cols]


def _is_form(x) -> bool:
    """``x`` is an index form with no core: a monomial array."""
    return type(x) is _Monomial and x._core is None


def _has_core(x) -> bool:
    """``x`` is a split form: isolated entries beside one dense core."""
    return type(x) is _Monomial and x._core is not None


def _form_or_dense(shape, at: np.ndarray, val: np.ndarray, core: tuple | None = None):
    """The form of a product, or its dense array below _DEFLATE_MIN_SIZE
    entries, where no scan would have found its entries."""
    form = _Monomial(shape, at, val, core)
    return form if form.size >= _DEFLATE_MIN_SIZE else dense(form, "a small product of forms")


def _index_form(a: np.ndarray, lines: tuple | None = None, split: bool = False):
    """The index form of a matrix of at least _DEFLATE_MIN_SIZE entries in
    which one scan (``lines``, when it is already taken) finds at most one
    nonzero in each row and each column; with ``split``, also the split
    form of one in which ``_deflate`` finds isolated entries beside a
    core; None otherwise.  A read-only ``a`` is kept as the form's array,
    so ``dense`` returns it and builds no copy."""
    lines = _nonzero_lines(a) if lines is None else lines
    if lines is None:
        return None
    core = None
    if lines[1] is not None and max(lines[1].max(initial=0), lines[2].max(initial=0)) <= 1:
        i, j = _coordinates(lines[0])
    elif split:
        block, rows, cols, (i, j, _) = _deflate(a, lines)
        if i.size == 0:
            return None
        core = (np.flatnonzero(rows), np.flatnonzero(cols), block)
    else:
        return None
    _check_form_bytes(a.shape[1], f"a {a.shape[0]} x {a.shape[1]} matrix")
    at, val = np.zeros(a.shape[1], dtype=np.intp), np.zeros(a.shape[1], dtype=np.complex128)
    at[j], val[j] = i, a[i, j]
    form = _Monomial(a.shape, at, val, core)
    if not a.flags.writeable:
        form._dense = a  # the array it was read from, kept as its array
    return form


def dense(x, what: str) -> np.ndarray:
    """The array of ``x``: an array itself; for a form, built on the first
    read (its bytes checked from the shape first, as ``what``), kept
    read-only and returned on every later read.  The only place a form
    becomes an array."""
    if type(x) is not _Monomial:
        return x
    if x._dense is None:
        check_bytes(ENTRY_BYTES * x.size, what)
        out = np.zeros(x.shape, dtype=np.complex128)
        out[x._at, np.arange(x.shape[1])] = x._val
        if x._core is not None:
            out[np.ix_(x._core[0], x._core[1])] = x._core[2]
        out.setflags(write=False)
        x._dense = out
    return x._dense


def _as_operator(x):
    """A form as it is, and anything else through ``as_matrix``."""
    return x if type(x) is _Monomial else as_matrix(x)


def _adjoint(x):
    """herm(x) for an array; for a form, the form of its conjugate
    transpose (the core's herm on the swapped lines), with no dense copy."""
    if type(x) is not _Monomial:
        return herm(x)
    _check_form_bytes(x.shape[0], "an adjoint")
    cols, rows, val = x._live()
    at, out = np.zeros(x.shape[0], dtype=np.intp), np.zeros(x.shape[0], dtype=np.complex128)
    at[rows], out[rows] = cols, np.conj(val)
    core = None if x._core is None else (x._core[1], x._core[0], herm(x._core[2]))
    return _Monomial(x.shape[::-1], at, out, core)


def _tensor_frame(s: "Subspace", n: int, embed):
    """embed (I_n (x) F) for the frame F of ``s``, as ``eye_kron`` and the
    embed form it (no embed is the identity).  Without an embed an index
    form stays one: column (a, j) is F's column j in row block a, and its
    value is 1 * F's, the product eye_kron forms.  Bytes are checked from
    the shape first."""
    frame = s._frame
    if not _is_form(frame) or embed is not None:
        check_bytes(ENTRY_BYTES * n * n * frame.size, "a spanning set of E (x) S")
        columns = s.frame if n == 1 else eye_kron(n, s.frame)
        return columns if embed is None else embed @ columns
    if n == 1:
        return frame
    h, k = frame.shape
    _check_form_bytes(n * k, "a spanning set of E (x) S")
    at = (np.arange(n)[:, None] * h + frame._at).ravel()
    return _Monomial((n * h, n * k), at, np.tile(frame._val, n))


def _units(n: int, rows: np.ndarray):
    """The n x len(rows) frame of unit vectors e_rows[c] (phase 1), as an
    index form from _DEFLATE_MIN_SIZE entries and as an array below."""
    _check_form_bytes(rows.size, "a unit-vector frame")
    return _form_or_dense((n, rows.size), rows.astype(np.intp), np.ones(rows.size, dtype=np.complex128))


def _take(x, rows: np.ndarray | None, cols: np.ndarray) -> np.ndarray:
    """The array x[rows][:, cols] of an array or a form (``rows`` None for
    every row): a copy of a split form's core when those are its core
    lines, with no array built, and otherwise read from its array."""
    if _has_core(x) and rows is not None and np.array_equal(rows, x._core[0]) and np.array_equal(cols, x._core[1]):
        return x._core[2].copy()
    x = dense(x, "X")
    return x[:, cols] if rows is None else x[np.ix_(rows, cols)]


def matmul(a, b):
    """``a @ b`` for matrices and forms.  For an index form b, whose column
    j is v_j e_(r_j), the gather a[:, r] * v (see the module docstring);
    for two forms, their composition (``_compose``); otherwise
    ``np.matmul``.  Nothing is scanned."""
    if type(b) is not _Monomial:
        return np.matmul(dense(a, "a left factor"), b)
    if type(a) is _Monomial:
        return _compose(a, b)
    if b._core is not None:
        return np.matmul(a, dense(b, "a right factor"))
    out = a[:, b._at]
    out *= b._val  # the gather is a fresh array
    return out


def _compose(a: _Monomial, b: _Monomial):
    """a b for two forms.  Two index forms compose into the form whose
    column j holds a's entry in column r_j times v_j.  A split form times
    an index form is a gather of its columns.  Two split forms compose by
    parts when no cross term lives (b's isolated entries avoid a's core
    columns, and b's core rows avoid a's isolated entries): the index
    parts compose as above and the cores multiply over the lines they
    share, C_a C_b on a's core rows and b's core columns (see the module
    docstring).  Any other pair is multiplied as arrays."""
    shape = (a.shape[0], b.shape[1])
    if b._core is None and a._core is not None:
        return matmul(dense(a, "a left factor"), b)
    if b._core is None:
        _check_form_bytes(b.shape[1], "a product of index forms")
        return _form_or_dense(shape, a._at[b._at], a._val[b._at] * b._val)
    if a._core is None or _crossed(a, b):
        return np.matmul(dense(a, "a left factor"), dense(b, "a right factor"))
    (ra, ka, ca), (rb, kb, cb) = a._core, b._core
    _check_form_bytes(b.shape[1], "a product of split forms")
    check_bytes(ENTRY_BYTES * ra.size * kb.size, "the core of a product of split forms")
    if not np.array_equal(ka, rb):
        _, pa, pb = np.intersect1d(ka, rb, assume_unique=True, return_indices=True)
        ca, cb = ca[:, pa], cb[pb]
    return _form_or_dense(shape, a._at[b._at], a._val[b._at] * b._val, (ra, kb, np.matmul(ca, cb)))


def _crossed(a: _Monomial, b: _Monomial) -> bool:
    """A cross term of a b lives, for two split forms: one of b's isolated
    entries sits in a core column of a, or a core row of b in a column of
    one of a's isolated entries."""
    in_core = np.zeros(a.shape[1], dtype=bool)
    in_core[a._core[1]] = True
    return bool(in_core[b._at[b._val != 0]].any() or a._val[b._core[0]].any())


def _difference(a, b):
    """a - b; by parts for two split forms of one support (the same core
    lines, and index parts whose nonzeros sit on the same places), each
    value the dense subtraction's; otherwise of the arrays."""
    if _has_core(a) and _has_core(b) and a.shape == b.shape:
        (ra, ka, ca), (rb, kb, cb) = a._core, b._core
        places = np.where(a._val != 0, a._at, -1), np.where(b._val != 0, b._at, -1)
        if np.array_equal(ra, rb) and np.array_equal(ka, kb) and np.array_equal(*places):
            return _Monomial(a.shape, a._at, a._val - b._val, (ra, ka, ca - cb))
    return dense(a, "a difference") - dense(b, "a difference")


def opnorm(m) -> float:
    """Spectral norm; 0.0 for empty matrices.  A split form's is the larger
    of its isolated moduli and its core's, read off its parts."""
    if _is_form(m):
        return float(np.abs(m._val).max(initial=0.0))  # what the split finds on its isolated entries
    core, _, _, (_, _, v) = _deflate(_as_operator(m))
    top = float(np.abs(v).max(initial=0.0))
    if core.size:
        top = max(top, float(_svd(core, False, compute_uv=False)[0]))
    return top


# Relative slack that widens both Frobenius bounds of norm_within; far
# above the roundoff of the Frobenius sum and of LAPACK's sigma_max.
NORM_SLACK = 1e-6


def _norm_bounds(a) -> tuple:
    """(lo, hi) around the computed opnorm(a): the Frobenius bounds, each
    widened by NORM_SLACK (see the module docstring); (0.0, 0.0)
    for a zero or empty matrix, and (0.0, inf) when the sum of squares
    may have under- or overflowed.  A split form's Frobenius norm is the
    hypot of its index values' and its core's."""
    split = type(a) is _Monomial
    fro = math.hypot(float(np.linalg.norm(a._val)), float(np.linalg.norm(a._core[2]))) if split else float(np.linalg.norm(a))
    if 1e-140 <= fro <= 1e140:
        return fro * (1.0 - NORM_SLACK) / math.sqrt(min(a.shape)), fro * (1.0 + NORM_SLACK)
    if not (a._val.any() or a._core[2].any() if split else a.any()):
        return 0.0, 0.0
    return 0.0, math.inf


def norm_within(m, cutoff: float) -> bool:
    """``opnorm(m) <= cutoff``, decided from the Frobenius bounds when the
    cutoff lies outside them and from ``opnorm`` otherwise.  A form is
    decided from ``opnorm``: an index form's norm is its largest modulus,
    inside the band, and a split form's takes one SVD of its core."""
    if type(m) is _Monomial:
        return opnorm(m) <= cutoff
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
    return bool(defects_within(defect, tol))


def defects_within(defects: np.ndarray, tol: Tolerance) -> np.ndarray:
    """``defect_within`` of each entry, as one array comparison."""
    return defects <= tol.incl_abs


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
    equal each other bit for bit.  When F is an index form, ``A @ F`` is a
    gather instead, as in :func:`matmul`: each column of F picks one
    column of ``block`` and scales it into its row block.
    Each application checks the bytes of its largest array from shapes
    before allocating it; ``to_dense`` is the only place the matrix is
    built.
    """

    __slots__ = ("block", "n", "left", "right", "shape")
    __array_ufunc__ = None  # ndarray @ A defers to __rmatmul__

    def __init__(self, block, n: int, left: np.ndarray | None, right: np.ndarray | None):
        if type(block) is _Monomial and (block._core is not None or left is not None or right is not None):
            block = dense(block, "an amplified block")  # index forms live in identity coordinates
        self.block, self.n, self.left, self.right = block, n, left, right
        p, q = block.shape
        self.shape = (n * p if left is None else left.shape[0], n * q if right is None else right.shape[1])

    def _check_application(self, count: int) -> None:
        nbytes = ENTRY_BYTES * count * self.n * max(self.block.shape)
        check_bytes(nbytes, f"an amplification applied to {count} vectors")

    def _dense_block(self) -> np.ndarray:
        return dense(self.block, "an amplified block")

    def __matmul__(self, f):
        """An index form ``f`` is read from its index; with an index-form
        block the product is an index form too (identity coordinates)."""
        f = f if _is_form(f) else np.asarray(dense(f, "an amplified operand"))
        if len(f.shape) != 2 or f.shape[0] != self.shape[1]:
            raise DimensionMismatch(f"amplification of shape {self.shape} applied to shape {f.shape}")
        k = f.shape[1]
        p, q = self.block.shape
        if type(f) is _Monomial and self.right is not None:
            f = dense(f, "an amplified operand")
        g = f if self.right is None else self.right @ f
        if type(g) is _Monomial and type(self.block) is _Monomial:
            # column c of g is v_c e_(b q + t): its image is the block's
            # entry in column t times v_c, in row b p + (that entry's row)
            _check_form_bytes(k, f"an amplification applied to {k} vectors")
            b, t = np.divmod(g._at, q)
            return _form_or_dense((self.n * p, k), b * p + self.block._at[t], self.block._val[t] * g._val)
        self._check_application(k)
        if type(g) is not _Monomial:
            out = np.matmul(self._dense_block(), g.reshape(self.n, q, k)).reshape(self.n * p, k)
        else:
            # column c of g is v_c e_(b q + t): its image is v_c times
            # column t of the block, placed in row block b
            b, t = np.divmod(g._at, q)
            v = g._val
            out = np.zeros((self.n, p, k), dtype=np.complex128)
            columns = self._dense_block()[:, t]
            columns *= v
            out[b, :, np.arange(k)] = columns.T
            out = out.reshape(self.n * p, k)
        return out if self.left is None else self.left @ out

    def __rmatmul__(self, m):
        """With ``m`` and the block both index forms the product is an
        index form (identity coordinates): column b q + t of the output is
        w_t times column b p + s_t of m, for the block's entry w_t in row
        s_t of column t, the product the gather below forms."""
        m = m if _is_form(m) else np.asarray(dense(m, "an amplified operand"))
        if len(m.shape) != 2 or m.shape[1] != self.shape[0]:
            raise DimensionMismatch(f"shape {m.shape} applied to an amplification of shape {self.shape}")
        r = m.shape[0]
        p, q = self.block.shape
        if type(m) is _Monomial and type(self.block) is _Monomial:
            _check_form_bytes(self.n * q, f"{r} rows of an amplification")
            s, w = self.block._at, self.block._val
            t = np.flatnonzero(w)
            src = (np.arange(self.n)[:, None] * p + s[t]).ravel()
            dst = (np.arange(self.n)[:, None] * q + t).ravel()
            live = np.flatnonzero(m._val[src])  # a zero column of m adds nothing
            at, val = np.zeros(self.n * q, dtype=np.intp), np.zeros(self.n * q, dtype=np.complex128)
            at[dst[live]] = m._at[src[live]]
            val[dst[live]] = m._val[src[live]] * np.tile(w[t], self.n)[live]
            return _Monomial((r, self.n * q), at, val)
        m = dense(m, "an amplified operand")
        self._check_application(r)
        g = m if self.left is None else m @ self.left
        blocks = np.matmul(g.reshape(r, self.n, p).transpose(1, 0, 2), self._dense_block())
        out = blocks.transpose(1, 0, 2).reshape(r, self.n * q)
        return out if self.right is None else out @ self.right

    def to_dense(self) -> np.ndarray:
        """The matrix, for the callers that take a kernel or span of the
        whole map; its bytes are checked in formal coordinates first."""
        p, q = self.block.shape
        check_bytes(ENTRY_BYTES * self.n**2 * p * q, "an amplification")
        formal = eye_kron(self.n, self._dense_block())
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

    def __init__(self, a: np.ndarray, full_matrices: bool = False, deflated: tuple | None = None):
        self.shape, self.split = a.shape, _has_core(a)
        core, self.rows, self.cols, (self.i, self.j, self.v) = _deflate(a) if deflated is None else deflated
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

    def pinv(self, cut: float):
        """The pseudoinverse over the singular values above ``cut``: the
        core's V diag(1/s) U* scattered back, and 1/v at (j, i) for each
        kept isolated entry; for a split form, the split form of those
        parts (the same values, unscattered)."""
        core = _pinv_from_svd(self.u, self.core_s, self.vh, cut)
        if self.split:
            kept = np.abs(self.v) > cut
            at, val = np.zeros(self.shape[0], dtype=np.intp), np.zeros(self.shape[0], dtype=np.complex128)
            at[self.i[kept]], val[self.i[kept]] = self.j[kept], 1.0 / self.v[kept]
            lines = [np.arange(n) if mask is None else np.flatnonzero(mask) for mask, n in ((self.cols, self.shape[1]), (self.rows, self.shape[0]))]
            return _Monomial(self.shape[::-1], at, val, (*lines, core))
        out = _scatter(core, self.shape[::-1], self.cols, self.rows)
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
    return dense(_pinv(_as_operator(m), tol), "a pseudoinverse")


def _pinv(a, tol: Tolerance):
    """``pseudoinverse`` of an array or a form; a split form's is a split
    form, with no array built."""
    split = _SplitSVD(a)
    return split.pinv(split.cut(a.shape, tol)[0])


def _pinv_from_svd(u, s, vh, cut: float) -> np.ndarray:
    """V diag(1/s) U* over the singular values above the cutoff."""
    inv = np.where(s > cut, 1.0 / np.where(s > cut, s, 1.0), 0.0)
    return herm(vh) @ (inv[:, None] * herm(u))


def range_frame(m, tol: Tolerance, scale_floor: float = 0.0) -> np.ndarray:
    """Orthonormal column basis of the range of m."""
    a = as_matrix(m)
    return dense(_range_frame_cut_as(a, a.shape, tol, scale_floor), "a range frame")


def _range_frame_cut_as(a: np.ndarray, shape, tol: Tolerance, scale_floor: float) -> np.ndarray:
    """Orthonormal column basis of the range of ``a``, cut as a matrix of
    ``shape``: rank_rel * max(sigma_0, scale_floor) * max(shape).  A thin
    spanning set that stands in for a wider matrix with the same range
    keeps that matrix's cutoff.

    Past _DEFLATE_MIN_SIZE entries, a square or wide core whose singular
    values (taken without vectors) all clear the cut fills its rows, so
    the frame is the unit vectors of the core's rows and of the kept
    isolated entries' rows, in row order (see the module docstring);
    otherwise the same deflation is factored with vectors and cut.  A
    frame of unit vectors is returned as an index form (``_units``), and
    an index form ``a`` is cut from its own entries
    (``_monomial_range_frame``); a split form is deflated from its parts."""
    if _is_form(a):
        return _monomial_range_frame(a, shape, tol, scale_floor)
    deflated = _deflate(a)
    core, rows, _, (i, _, v) = deflated
    if a.size >= _DEFLATE_MIN_SIZE and 0 < core.shape[0] <= core.shape[1]:
        s, moduli = _svd(core, False, compute_uv=False), np.abs(v)
        cut = rank_threshold(np.maximum(s[:1], moduli.max(initial=0.0)), shape, tol, scale_floor)
        if s[-1] > cut:
            kept = np.ones(a.shape[0], dtype=bool) if rows is None else rows.copy()
            kept[i[moduli > cut]] = True
            return _units(a.shape[0], np.flatnonzero(kept))
    split = _SplitSVD(a, deflated=deflated)
    return split.left(split.cut(shape, tol, scale_floor)[1])


def _monomial_range_frame(f: _Monomial, shape, tol: Tolerance, scale_floor: float):
    """What the split SVD gives for the range of an index form: every
    nonzero is isolated and the core is empty, so the frame is the unit
    vectors (phase 1) of the rows of the nonzeros by descending modulus
    (``_by_modulus``)."""
    _, rows, val = f._live()
    by_row = np.argsort(rows)
    return _units(f.shape[0], _by_modulus(rows[by_row], np.abs(val[by_row]), shape, tol, scale_floor))


def _by_modulus(rows: np.ndarray, moduli: np.ndarray, shape, tol: Tolerance, scale_floor: float) -> np.ndarray:
    """The rows of the split SVD's range frame of isolated entries alone,
    given in row order with their moduli: sorted stably by descending
    modulus and cut at ``shape``.  Each column of that frame is the unit
    vector of value 1 of its row."""
    order = np.argsort(-moduli, kind="stable")
    s = moduli[order]
    return rows[order[: int(np.sum(s > rank_threshold(s, shape, tol, scale_floor)))]]


def _unit_rows(frame) -> np.ndarray | None:
    """The rows of a frame, an array or an index form, whose every column
    is a unit vector of value exactly 1 + 0j, in column order; None
    otherwise."""
    if _is_form(frame):
        rows, val = frame._at, frame._val
    else:
        frame = dense(frame, "a frame")
        nonzero = frame != 0
        if (nonzero.sum(axis=0) != 1).any():
            return None
        rows = nonzero.argmax(axis=0)
        val = frame[rows, np.arange(rows.size)]
    return rows if (val == 1).all() and not np.signbit(val.imag).any() else None


# The singular values of an empty core, and the one of a unit column.
_NO_VALUES, _ONE = np.zeros(0), np.ones(1)
_NO_VALUES.setflags(write=False)
_ONE.setflags(write=False)


class _RowSteps:
    """The range frames of X F for the steps of one subspace iteration, with
    F held as a set of rows (see the module docstring).  X (h x blocks * m)
    is fixed, of at least _DEFLATE_MIN_SIZE entries, an array or a form,
    and read into its nonzeros by column (``_column_nonzeros``: kept on a
    form, so the iterations of one operator read them once); F's columns
    are the unit vectors e_(b m + r) of value 1 for each block b and,
    within a block, each given row r of C^m in its order (I_blocks (x) the
    unit frame of those rows).  ``step`` and ``residual`` return the rows
    of a frame of unit vectors, or None where the frame is not decided by
    index; both count X F from the scan (``_decided``), which keeps the
    counts ``peel`` reads, so each iteration makes its own stepper.  Each
    core's singular values are kept by (core rows, core columns), with the
    nonzeros.  ``peel`` and ``walk`` take an iteration's remaining steps in
    one pass where the module docstring shows that exact."""

    __slots__ = ("x", "blocks", "row", "col", "val", "start", "at", "first", "unit", "values", "count", "core", "mod", "s")

    def __init__(self, x, blocks: int):
        self.x, self.blocks, self.unit = x, blocks, None
        self.row, self.col, self.val, self.start, self.at, self.first, self.values = _column_nonzeros(x)

    def _columns(self, rows: np.ndarray) -> np.ndarray:
        """The columns of X that F picks, in F's column order."""
        if self.blocks == 1:
            return rows
        return (np.arange(self.blocks)[:, None] * (self.x.shape[1] // self.blocks) + rows).ravel()

    def product(self, rows: np.ndarray) -> np.ndarray:
        """X F, gathered as ``matmul`` gathers it from F's index form."""
        out = _take(self.x, None, self._columns(rows))
        out *= np.ones(out.shape[1], dtype=np.complex128)
        return out

    def step(self, rows: np.ndarray, shape, tol: Tolerance, scale_floor: float) -> np.ndarray | None:
        """The rows, in column order, of
        ``_range_frame_cut_as(self.product(rows), shape, tol, scale_floor)``
        when that frame is unit vectors decided by index: the full-row-rank
        rule (rows ascending) or a product with no core (the isolated
        entries' rows by descending modulus).  None otherwise, and below
        the gate even where X F is exactly zero."""
        if self.x.shape[0] * self.blocks * rows.size < _DEFLATE_MIN_SIZE:
            return None
        return self._decided(rows, None, shape, tol, scale_floor)

    def peel(self, shape, tol: Tolerance, scale_floor: float) -> np.ndarray | None:
        """The rows, in column order, of the iteration's last frame, read off
        the counts of a ``step`` from every row: X's support peeled to its
        greatest fixed point (drop each row that no nonzero of X reaches
        from the columns of the rows still kept), then decided by
        ``_decided_rows`` as the step at that point decides it.  None where
        the peel need not be the iteration's answer (see the module
        docstring): a dropped column holds a core entry, an isolated
        modulus does not clear this step's cut, or the fixed point is not
        empty and below the gate."""
        h, n = self.x.shape
        mod = self.mod
        cut = rank_threshold(np.array([max(self.s[:1].max(initial=0.0), mod.max())]), shape, tol, scale_floor)
        if ((mod > 0) & (mod <= cut)).any():
            return None
        count, core, at, first, step = self.count.tolist(), self.core.tolist(), self.at, self.first, n // self.blocks
        todo = [i for i, k in enumerate(count) if k == 0]
        while todo:
            for c in range(todo.pop(), n, step):  # the dropped row's column in each block
                for i in at[first[c] : first[c + 1]]:
                    if core[i]:
                        return None
                    count[i] -= 1
                    if count[i] == 0:
                        todo.append(i)
        keep = np.array(count) > 0
        if 0 < h * np.count_nonzero(keep) < _DEFLATE_MIN_SIZE:  # and so h * blocks * |S|: blocks >= 1
            return None
        return _decided_rows(self.core, np.where(keep, mod, 0.0), self.s, shape, tol, scale_floor)

    def _decided(self, rows: np.ndarray, held: np.ndarray | None, shape, tol: Tolerance, scale_floor: float):
        """The rows, in column order, of the range frame of X F for F's rows
        ``rows``, with the rows of ``held`` set to zero when given, read
        off X's nonzeros in F's columns: no rows when none is left (rank
        0); past the gate, ``_decided_rows`` of the deflation's counts
        (None for a tall core or an undecided one); None below the gate.
        Keeps per row the number of nonzeros (``count``), the core rows,
        the isolated moduli and the core's values (``s``) for ``peel``.  A
        column of X F is in the core iff it has two nonzeros or its one
        nonzero is in a core row."""
        h = self.x.shape[0]
        cols = self._columns(rows)
        lo = self.start[cols]
        length = self.start[cols + 1] - lo
        at = np.arange(int(length.sum())) + np.repeat(lo - np.cumsum(length) + length, length)
        t, i = np.repeat(np.arange(cols.size), length), self.row[at]  # each nonzero's column of X F, and row
        if held is not None:
            live = ~held[i]
            t, i, at = t[live], i[live], at[live]
        if i.size == 0:
            return i
        if h * cols.size < _DEFLATE_MIN_SIZE:
            return None
        count, col_count = np.bincount(i, minlength=h), np.bincount(t, minlength=cols.size)
        lone = (count[i] == 1) & (col_count[t] == 1)
        core, kept = count > 0, col_count > 0
        core[i[lone]] = False
        kept[t[lone]] = False
        mod = np.zeros(h)
        mod[i[lone]] = np.abs(self.val[at[lone]])
        core_rows, core_cols = np.flatnonzero(core), cols[kept]
        # None for a tall core; a step's core is scaled, as X F's gather is
        s = None if core_rows.size > core_cols.size else self._values(core_rows, core_cols, held is None)
        self.count, self.core, self.mod, self.s = count, core, mod, s
        return None if s is None else _decided_rows(core, mod, s, shape, tol, scale_floor)

    def _values(self, core_rows: np.ndarray, core_cols: np.ndarray, scaled: bool) -> np.ndarray:
        """The core's singular values (none for no core), taken once per
        (core rows, core columns); ``scaled`` multiplies the core by F's
        values, as the gather of X F does."""
        if core_rows.size == 0:
            return _NO_VALUES
        key = (core_rows.tobytes(), core_cols.tobytes(), scaled)
        s = self.values.get(key)
        if s is None:
            core = _take(self.x, core_rows, core_cols)
            if scaled:
                core *= np.ones(core_cols.size, dtype=np.complex128)
            s = self.values[key] = _svd(core, False, compute_uv=False)
        return s

    def residual_product(self, block: np.ndarray, held: np.ndarray) -> np.ndarray:
        """R = X F_block with the rows of ``held`` set to zero: the two
        classical Gram-Schmidt passes against the unit vectors of those
        rows, in value (Q* R is R on Q's rows, and Q times it adds exact
        zeros elsewhere)."""
        out = _take(self.x, None, self._columns(block))
        out[held] = 0
        return out

    def walk(self, r: int, held: np.ndarray, dim: int, width: int, tol: Tolerance) -> tuple:
        """Grow a span held by rows from the one-row block [r] (one block of
        X) over the lists of X's nonzeros: while column r has exactly one
        nonzero outside the held rows, its value is exactly 1 + 0j and 1
        clears the cut at the stacked shape (h, dim + width), with dim the
        held rows, that row is the next block (the one-column R is a unit
        vector of value 1, and its SVD's frame is +e_r at any size) and is
        held.  Returns (the rows added, in order, an index array; whether
        the last block's residual is exactly zero, which ends the growth);
        otherwise that residual is left to ``residual``."""
        h = self.x.shape[0]
        if self.unit is None:  # per nonzero of X, whether its value is exactly 1 + 0j
            self.unit = ((self.val == 1) & ~np.signbit(self.val.imag)).tolist()
        at, first, unit, mine, out = self.at, self.first, self.unit, held.tolist(), []
        clear = 1.0 > rank_threshold(_ONE, (h, h + width), tol, 1.0)  # at the widest stacked shape: at every one
        while True:
            outside = [k for k in range(first[r], first[r + 1]) if not mine[at[k]]]
            decided = len(outside) == 1 and unit[outside[0]]
            if not (decided and (clear or 1.0 > rank_threshold(_ONE, (h, dim + len(out) + width), tol, 1.0))):
                return np.array(out, dtype=np.intp), not outside
            r = at[outside[0]]
            mine[r] = True
            out.append(r)

    def residual(self, block: np.ndarray, held: np.ndarray, shape, tol: Tolerance) -> np.ndarray | None:
        """The rows, in column order, of
        ``_range_frame_cut_as(self.residual_product(block, held), shape, tol, 1.0)``
        when that frame is unit vectors decided by index, read off X's
        nonzeros in the block's columns: no rows when R is exactly zero
        (rank 0), and past the gate the full-row-rank rule or the no-core
        order.  None otherwise.  A one-column R that is a unit vector of
        value 1 is ``walk``'s, which takes it first."""
        return self._decided(block, held, shape, tol, 1.0)


def _column_nonzeros(x) -> tuple:
    """(row, col, val, start, row list, start list, core values): X's
    nonzeros by column, then by row (column c holds start[c]:start[c + 1]),
    the rows and starts again as lists for the Python loops, and the cache
    of core singular values that ``_RowSteps`` fills.  An array is scanned
    (a byte per entry and an index per nonzero, each checked first); a
    form's are read off its parts on the first call and kept on it."""
    if type(x) is _Monomial and x._scan is not None:
        return x._scan
    if type(x) is _Monomial:
        col, row, val = x._live()
        if x._core is not None:
            r, k, block = x._core
            at, c = np.nonzero(block)
            check_bytes(_INDEX_BYTES * (col.size + at.size), "the nonzeros of X")
            row, col, val = np.concatenate([row, r[at]]), np.concatenate([col, k[c]]), np.concatenate([val, block[at, c]])
            by_column = np.lexsort((row, col))
            row, col, val = row[by_column], col[by_column], val[by_column]
    else:
        check_bytes(x.size, "the scan of X")  # a mask of one byte per entry
        nonzero = (x != 0).T  # column by column
        check_bytes(_INDEX_BYTES * int(np.count_nonzero(nonzero)), "the nonzeros of X")  # each index array
        col, row = np.divmod(np.flatnonzero(nonzero), x.shape[0])
        val = x[row, col]
    start = np.concatenate([[0], np.cumsum(np.bincount(col, minlength=x.shape[1]))])
    scan = row, col, val, start, row.tolist(), start.tolist(), {}
    if type(x) is _Monomial:
        x._scan = scan
    return scan


def _decided_rows(core: np.ndarray, mod: np.ndarray, s: np.ndarray, shape, tol: Tolerance, scale_floor: float):
    """The rows of the range frame that a deflation decides from its core
    rows (a mask), the moduli of its isolated entries by row (0 elsewhere)
    and its square or wide core's singular values ``s``: with no core (no
    values) the isolated entries' rows by descending modulus
    (``_by_modulus``); when every core value clears the cut, the core rows
    and the kept isolated entries' rows, ascending; None otherwise."""
    if s.size == 0:
        at = np.flatnonzero(mod)
        return _by_modulus(at, mod[at], shape, tol, scale_floor)
    cut = rank_threshold(np.maximum(s[:1], mod.max()), shape, tol, scale_floor)
    return (core | (mod > cut)).nonzero()[0] if s[-1] > cut else None


def kernel_frame(m, tol: Tolerance, scale_floor: float = 0.0) -> np.ndarray:
    """Orthonormal column basis of the kernel of m, a matrix or an
    ``Amplification``, whose kernel in identity coordinates is I_n (x) F
    from its block (see the module docstring)."""
    if isinstance(m, Amplification) and m.left is None and m.right is None:
        inner = _kernel_frame_cut_as(as_matrix(m._dense_block()), m.shape, tol, scale_floor)
        check_bytes(ENTRY_BYTES * m.n**2 * inner.size, "an amplified kernel frame")
        return eye_kron(m.n, inner)
    a = _as_operator(m.to_dense() if isinstance(m, Amplification) else m)
    return _kernel_frame_cut_as(a, a.shape, tol, scale_floor)


def _kernel_frame_cut_as(a, shape, tol: Tolerance, scale_floor: float) -> np.ndarray:
    """Orthonormal column basis of the kernel of ``a``, an array or a
    form, cut as a matrix of ``shape``; the larger of the full SVD's U and
    V is checked first.  Past _DEFLATE_MIN_SIZE entries, a square or tall
    core whose singular values (taken without vectors) all clear the cut,
    with the isolated entries' moduli, has full column rank and adds no
    kernel vector, so no singular vector is computed (the full-row-rank
    rule of ``_range_frame_cut_as``, on the columns, with its error
    argument); otherwise the same deflation is factored in full."""
    check_bytes(ENTRY_BYTES * max(a.shape) ** 2, "a kernel frame's full SVD")
    deflated = _deflate(a)
    core, _, cols, (_, j, v) = deflated
    inner = None
    if a.size >= _DEFLATE_MIN_SIZE and 0 < core.shape[1] <= core.shape[0]:
        s = _svd(core, False, compute_uv=False)
        cut = rank_threshold(np.maximum(s[:1], np.abs(v).max(initial=0.0)), shape, tol, scale_floor)
        inner = np.zeros((core.shape[1], 0), dtype=np.complex128) if s[-1] > cut else None
    if inner is None:
        split = _SplitSVD(a, full_matrices=True, deflated=deflated)
        cut, _ = split.cut(shape, tol, scale_floor)
        # an empty core's vh is the identity of its columns, the whole kernel
        inner = herm(split.vh[int(np.sum(split.core_s > cut)) :]) if split.core_s.size else split.vh
    if cols is None:
        return inner
    # the kernel of the core on its columns, then the unit vectors of the
    # zero columns and of the columns of isolated entries cut as zero
    dead = ~cols
    dead[j[np.abs(v) > cut]] = False
    dead = np.flatnonzero(dead)
    frame = np.zeros((a.shape[1], inner.shape[1] + dead.size), dtype=np.complex128)
    frame[cols, : inner.shape[1]] = inner
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
    accepts it.  A frame of unit vectors that this module builds (a span
    of an index form, or the full-row-rank rule of
    ``_range_frame_cut_as``) is held as an index form, which ``span``,
    ``image`` and ``is_subset`` read as it is; ``frame`` is the array,
    built on the first read.
    """

    _frame: object

    def __post_init__(self):
        object.__setattr__(self, "_frame", _as_operator(self._frame))

    @property
    def frame(self) -> np.ndarray:
        return dense(self._frame, "a subspace frame")

    @property
    def ambient_dim(self) -> int:
        return self._frame.shape[0]

    @property
    def dim(self) -> int:
        return self._frame.shape[1]

    def projector(self) -> np.ndarray:
        """F F*, its d x d bytes checked first."""
        check_bytes(ENTRY_BYTES * self.ambient_dim**2, "a projector")
        return self.frame @ herm(self.frame)

    @staticmethod
    def whole(d: int) -> "Subspace":
        """C^d, its frame the unit vectors of every row: an index form
        from _DEFLATE_MIN_SIZE entries and the identity below."""
        return Subspace(_units(d, np.arange(d)) if d * d >= _DEFLATE_MIN_SIZE else eye(d))

    @staticmethod
    def zero(d: int) -> "Subspace":
        return Subspace(np.zeros((d, 0), dtype=np.complex128))

    @staticmethod
    def span(columns, tol: Tolerance) -> "Subspace":
        """Subspace spanned by the columns of a matrix (need not be
        orthonormal or independent), a matrix or an index form."""
        a = _as_operator(columns)
        return Subspace(_range_frame_cut_as(a, a.shape, tol, 1.0))

    @staticmethod
    def kernel(m, tol: Tolerance) -> "Subspace":
        """Kernel of an operator, a matrix or an ``Amplification``, with the
        same unit scale floor as span."""
        return Subspace(kernel_frame(m, tol, scale_floor=1.0))


def _check_same_ambient(s1: Subspace, s2: Subspace):
    if s1.ambient_dim != s2.ambient_dim:
        raise DimensionMismatch(
            f"ambient dimensions differ: {s1.ambient_dim} vs {s2.ambient_dim}"
        )


def ortho_complement(s: Subspace, tol: Tolerance) -> Subspace:
    """N(F*) for the frame F of S.  When F is an index form of unit vectors
    (value 1) on distinct rows, every entry of F* is isolated with modulus
    1, so the kernel frame is the unit vectors of the other rows,
    ascending, as the split SVD gives it, read off F's rows."""
    rows = _unit_rows(s._frame) if _is_form(s._frame) else None
    if rows is not None and 1.0 > tol.rank_rel * max(s._frame.shape):
        rest = np.ones(s.ambient_dim, dtype=bool)
        rest[rows] = False
        if rows.size + np.count_nonzero(rest) == s.ambient_dim:
            return Subspace(_units(s.ambient_dim, np.flatnonzero(rest)))
    return Subspace(kernel_frame(herm(s.frame), tol))


def _inclusion_gap(s1: Subspace, s2: Subspace) -> np.ndarray:
    """(I - P2) F1, formed from the frames as F1 - F2 (F2* F1) and never
    through the d x d projector P2.  When both frames are index forms
    (unit vectors, phase 1) every product term is 1 * 1 or 0, so the gap
    is exactly F1's columns whose row F2 lacks, and it is an index form."""
    _check_same_ambient(s1, s2)
    if _is_form(s1._frame) and _is_form(s2._frame):
        f1, f2 = s1._frame, s2._frame
        _check_form_bytes(f1.shape[1], "an inclusion gap")
        held = np.zeros(f2.shape[0], dtype=bool)
        held[f2._at[f2._val != 0]] = True
        return _Monomial(f1.shape, f1._at, np.where(held[f1._at], 0, f1._val))
    return s1.frame - matmul(s2.frame, matmul(herm(s2.frame), s1._frame))


def _unit_frame_defects(s1: Subspace, s2: Subspace) -> tuple:
    """(||F1* F2||, ||P1 + P2 - I||) where the frames decide them by their
    rows, each None otherwise.  For two index forms of unit vectors of
    value 1 on disjoint rows F1* F2 is an exact zero matrix, and when the
    rows also cover C^d, P1 + P2 - I is one: the dense opnorm of either is
    0.0.  Shared rows, or frames held as arrays, decide nothing here."""
    _check_same_ambient(s1, s2)
    if not (_is_form(s1._frame) and _is_form(s2._frame)):
        return None, None
    r1, r2 = _unit_rows(s1._frame), _unit_rows(s2._frame)
    if r1 is None or r2 is None:
        return None, None
    seen = np.zeros(s1.ambient_dim, dtype=bool)
    seen[r1] = True
    if seen[r2].any():
        return None, None
    return 0.0, (0.0 if r1.size + r2.size == s1.ambient_dim else None)


def inclusion_defect(s1: Subspace, s2: Subspace) -> float:
    """||(I - P2) F1||; 0.0 when S1 is zero."""
    return opnorm(_inclusion_gap(s1, s2))


def is_subset(s1: Subspace, s2: Subspace, tol: Tolerance) -> bool:
    """S1 <= S2 iff ||(I - P2) F1|| <= incl_abs."""
    return norm_within(_inclusion_gap(s1, s2), tol.incl_abs)


def ominus(s1: Subspace, s2: Subspace, tol: Tolerance) -> Subspace:
    """S1 (-) S2 for nested S2 <= S1: the span of the inclusion gap
    (I - P2) F1, so two index-form frames give an index form."""
    if not is_subset(s2, s1, tol):
        raise DomainError("ominus: second subspace is not contained in the first")
    return Subspace.span(_inclusion_gap(s1, s2), tol)


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
    # an amplification is applied block by block, to an index-form frame
    # from its index; a matrix is multiplied whole, and the span splits off
    # the product's zero lines and isolated entries
    return Subspace.span(a @ s._frame if isinstance(a, Amplification) else a @ s.frame, tol)


# ---------------------------------------------------------------------------
# Operator predicates
# ---------------------------------------------------------------------------


def partial_isometry_residual(m, tol: Tolerance) -> tuple:
    """The triple-product residual ||M M* M - M|| and the partial-isometry
    verdict residual <= eq_rel * ||M||.

    A matrix whose norm is below rank_rel on the unit scale is roundoff
    dust left by a cancellation; it is indistinguishable from the zero
    operator, which is a partial isometry.

    A monomial M is decided from its entries (``_live_part``); a split
    form's residual is reported on its live part, as an array.
    """
    a, triple = _live_part(dense(m, "an operator") if _has_core(m) else m)
    if triple is not None:
        scale, residual = triple
        return residual, scale <= tol.rank_rel or residual <= tol.eq_rel * scale
    residual = opnorm(_triple_defect(a))
    return residual, _partial_isometry_verdict(dense(a, "a live part"), (residual, residual), lambda: residual, tol)


def is_partial_isometry(m, tol: Tolerance) -> bool:
    """The verdict of partial_isometry_residual, with the residual screened
    like ||M||."""
    a, triple = _live_part(m)
    if triple is not None:
        scale, residual = triple
        return scale <= tol.rank_rel or residual <= tol.eq_rel * scale
    defect = _triple_defect(a)
    a = a if _has_core(a) else dense(a, "a live part")
    return _partial_isometry_verdict(a, _norm_bounds(defect), lambda: opnorm(defect), tol)


def _live_part(m) -> tuple:
    """(A, None): M without its exactly-zero rows and columns
    (``_live_lines``), which change no norm and no triple defect; or
    (None, (||M||, ||M M* M - M||)) when M is decided from its entries.
    A split form is its own live part, since it stores no zero line: its
    triple defect is formed by parts (``_triple_defect``), and the norms
    of both are screened and taken from their parts.

    An index form, or an array that one scan finds monomial
    (``_index_form``), is read from its k nonzeros.  When its live part
    has at least _DEFLATE_MIN_SIZE entries (k * k) it is decided: the
    triple defect's entry at v is (v conj(v)) v - v, the two products the
    gathers of ``_triple_defect`` form, and both norms are largest moduli,
    as the split finds them on isolated entries (so the Frobenius screen,
    whose band holds them, decides nothing else); a defect that overflowed
    raises DomainError, as ``opnorm`` of the dense one does.  Below that
    its live part is the k x k index form of those nonzeros, rows and
    columns in index order, so the products of ``_triple_defect`` are
    gathers.  An array of fewer than _DEFLATE_MIN_SIZE entries is returned
    as it is."""
    if _has_core(m):
        return m, None
    if type(m) is not _Monomial:
        a = as_matrix(m)
        lines = _nonzero_lines(a)
        if lines is None:
            return a, None
        m = _index_form(a, lines)
        if m is None:
            return a[_ix(*_live_lines(a, lines))], None
    _, rows, val = m._live()
    if val.size * val.size < _DEFLATE_MIN_SIZE:
        return _Monomial((val.size, val.size), np.argsort(np.argsort(rows)), val), None
    defect = (val * np.conj(val)) * val - val
    if not np.isfinite(defect).all():
        raise DomainError("matrix has non-finite entries")
    return None, (float(np.abs(val).max(initial=0.0)), float(np.abs(defect).max(initial=0.0)))


def _triple_defect(a):
    """A A* A - A, multiplied in that order; a split form's by parts."""
    return _difference(matmul(matmul(a, _adjoint(a)), a), a)


def _partial_isometry_verdict(a, residual_bounds: tuple, residual, tol: Tolerance) -> bool:
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


def _frame_gram_residual(x, x_h, f) -> float:
    """||F* X* X F - I|| for an orthonormal frame F of N(X)^perp, given
    X* as ``x_h``."""
    k = f.shape[1]
    if k == 0:
        return 0.0
    return opnorm(dense(matmul(matmul(matmul(_adjoint(f), x_h), x), f), "a frame Gram") - eye(k))


def _outer(f) -> np.ndarray:
    """F F*, an array."""
    return dense(matmul(f, _adjoint(f)), "F F*")


def _frames_and_pinv(a, tol: Tolerance) -> tuple:
    """Orthonormal frames of R(A) and R(A*) and the pseudoinverse of a
    nonempty A, an array or an index form, all from one thin SVD cut as
    ``range_frame`` and ``pseudoinverse`` cut it."""
    split = _SplitSVD(a)
    cut, r = split.cut(a.shape, tol)
    return split.left(r), split.right(r), split.pinv(cut)


def classify_operator(m, tol: Tolerance) -> ClassificationReport:
    """Contraction, isometry and the six-way partial-isometry diagnostic.

    ||M|| is computed once.  The frames of R(M) and R(M*), the rank and
    the pseudoinverse all come from one thin SVD of M, cut at the same
    ``rank_threshold`` as ``range_frame`` and ``pseudoinverse``; the
    verdict itself is ``partial_isometry_residual``.  M, an array or an
    index form, and the two frames are taken as index forms where one
    scan finds them monomial (``_index_form``), so every product with
    such a right factor is a gather; an index form M is not scanned, and
    its array is not built.
    """
    t = _as_operator(m)
    t = dense(t, "the operator") if _has_core(t) else t  # its report is the array's
    t = t if type(t) is _Monomial else (_index_form(t) or t)
    t_h = _adjoint(t)
    norm = opnorm(t)
    gram = dense(matmul(t_h, t), "T* T")
    iso_res = opnorm(gram - eye(t.shape[1]))
    if norm <= tol.rank_rel:
        # numerically the zero operator: every characterization holds
        residuals = dict.fromkeys(_CONDITIONS, 0.0)
        verdicts = dict.fromkeys(_CONDITIONS, True)
    else:
        final, initial, pinv = _frames_and_pinv(t, tol)  # initial spans R(M*) = N(M)^perp
        final, initial = (_index_form(f) or f for f in (final, initial))
        triple, triple_ok = partial_isometry_residual(t, tol)
        residuals = {
            "norm_on_cokernel": _frame_gram_residual(t, t_h, initial),
            "adjoint_norm": _frame_gram_residual(t_h, t, final),
            "triple_product": triple,
            "initial_projection": opnorm(gram - _outer(initial)),
            "final_projection": opnorm(dense(matmul(t, t_h), "T T*") - _outer(final)),
            "pinv_is_adjoint": opnorm(pinv - dense(t_h, "M*")),
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
