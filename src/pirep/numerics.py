"""Dense complex linear algebra with an explicit tolerance discipline.

Matrices are plain ``numpy.ndarray`` values of dtype complex128.  Every
rank, frame, pseudoinverse, and subspace-inclusion decision made
anywhere in the package reduces to the primitives in this module, and
every such decision is governed by a single :class:`Tolerance` value:

* ``rank_rel``  -- a singular value sigma counts as zero iff
  ``sigma <= rank_rel * sigma_max * max(rows, cols)``,
* ``eq_rel``    -- operator identities ``A == B`` are accepted iff
  ``||A - B|| <= eq_rel * scale`` in spectral norm,
* ``incl_abs``  -- a subspace inclusion ``S1 <= S2`` is accepted iff
  ``||(I - P2) F1|| <= incl_abs`` for an orthonormal frame F1 of S1.

Every dense array that grows with a tensor power (Grams, lifts,
amplifications, full kernel frames, sigma(a) and stacks of it and of the
induced actions) is checked against one byte budget, ``DENSE_BYTES``,
from its shape and before it is allocated: the site that builds it calls
:func:`check_bytes`.

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
claim or the benchmark builds (30 MB); LAPACK's largest singular value
is backward stable, with a relative error of at most rows * cols *
2**-53, below 1e-8 for any array the budget admits.  Outside the band
the screened verdict is therefore the exact one.  A Frobenius norm
outside [1e-140, 1e140], where the sum of squares could under- or
overflow, is not screened.  No reported value comes from the screen:
every residual, norm and defect that a report or the CLI prints is an
exact ``opnorm``.

Every factorization, every norm and the products of the
partial-isometry verdict and of the lift powers first drop the
exactly-zero rows and columns of an array of at least
``_DEFLATE_MIN_SIZE`` entries (:func:`_live_lines`), so a lift power,
h x N**m h of rank at most h, is factored at its rank and not its width.
This is exact: deleting zero rows and columns changes no nonzero
singular value, rank, range, kernel (beyond the unit vectors of the zero
columns, which the kernel gets back), pseudoinverse (zero rows and
columns scatter back), norm or defect T T* T - T (zero wherever T has a
zero row or column).  Every rank cut stays the one of the original
shape.  A floating-point product only loses exact-zero terms, so where
each entry is a sum of at most one nonzero term, as in every product of
weighted-shift matrices, the product is the dense one bit for bit, and
the shift verdicts and power-report residuals with it; elsewhere it may
round in another order, within the dense product's own error bound.
LAPACK is backward stable on the smaller matrix, with an error bound in
its (smaller) dimensions.  The Frobenius screen's lower bound
``||A||_F / sqrt(min(shape))`` stays valid for the compressed shape.
Below the gate nothing is scanned and the dense path runs as it is: on a
2-core x86 host with one BLAS thread the scan costs about 7 us at 72
entries (11% of a thin SVD) and 20 us at 4,096 (2%).

All values are immutable after construction; nothing here mutates its
inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, NumericFailure, ResourceLimit

# Bytes one dense array may take.  The largest array a claim, a CLI path or
# the benchmark builds is 30 MB (an amplification on a 217-dimensional
# shift); 2**30 still admits the 512 MB amplifications of a power report
# on a shift with n = 3, M = 120 at n_max = 4.
DENSE_BYTES = 2**30

# Bytes per complex128 entry.
ENTRY_BYTES = 16


def check_bytes(nbytes: int, what: str) -> None:
    """Refuse an array of ``nbytes`` before it is allocated.  Reads
    ``DENSE_BYTES`` at call time."""
    if nbytes > DENSE_BYTES:
        raise ResourceLimit(f"{what} needs {nbytes} bytes, over the budget {DENSE_BYTES}")


@dataclass(frozen=True)
class Tolerance:
    """Numeric policy shared by all decision procedures."""

    rank_rel: float = 1e-10
    eq_rel: float = 1e-8
    incl_abs: float = 1e-8

    def __post_init__(self):
        for name in ("rank_rel", "eq_rel", "incl_abs"):
            value = getattr(self, name)
            if not (value > 0.0):
                raise DomainError(f"tolerance {name} must be strictly positive")
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
# (see the module docstring); below it the scan costs more than it saves.
_DEFLATE_MIN_SIZE = 4096


def _live_lines(a: np.ndarray) -> tuple:
    """Boolean masks of the rows and of the columns of ``a`` that hold a
    nonzero entry, each None when it would keep every line or when ``a``
    has fewer than _DEFLATE_MIN_SIZE entries."""
    if a.size < _DEFLATE_MIN_SIZE:
        return None, None
    nonzero = a != 0
    rows, cols = nonzero.any(axis=1), nonzero.any(axis=0)
    return (None if rows.all() else rows), (None if cols.all() else cols)


def _ix(rows, cols) -> tuple:
    """Index of the submatrix on the kept rows and columns (None keeps all)."""
    if rows is None or cols is None:
        return (slice(None) if rows is None else rows), (slice(None) if cols is None else cols)
    return np.ix_(rows, cols)


def _deflate(a: np.ndarray) -> tuple:
    """(core, rows, cols): ``a`` without its exactly-zero rows and columns
    (a view of all of ``a`` when nothing is dropped), and the masks of
    :func:`_live_lines`."""
    rows, cols = _live_lines(a)
    return a[_ix(rows, cols)], rows, cols


def _scatter(x: np.ndarray, shape, rows, cols) -> np.ndarray:
    """``x`` placed on the given rows and columns of a zero matrix of
    ``shape``; ``x`` itself when both masks are None."""
    if rows is None and cols is None:
        return x
    out = np.zeros(shape, dtype=np.complex128)
    out[_ix(rows, cols)] = x
    return out


def opnorm(m) -> float:
    """Spectral norm; 0.0 for empty matrices."""
    a, _, _ = _deflate(as_matrix(m))
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


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


def _svd(m: np.ndarray, full_matrices: bool):
    try:
        return np.linalg.svd(m, full_matrices=full_matrices)
    except np.linalg.LinAlgError as exc:
        raise NumericFailure(f"SVD did not converge: {exc}", shape=m.shape) from exc


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


def pseudoinverse(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose inverse via SVD with the rank_rel cutoff.

    The result satisfies the four defining identities
    ``A X A = A``, ``X A X = X``, ``(A X)* = A X``, ``(X A)* = X A``
    up to roundoff on the retained singular values.
    """
    a = as_matrix(m)
    core, rows, cols = _deflate(a)
    if core.size == 0:
        return np.zeros((a.shape[1], a.shape[0]), dtype=np.complex128)
    u, s, vh = _svd(core, full_matrices=False)
    return _scatter(_pinv_from_svd(u, s, vh, rank_threshold(s, a.shape, tol)), a.shape[::-1], cols, rows)


def _pinv_from_svd(u, s, vh, cut: float) -> np.ndarray:
    """V diag(1/s) U* over the singular values above the cutoff."""
    inv = np.where(s > cut, 1.0 / np.where(s > cut, s, 1.0), 0.0)
    return herm(vh) @ (inv[:, None] * herm(u))


def range_frame(m, tol: Tolerance = DEFAULT_TOL, scale_floor: float = 0.0) -> np.ndarray:
    """Orthonormal column basis of the range of m."""
    a = as_matrix(m)
    return _range_frame_cut_as(a, a.shape, tol, scale_floor)


def _range_frame_cut_as(a: np.ndarray, shape, tol: Tolerance, scale_floor: float) -> np.ndarray:
    """Orthonormal column basis of the range of ``a``, cut as a matrix of
    ``shape``: rank_rel * max(sigma_0, scale_floor) * max(shape).  A thin
    spanning set that stands in for a wider matrix with the same range
    keeps that matrix's cutoff."""
    core, rows, _ = _deflate(a)
    if core.size == 0:
        return np.zeros((a.shape[0], 0), dtype=np.complex128)
    u, s, _ = _svd(core, full_matrices=False)
    r = int(np.sum(s > rank_threshold(s, shape, tol, scale_floor)))
    return _scatter(u[:, :r], (a.shape[0], r), rows, None)


def kernel_frame(m, tol: Tolerance = DEFAULT_TOL, scale_floor: float = 0.0) -> np.ndarray:
    """Orthonormal column basis of the kernel of m."""
    a = as_matrix(m)
    check_bytes(ENTRY_BYTES * a.shape[1] ** 2, "a kernel frame's full SVD")
    core, _, cols = _deflate(a)
    if core.size == 0:
        inner = eye(core.shape[1]) if core.shape[0] == 0 else np.zeros((core.shape[1], 0), dtype=np.complex128)
    else:
        _, s, vh = _svd(core, full_matrices=True)
        r = int(np.sum(s > rank_threshold(s, a.shape, tol, scale_floor)))
        inner = herm(vh)[:, r:]
    if cols is None:
        return inner
    # the kernel of the core on the live columns, then the unit vectors of the zero columns
    zero_cols = np.flatnonzero(~cols)
    frame = np.zeros((a.shape[1], inner.shape[1] + zero_cols.size), dtype=np.complex128)
    frame[cols, : inner.shape[1]] = inner
    frame[zero_cols, inner.shape[1] + np.arange(zero_cols.size)] = 1.0
    return frame


def psd_sqrt(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
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
    if opnorm(a - herm(a)) > tol.eq_rel * max(scale, 1.0):
        raise DomainError("psd_sqrt: input is not self-adjoint within tolerance")
    sym = (a + herm(a)) / 2.0
    try:
        w, v = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericFailure(f"eigh did not converge: {exc}", shape=a.shape) from exc
    if w.size and w[0] < -10.0 * tol.eq_rel * max(scale, 1.0):
        raise DomainError(f"psd_sqrt: materially negative eigenvalue {w[0]:.3e}")
    w = np.clip(w, 0.0, None)
    root = (v * np.sqrt(w)) @ herm(v)
    return (root + herm(root)) / 2.0


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
    def span(columns, tol: Tolerance = DEFAULT_TOL) -> "Subspace":
        """Subspace spanned by the columns of a matrix (need not be
        orthonormal or independent)."""
        return Subspace(range_frame(columns, tol, scale_floor=1.0))

    @staticmethod
    def kernel(m, tol: Tolerance = DEFAULT_TOL) -> "Subspace":
        """Kernel of an operator, with the same unit scale floor as span."""
        return Subspace(kernel_frame(m, tol, scale_floor=1.0))


def _check_same_ambient(s1: Subspace, s2: Subspace):
    if s1.ambient_dim != s2.ambient_dim:
        raise DimensionMismatch(
            f"ambient dimensions differ: {s1.ambient_dim} vs {s2.ambient_dim}"
        )


def intersect(s1: Subspace, s2: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Intersection, computed from the kernel of the stacked orthogonal
    complements [(I - P1); (I - P2)]."""
    _check_same_ambient(s1, s2)
    d = s1.ambient_dim
    stacked = np.vstack([eye(d) - s1.projector(), eye(d) - s2.projector()])
    return Subspace(kernel_frame(stacked, tol))


def ortho_complement(s: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    return Subspace(kernel_frame(herm(s.frame), tol))


def _inclusion_gap(s1: Subspace, s2: Subspace) -> np.ndarray:
    """(I - P2) F1, formed from the frames as F1 - F2 (F2* F1) and never
    through the d x d projector P2."""
    _check_same_ambient(s1, s2)
    return s1.frame - s2.frame @ (herm(s2.frame) @ s1.frame)


def inclusion_defect(s1: Subspace, s2: Subspace) -> float:
    """||(I - P2) F1||; 0.0 when S1 is zero."""
    return opnorm(_inclusion_gap(s1, s2))


def is_subset(s1: Subspace, s2: Subspace, tol: Tolerance = DEFAULT_TOL) -> bool:
    """S1 <= S2 iff ||(I - P2) F1|| <= incl_abs."""
    return norm_within(_inclusion_gap(s1, s2), tol.incl_abs)


def ominus(s1: Subspace, s2: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """S1 (-) S2 for nested S2 <= S1."""
    _check_same_ambient(s1, s2)
    if not is_subset(s2, s1, tol):
        raise DomainError("ominus: second subspace is not contained in the first")
    return Subspace.span(s1.frame - s2.projector() @ s1.frame, tol)


def image(m, s: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Image of the subspace under the operator: R(M @ frame).

    Directions whose singular value is pure roundoff dust (below
    rank_rel * dim on the unit scale) are dropped; see rank_threshold.
    """
    a = as_matrix(m)
    if a.shape[1] != s.ambient_dim:
        raise DimensionMismatch(
            f"operator domain {a.shape[1]} != subspace ambient {s.ambient_dim}"
        )
    # the product is taken on the whole of m: on the power report's wide
    # amplifications, copying their nonzero part first cost the time it
    # saved; the span still drops the product's zero rows
    return Subspace.span(a @ s.frame, tol)


# ---------------------------------------------------------------------------
# Operator predicates
# ---------------------------------------------------------------------------


def partial_isometry_residual(m, tol: Tolerance = DEFAULT_TOL) -> tuple:
    """The triple-product residual ||M M* M - M|| and the partial-isometry
    verdict residual <= eq_rel * ||M||.

    A matrix whose norm is below rank_rel on the unit scale is roundoff
    dust left by a cancellation; it is indistinguishable from the zero
    operator, which is a partial isometry.
    """
    a, _, _ = _deflate(as_matrix(m))
    residual = opnorm(a @ herm(a) @ a - a)
    return residual, _partial_isometry_verdict(a, (residual, residual), lambda: residual, tol)


def is_partial_isometry(m, tol: Tolerance = DEFAULT_TOL) -> bool:
    """The verdict of partial_isometry_residual, with the residual screened
    like ||M||."""
    a, _, _ = _deflate(as_matrix(m))
    defect = a @ herm(a) @ a - a
    return _partial_isometry_verdict(a, _norm_bounds(defect), lambda: opnorm(defect), tol)


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


def is_contraction(m, tol: Tolerance = DEFAULT_TOL) -> bool:
    return norm_within(m, 1.0 + tol.eq_rel)


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
class ClassificationReport:
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

    def to_dict(self) -> dict:
        return {
            "is_contractive": self.is_contractive,
            "is_isometric": self.is_isometric,
            "is_partial_isometric": self.is_partial_isometric,
            "norm": self.norm,
            "isometry_residual": self.isometry_residual,
            "condition_residuals": dict(self.condition_residuals),
            "condition_verdicts": dict(self.condition_verdicts),
            "consistent": self.consistent,
        }


def _frame_gram_residual(x: np.ndarray, f: np.ndarray) -> float:
    """||F* X* X F - I|| for an orthonormal frame F of N(X)^perp."""
    if f.shape[1] == 0:
        return 0.0
    g = herm(f) @ herm(x) @ x @ f
    return opnorm(g - eye(f.shape[1]))


def _frames_and_pinv(a: np.ndarray, tol: Tolerance) -> tuple:
    """Orthonormal frames of R(A) and R(A*) and the pseudoinverse of a
    nonempty A, all from one thin SVD cut as ``range_frame`` and
    ``pseudoinverse`` cut it."""
    core, rows, cols = _deflate(a)
    u, s, vh = _svd(core, full_matrices=False)
    cut = rank_threshold(s, a.shape, tol)
    r = int(np.sum(s > cut))
    return (
        _scatter(u[:, :r], (a.shape[0], r), rows, None),
        _scatter(herm(vh[:r]), (a.shape[1], r), cols, None),
        _scatter(_pinv_from_svd(u, s, vh, cut), a.shape[::-1], cols, rows),
    )


def classify_operator(m, tol: Tolerance = DEFAULT_TOL) -> ClassificationReport:
    """Contraction, isometry and the six-way partial-isometry diagnostic.

    ||M|| is computed once.  The frames of R(M) and R(M*), the rank and
    the pseudoinverse all come from one thin SVD of M, cut at the same
    ``rank_threshold`` as ``range_frame`` and ``pseudoinverse``; the
    verdict itself is ``partial_isometry_residual``.
    """
    a = as_matrix(m)
    norm = opnorm(a)
    iso_res = opnorm(herm(a) @ a - eye(a.shape[1]))
    if norm <= tol.rank_rel:
        # numerically the zero operator: every characterization holds
        residuals = dict.fromkeys(_CONDITIONS, 0.0)
        verdicts = dict.fromkeys(_CONDITIONS, True)
    else:
        final, initial, pinv = _frames_and_pinv(a, tol)  # initial spans R(M*) = N(M)^perp
        triple, triple_ok = partial_isometry_residual(a, tol)
        residuals = {
            "norm_on_cokernel": _frame_gram_residual(a, initial),
            "adjoint_norm": _frame_gram_residual(herm(a), final),
            "triple_product": triple,
            "initial_projection": opnorm(herm(a) @ a - initial @ herm(initial)),
            "final_projection": opnorm(a @ herm(a) - final @ herm(final)),
            "pinv_is_adjoint": opnorm(pinv - herm(a)),
        }
        verdicts = {key: residuals[key] <= tol.eq_rel * max(1.0, norm) for key in residuals}
        verdicts["triple_product"] = triple_ok
    return ClassificationReport(
        is_contractive=norm <= 1.0 + tol.eq_rel,
        is_isometric=iso_res <= tol.eq_rel * max(1.0, norm) ** 2,
        is_partial_isometric=verdicts["triple_product"],
        norm=norm,
        isometry_residual=iso_res,
        condition_residuals=residuals,
        condition_verdicts=verdicts,
        consistent=len(set(verdicts.values())) <= 1,
    )
