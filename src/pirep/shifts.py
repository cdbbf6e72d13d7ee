"""Truncated unilateral weighted shifts with orthogonal ranges.

The model: H has basis e_0, e_1, ... (truncated at level M), E = C^n, and

    V_i e_m = w_{i,m} * alpha_m * e_{n m + i},      i in {1, ..., n},

where alpha_m = 0 iff m lies in the zero set B.  Because the target
indices n m + i have distinct residues, the ranges of V_1..V_n are
pairwise orthogonal and the row lift is a partial isometry iff each V_i
is.

Truncation policy: every kernel or power statement is evaluated only on
the faithful window W_k = { m : the whole orbit of e_m under k
applications stays <= M }; outside it the truncated matrix no longer
models the untruncated operator, and no claim is made there.

One vectorized source gives each column's target row and value
(``_shift_columns``), built once per spec: a spec is immutable, its
``weights`` a read-only view, and it keeps that data read-only
(``WeightedShiftSpec._columns``).  ``build_shift`` builds the lift from
it as its index form, n (M+1) rows and values checked from the shape
first, with no dense V_i, stack or scan; ``shift_matrices`` scatters the
same data into the n dense V_i at once.  The oracle ``brute_force_kernel`` steps one
direction's column data through the window: a column of V_i^k holds one
entry, so it is held as one (row, value) pair, and no dense V_i or power
is built.  A spec checks the bytes of the n dense V_i against the budget
(``numerics.check_bytes``) from n and M alone, before it allocates
anything: that check guards the dense reads (``shift_matrices``, a
representation's ``tilde`` and ``v_on_basis``); the lift powers the
criteria build are checked where they are built.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from . import numerics as nx
from .correspondence import SCALARS, StarRepresentation, scalar_correspondence
from .covrep import CovariantRep
from .errors import DimensionMismatch, WindowError
from .numerics import ENTRY_BYTES, Record, Tolerance, check_bytes, defects_within, residual_holds
from .powers import power_pi_up_to


def _integer(value, what: str) -> int:
    """``value`` as an int, refused unless an integer: numpy integers pass,
    bools and floats (which int() would cut) do not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DimensionMismatch(f"{what} must be an integer, got {value!r}")
    return int(value)


def minimal_trunc(n: int, k: int) -> int:
    """Smallest truncation level whose window supports power k: the largest
    index offset an orbit of length k can accumulate (all i = n)."""
    if n == 1:
        return k
    return n * (n**k - 1) // (n - 1)


@dataclass(frozen=True)
class WeightedShiftSpec:
    """Data (n, weights, zero set, truncation level) of a truncated shift.

    ``weights`` is a sparse override map (i, m) -> w >= 0; unspecified
    weights are 1.  ``trunc`` defaults to the minimal level supporting
    three-fold powers.  The spec is immutable (``weights`` is held as a
    read-only view of its own dict), so its column data is built once, on
    first use, and kept read-only (``_columns``).
    """

    n: int
    weights: dict = field(default_factory=dict)
    zero_set: frozenset = frozenset()
    trunc: int | None = None

    def __post_init__(self):
        n = _integer(self.n, "the number of directions n")
        if n < 1:
            raise DimensionMismatch("need n >= 1 shift directions")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "zero_set", frozenset(_integer(m, "a zero set index") for m in self.zero_set))
        if any(m < 0 for m in self.zero_set):
            raise DimensionMismatch(f"zero set index {min(self.zero_set)} out of range")
        clean = {}
        for (i, m), w in dict(self.weights).items():
            i, m = (_integer(x, f"weight index ({i!r}, {m!r})") for x in (i, m))
            if not (1 <= i <= n) or m < 0:
                raise DimensionMismatch(f"weight index ({i}, {m}) out of range")
            if not 0 <= w < float("inf"):
                raise DimensionMismatch("weights must be finite and nonnegative")
            clean[(i, m)] = float(w)
        object.__setattr__(self, "weights", MappingProxyType(clean))
        trunc = minimal_trunc(n, 3) if self.trunc is None else _integer(self.trunc, "the truncation level")
        if trunc < 1:
            raise DimensionMismatch("truncation level must be >= 1")
        object.__setattr__(self, "trunc", trunc)
        # n complex (M+1)^2 matrices and the n x n structure arrays of C^n
        check_bytes(ENTRY_BYTES * self.n * (self.h_dim() ** 2 + 3 * self.n), "the shift")

    def weight(self, i: int, m: int) -> float:
        return self.weights.get((i, m), 1.0)

    def alpha(self, m: int) -> float:
        return 0.0 if m in self.zero_set else 1.0

    def h_dim(self) -> int:
        return self.trunc + 1

    def window(self, k: int) -> range:
        """Faithful window W_k: source indices whose k-step orbit stays
        within the truncation."""
        top = (self.trunc - minimal_trunc(self.n, k)) // (self.n**k)
        return range(0, max(top, -1) + 1)

    def window_bound(self, cap: int) -> int:
        """Largest k <= cap with a nonempty window."""
        k = 0
        while k < cap and len(self.window(k + 1)) > 0:
            k += 1
        return k

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "weights": {f"{i},{m}": w for (i, m), w in sorted(self.weights.items())},
            "zero_set": sorted(self.zero_set),
            "trunc": self.trunc,
        }

    @cached_property
    def _columns(self) -> tuple:
        """``_shift_columns`` of this spec, built on first use, read-only."""
        rows, values = _shift_columns(self)
        rows.setflags(write=False)
        values.setflags(write=False)
        return rows, values


def shift_matrices(spec: WeightedShiftSpec) -> list:
    """The truncated matrices V_1..V_n, one scatter of their column data.
    Source indices whose image falls beyond the truncation give zero
    columns (tracked by the window, not errors)."""
    rows, values = spec._columns
    vs = np.zeros(rows.shape + rows.shape[-1:], dtype=np.complex128)
    np.put_along_axis(vs, rows[:, None], values[:, None], axis=1)
    return list(vs)


def _shift_columns(spec: WeightedShiftSpec) -> tuple:
    """(rows, values), each n x (M+1): column m of V_i holds its one entry
    w_{i,m} * alpha_m (the float product) at row rows[i-1, m] = n m + i; a
    column whose target passes the truncation has row 0 and value 0."""
    d, n = spec.h_dim(), spec.n
    rows = n * np.arange(d, dtype=np.intp) + np.arange(1, n + 1, dtype=np.intp)[:, None]
    weights = np.ones((n, d))
    kept = [(i - 1, m, w) for (i, m), w in spec.weights.items() if m < d]
    if kept:
        i, m, w = zip(*kept)
        weights[i, m] = w
    alpha = np.ones(d)
    alpha[[m for m in spec.zero_set if m < d]] = 0.0
    past = rows > spec.trunc
    return np.where(past, 0, rows), np.where(past, 0.0, weights * alpha)


def build_shift(spec: WeightedShiftSpec, tol: Tolerance) -> CovariantRep:
    """The covariant representation of E = C^n on C^{M+1} given by the data.
    Its lift is built as its index form from the column data, with no dense
    V_i (``numerics._form_or_dense``: the array below the gate, where the
    representation's scan would not look); a weight of -0.0 keeps its sign
    only in the dense V_i, so such a spec is built from them."""
    d, n = spec.h_dim(), spec.n
    sigma, corr = StarRepresentation(SCALARS, [d]), scalar_correspondence(n)
    nx._check_form_bytes(n * d, f"a {d} x {n * d} lift")
    rows, values = spec._columns
    if np.signbit(values).any():
        return CovariantRep(corr, sigma, shift_matrices(spec), tol)
    lift = nx._form_or_dense((d, n * d), rows.ravel(), values.ravel().astype(np.complex128))
    return CovariantRep(corr, sigma, lift if type(lift) is nx._Monomial else np.hsplit(lift, n), tol)


def _faithful_window(spec: WeightedShiftSpec, k: int) -> range:
    """spec.window(k), or WindowError naming the minimal truncation when
    it is empty."""
    window = spec.window(k)
    if len(window) == 0:
        raise WindowError(
            f"truncation {spec.trunc} does not support power {k}",
            minimal_trunc=minimal_trunc(spec.n, k),
        )
    return window


def _power_window(spec: WeightedShiftSpec, i, k) -> tuple:
    """(i, k, W_k) for the power V_i^k, as ints, after refusing a direction
    outside 1..n or a power below 1 (V_i^0 = I has no kernel)."""
    i, k = _integer(i, "the direction i"), _integer(k, "the power k")
    if not (1 <= i <= spec.n):
        raise DimensionMismatch(f"direction {i} out of 1..{spec.n}")
    if k < 1:
        raise DimensionMismatch("a kernel of V_i^k needs k >= 1")
    return i, k, _faithful_window(spec, k)


def kernel_formula(spec: WeightedShiftSpec, i: int, k: int) -> list:
    """Predicted kernel indices of V_i^k on the faithful window:

        { m in W_k : exists p <= k with
          n^(p-1) m + sum_{l=2}^{p} n^(p-l) i  in  B }.

    The p-th index is the orbit's: idx_1 = m and idx_(p+1) = n idx_p + i,
    which is that closed form exactly (Python ints), so each m walks its
    orbit until it meets B or has taken k indices.  Valid when the weights
    off B are nonzero (zero weights enlarge the kernel beyond the alpha
    pattern).  Raises WindowError when the window is empty.
    """
    i, k, window = _power_window(spec, i, k)
    hits = []
    for m in window:
        idx = m
        for _ in range(k):
            if idx in spec.zero_set:
                hits.append(m)
                break
            idx = spec.n * idx + i
    return hits


def _power_columns(spec: WeightedShiftSpec, i: int, k: int) -> tuple:
    """(window, rows, values): column m of the truncated V_i^k, for m in
    the faithful window W_k, holds its one entry values[m] at rows[m] (a
    zero value where the column is zero)."""
    i, k, window = _power_window(spec, i, k)
    rows, values = (a[i - 1] for a in spec._columns)
    row, value = rows[: len(window)], values[: len(window)]
    for _ in range(k - 1):
        value = values[row] * value
        row = rows[row]
    return window, row, value


def brute_force_kernel(spec: WeightedShiftSpec, i: int, k: int, tol: Tolerance) -> list:
    """Oracle: kernel indices of the truncated matrix power V_i^k on W_k.

    It is a numeric product of the truncated matrix: it reads V_i only as
    its column data (``_shift_columns``, which the dense V_i scatter, built
    once per spec), and neither the formula nor the zero set's index
    arithmetic.  Every column of V_i holds at most one entry, so each
    window column of V_i^k is held as one (row, value) pair and stepped
    k - 1 times, value = values[row] * value and then row = rows[row]: the
    product V_i(...(V_i V_i[:, W_k])), multiplied in that order.  Its
    values are the nonzeros of that dense product's columns bit for bit: a
    real weight times a complex number with zero imaginary part is exact,
    and the dense sum only adds exact zeros.

    A column is in the kernel when ``defect_within(|value|)``, |value| <=
    incl_abs, taken as one comparison over the window
    (``numerics.defects_within``; the window starts at 0, so a column's
    position is its index m).  The dense norm of a one-entry column is
    sqrt(fl(a^2)), which is |a| unless a^2 under- or overflows: below
    2^-511 (about 1.5e-154) both are at most 2^-511, and from about 2^512
    (1.3e154) the dense norm is inf, so for every cut 2^-511 <= incl_abs <
    2^511 (the default is 1e-8) the two fall on the same side of it.
    """
    _, _, value = _power_columns(spec, i, k)
    return np.flatnonzero(defects_within(np.abs(value), tol)).tolist()


@dataclass(frozen=True)
class ShiftCriterionReport(Record):
    is_pi: bool
    weights_unit_off_zero_set: bool
    power_pi_up_to: int


def shift_pi_criterion(
    spec: WeightedShiftSpec, tol: Tolerance, *, power_cap: int
) -> ShiftCriterionReport:
    """Evaluate both sides of the shift criterion on the faithful window:
    the lift is a partial isometry iff w_{i,m} = 1 for every m outside the
    zero set (weights over the zero set are annihilated and play no role).
    A partially isometric shift is certified power-partially-isometric up
    to the window-supported bound, capped at ``power_cap`` >= 1."""
    if power_cap < 1:
        raise DimensionMismatch("shift criterion needs power_cap >= 1")
    rep = build_shift(spec, tol)
    is_pi = rep.is_partial_isometric()
    # a weight the override map leaves out is exactly 1; past the window
    # the column is zero whatever the weight
    unit = all(
        residual_holds(abs(w - 1.0), 1.0, tol)
        for (i, m), w in spec.weights.items()
        if spec.n * m + i <= spec.trunc and m not in spec.zero_set
    )
    up_to = power_pi_up_to(rep, is_pi, spec.window_bound(power_cap))
    return ShiftCriterionReport(is_pi=is_pi, weights_unit_off_zero_set=unit, power_pi_up_to=up_to)
