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

A spec checks the bytes of its n shift matrices against the dense budget
(``numerics.check_bytes``) from n and M alone, so building one allocates
nothing; the lift powers its criteria build are checked where they are
built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numerics as nx
from .correspondence import SCALARS, StarRepresentation, scalar_correspondence
from .covrep import CovariantRep
from .errors import DimensionMismatch, WindowError
from .numerics import DEFAULT_TOL, ENTRY_BYTES, Tolerance, check_bytes


def _max_offset(n: int, k: int) -> int:
    """Largest index offset an orbit of length k can accumulate (all i = n)."""
    if n == 1:
        return k
    return n * (n**k - 1) // (n - 1)


def minimal_trunc(n: int, k: int) -> int:
    """Smallest truncation level whose window supports power k."""
    return _max_offset(n, k)


@dataclass(frozen=True)
class WeightedShiftSpec:
    """Data (n, weights, zero set, truncation level) of a truncated shift.

    ``weights`` is a sparse override map (i, m) -> w >= 0; unspecified
    weights are 1.  ``trunc`` defaults to the minimal level supporting
    three-fold powers.
    """

    n: int
    weights: dict = field(default_factory=dict)
    zero_set: frozenset = frozenset()
    trunc: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise DimensionMismatch("need n >= 1 shift directions")
        object.__setattr__(self, "zero_set", frozenset(int(m) for m in self.zero_set))
        clean = {}
        for (i, m), w in dict(self.weights).items():
            if not (1 <= int(i) <= self.n) or int(m) < 0:
                raise DimensionMismatch(f"weight index ({i}, {m}) out of range")
            if not 0 <= w < float("inf"):
                raise DimensionMismatch("weights must be finite and nonnegative")
            clean[(int(i), int(m))] = float(w)
        object.__setattr__(self, "weights", clean)
        if self.trunc is None:
            object.__setattr__(self, "trunc", minimal_trunc(self.n, 3))
        elif self.trunc < 1:
            raise DimensionMismatch("truncation level must be >= 1")
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
        top = (self.trunc - _max_offset(self.n, k)) // (self.n**k)
        return range(0, max(top, -1) + 1)

    def window_bound(self, cap: int | None = None) -> int:
        """Largest k with a nonempty window (optionally capped)."""
        k = 0
        while len(self.window(k + 1)) > 0 and (cap is None or k < cap):
            k += 1
        return k

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "weights": {f"{i},{m}": w for (i, m), w in sorted(self.weights.items())},
            "zero_set": sorted(self.zero_set),
            "trunc": self.trunc,
        }


def shift_matrices(spec: WeightedShiftSpec) -> list:
    """The truncated matrices V_1..V_n.  Source indices whose image falls
    beyond the truncation give zero columns (tracked by the window, not
    errors)."""
    return [_shift_matrix(spec, i) for i in range(1, spec.n + 1)]


def _shift_matrix(spec: WeightedShiftSpec, i: int) -> np.ndarray:
    """The truncated matrix V_i."""
    d = spec.h_dim()
    v = np.zeros((d, d), dtype=np.complex128)
    for m in range(d):
        t = spec.n * m + i
        if t <= spec.trunc:
            v[t, m] = spec.weight(i, m) * spec.alpha(m)
    return v


def build_shift(spec: WeightedShiftSpec, tol: Tolerance = DEFAULT_TOL) -> CovariantRep:
    """The covariant representation of E = C^n on C^{M+1} given by the data."""
    sigma = StarRepresentation(SCALARS, [spec.h_dim()])
    return CovariantRep(scalar_correspondence(spec.n), sigma, shift_matrices(spec), tol)


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


def kernel_formula(spec: WeightedShiftSpec, i: int, k: int) -> list:
    """Predicted kernel indices of V_i^k on the faithful window:

        { m in W_k : exists p <= k with
          n^(p-1) m + sum_{l=2}^{p} n^(p-l) i  in  B }.

    Valid when the weights off B are nonzero (zero weights enlarge the
    kernel beyond the alpha pattern).  Raises WindowError when the window
    is empty.
    """
    if not (1 <= i <= spec.n):
        raise DimensionMismatch(f"direction {i} out of 1..{spec.n}")
    if k < 1:
        raise DimensionMismatch("kernel formula needs k >= 1")
    window = _faithful_window(spec, k)
    hits = []
    for m in window:
        for p in range(1, k + 1):
            idx = spec.n ** (p - 1) * m + sum(spec.n ** (p - l) * i for l in range(2, p + 1))
            if idx in spec.zero_set:
                hits.append(m)
                break
    return hits


def brute_force_kernel(spec: WeightedShiftSpec, i: int, k: int, tol: Tolerance = DEFAULT_TOL) -> list:
    """Oracle: kernel indices of the truncated matrix power V_i^k on W_k,
    from its window columns V_i(...(V_i V_i[:, W_k])).  Every entry of a
    product of shift matrices is a single product of weights, so these
    columns are those of the dense power up to the order of that product."""
    window = _faithful_window(spec, k)
    v = _shift_matrix(spec, i)
    power = v[:, window]
    for _ in range(k - 1):
        power = v @ power
    return [m for m, column in zip(window, power.T) if np.linalg.norm(column) <= tol.incl_abs]


@dataclass(frozen=True)
class ShiftCriterionReport:
    is_pi: bool
    weights_unit_off_zero_set: bool
    power_pi_up_to: int

    def to_dict(self):
        return {
            "is_pi": self.is_pi,
            "weights_unit_off_zero_set": self.weights_unit_off_zero_set,
            "power_pi_up_to": self.power_pi_up_to,
        }


def shift_pi_criterion(
    spec: WeightedShiftSpec, tol: Tolerance = DEFAULT_TOL, power_cap: int = 3
) -> ShiftCriterionReport:
    """Evaluate both sides of the shift criterion on the faithful window:
    the lift is a partial isometry iff w_{i,m} = 1 for every m outside the
    zero set (weights over the zero set are annihilated and play no role).
    A partially isometric shift is certified power-partially-isometric up
    to the window-supported bound."""
    rep = build_shift(spec, tol)
    is_pi = rep.is_partial_isometric()
    unit = True
    for i in range(1, spec.n + 1):
        for m in range(spec.h_dim()):
            if spec.n * m + i > spec.trunc:
                continue  # zero column regardless of the weight
            if m in spec.zero_set:
                continue
            if abs(spec.weight(i, m) - 1.0) > tol.eq_rel:
                unit = False
    up_to = 0
    if is_pi:
        bound = spec.window_bound(cap=power_cap)
        for k in range(1, bound + 1):
            # the first power is the lift, whose verdict is is_pi
            if k == 1 or nx.is_partial_isometry(rep.tilde_power(k), tol):
                up_to = k
            else:
                break
    return ShiftCriterionReport(is_pi=is_pi, weights_unit_off_zero_set=unit, power_pi_up_to=up_to)
