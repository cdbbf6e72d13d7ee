import math

import numpy as np
import pytest

from pirep import numerics as nx
from pirep import shifts as sh
from pirep.errors import DimensionMismatch, ResourceLimit, WindowError
from pirep.numerics import Subspace
from pirep.shifts import WeightedShiftSpec

from conftest import (
    chain_inclusion_check,
    dense_amplified,
    dense_budget,
    dense_opnorm,
    dense_pi_residual,
    dense_tilde_power,
    rng_for,
)


# ---------------------------------------------------------------------------
# shift data and construction
# ---------------------------------------------------------------------------


def test_default_trunc_supports_power_three():
    for n in (1, 2, 3):
        spec = WeightedShiftSpec(n=n)
        assert len(spec.window(3)) >= 1
        assert spec.trunc == sh.minimal_trunc(n, 3)


def test_plain_unilateral_shift(tol):
    spec = WeightedShiftSpec(n=1, trunc=5)
    (v,) = sh.shift_matrices(spec)
    expected = np.diag([1.0] * 5, -1)
    np.testing.assert_allclose(v, expected, atol=1e-15)


def test_zero_set_kills_columns(tol):
    spec = WeightedShiftSpec(n=2, zero_set={0}, trunc=20)
    v1, v2 = sh.shift_matrices(spec)
    assert np.linalg.norm(v1[:, 0]) == 0.0 and np.linalg.norm(v2[:, 0]) == 0.0
    for m in (1, 2, 3):
        assert v1[2 * m + 1, m] == 1.0
        assert v2[2 * m + 2, m] == 1.0


def test_weight_override_entry(tol):
    spec = WeightedShiftSpec(n=2, weights={(1, 1): 0.5}, trunc=20)
    v1, _ = sh.shift_matrices(spec)
    assert v1[3, 1] == 0.5  # V_1 e_1 = 0.5 e_3


def test_spec_validation(monkeypatch):
    with pytest.raises(DimensionMismatch):
        WeightedShiftSpec(n=0)
    with pytest.raises(DimensionMismatch):
        WeightedShiftSpec(n=2, weights={(3, 0): 1.0})
    with pytest.raises(DimensionMismatch):
        WeightedShiftSpec(n=1, weights={(1, 0): -0.5})
    with pytest.raises(DimensionMismatch, match="zero set index -3"):
        WeightedShiftSpec(n=2, zero_set={0, -3})
    for w in (math.nan, math.inf):
        with pytest.raises(DimensionMismatch):
            WeightedShiftSpec(n=1, weights={(1, 0): w})
    # indices are integers: a float is refused, not cut by int(), and so is a bool
    for bad in (
        dict(n=2, trunc=10.5),
        dict(n=2, weights={(1.9, 0): 0.5}),
        dict(n=2, weights={(1, 2.0): 0.5}),
        dict(n=2, zero_set={2.7}),
        dict(n=2.5),
        dict(n=2.0),
        dict(n=True),
        dict(n=2, trunc=True),
        dict(n=2, weights={(True, 0): 0.5}),
        dict(n=2, zero_set={False}),
    ):
        with pytest.raises(DimensionMismatch, match="must be an integer"):
            WeightedShiftSpec(**bad)
    # numpy integers are accepted, as ints
    spec = WeightedShiftSpec(n=np.int64(2), weights={(np.int32(1), np.uint8(3)): 0.5}, zero_set={np.int16(4)}, trunc=np.int64(20))
    assert spec == WeightedShiftSpec(n=2, weights={(1, 3): 0.5}, zero_set={4}, trunc=20)
    assert all(type(x) is int for x in (spec.n, spec.trunc, *spec.zero_set, *next(iter(spec.weights))))
    # the byte budget is checked from n and M alone: a spec allocates nothing
    dense_budget(monkeypatch, 2**16, sh)
    d = math.isqrt(2**16 // 16 - 3)
    assert WeightedShiftSpec(n=1, trunc=d - 1).h_dim() == d
    with pytest.raises(ResourceLimit, match=f"the shift needs {16 * ((d + 1) ** 2 + 3)} bytes"):
        WeightedShiftSpec(n=1, trunc=d)


def test_build_shift_is_covariant_rep(tol):
    rep = sh.build_shift(WeightedShiftSpec(n=2, trunc=30), tol)
    assert rep.h_dim == 31
    assert rep.corr.module_dim == 2
    # ranges of the two directions are orthogonal
    v1, v2 = rep.v_on_basis
    assert nx.opnorm(nx.herm(v1) @ v2) <= 1e-14


def test_lift_columns_match_shift_formula(tol):
    # column (i, m) of the lift is w_{i,m} alpha_m e_{n m + i}, entrywise
    spec = WeightedShiftSpec(n=2, weights={(1, 1): 0.5, (2, 3): 1.3}, zero_set={2}, trunc=20)
    rep = sh.build_shift(spec, tol)
    d = spec.h_dim()
    tilde = rep.tilde
    for i in range(1, spec.n + 1):
        for m in range(d):
            column = tilde[:, (i - 1) * d + m]
            expected = np.zeros(d, dtype=complex)
            target = spec.n * m + i
            if target <= spec.trunc:
                expected[target] = spec.weight(i, m) * spec.alpha(m)
            np.testing.assert_array_equal(column, expected)


def construction_specs() -> list:
    """A seeded sweep of shifts: n = 1..3 with the n = 1, trunc 24 shift
    below the gate, zero sets, weights of exactly 0, weights on the zero set,
    overrides past the truncation and a weight of -0.0."""
    rng = rng_for(73)
    specs = [
        WeightedShiftSpec(n=1, trunc=24),
        WeightedShiftSpec(n=1, weights={(1, 3): 0.0, (1, 30): 2.0}, zero_set={5, 40}, trunc=60),
        WeightedShiftSpec(n=2, weights={(1, 0): 7.5, (2, 4): 0.0}, zero_set={0, 9}, trunc=64),
        WeightedShiftSpec(n=3, weights={(3, 12): 0.5, (2, 30): 3.0, (1, 90): 0.0}, trunc=40),
        WeightedShiftSpec(n=2, weights={(1, 2): -0.0}, trunc=40),
    ]
    for _ in range(12):
        n = int(rng.integers(1, 4))
        trunc = int(rng.integers(8, 64))
        zero_set = frozenset(int(m) for m in rng.integers(0, trunc + 10, size=rng.integers(0, 6)))
        weights = {}
        for _ in range(int(rng.integers(0, 8))):
            m = int(rng.choice(sorted(zero_set))) if zero_set and rng.random() < 0.3 else int(rng.integers(0, trunc + 10))
            weights[(int(rng.integers(1, n + 1)), m)] = float(rng.choice([0.0, 1.0, rng.uniform(0.1, 2.0)]))
        specs.append(WeightedShiftSpec(n=n, weights=weights, zero_set=zero_set, trunc=trunc))
    return specs


def shift_matrices_by_loop(spec) -> list:
    """V_1..V_n written one column at a time: V_i e_m = w_{i,m} alpha_m e_{n m + i}."""
    d = spec.h_dim()
    vs = [np.zeros((d, d), dtype=np.complex128) for _ in range(spec.n)]
    for i in range(1, spec.n + 1):
        for m in range(d):
            if spec.n * m + i <= spec.trunc:
                vs[i - 1][spec.n * m + i, m] = spec.weight(i, m) * spec.alpha(m)
    return vs


def test_the_lift_is_born_as_the_index_form_the_scan_finds(tol):
    # build_shift writes no dense V_i, stacks nothing and scans nothing:
    # its form, its public arrays and its JSON are those of the stacked V_i,
    # and the scattered V_i are the ones written column by column
    from pirep import serialize as sz
    from pirep.correspondence import SCALARS, StarRepresentation, scalar_correspondence
    from pirep.covrep import CovariantRep

    gated = 0
    for spec in construction_specs():
        rep = sh.build_shift(spec, tol)
        stacked = np.hstack(sh.shift_matrices(spec))
        assert stacked.tobytes() == np.hstack(shift_matrices_by_loop(spec)).tobytes(), spec
        form = nx._index_form(stacked)
        if form is None:
            assert type(rep._lift) is np.ndarray and rep._lift.size < nx._DEFLATE_MIN_SIZE, spec
        else:
            gated += 1
            assert rep._lift._at.tobytes() == form._at.tobytes(), spec
            assert rep._lift._val.tobytes() == form._val.tobytes(), spec
        tilde, vs = rep.tilde, rep.v_on_basis
        assert tilde.tobytes() == stacked.tobytes() and not tilde.flags.writeable, spec
        assert rep.tilde is tilde and rep.v_on_basis is vs, spec
        assert all(v.tobytes() == w.tobytes() and not v.flags.writeable for v, w in zip(vs, sh.shift_matrices(spec)))
        old = CovariantRep(scalar_correspondence(spec.n), StarRepresentation(SCALARS, [spec.h_dim()]), sh.shift_matrices(spec), tol)
        assert sz.dumps(sz.rep_to_json(rep)) == sz.dumps(sz.rep_to_json(old)), spec
    assert gated >= 10


class _RecordingNumpy:
    """numpy whose functions record the size of every array they return."""

    def __init__(self, sizes: list):
        self.sizes = sizes

    def __getattr__(self, name):
        attr = getattr(np, name)
        if not callable(attr) or isinstance(attr, type):
            return attr

        def recorded(*args, **kwargs):
            out = attr(*args, **kwargs)
            self.sizes += [a.size for a in (out if isinstance(out, (list, tuple)) else [out]) if isinstance(a, np.ndarray)]
            return out

        return recorded


def test_the_shift_criterion_and_power_report_build_no_dense_lift(tol, monkeypatch):
    # the n = 3, trunc 216 shift: neither shifts nor covrep builds an array of
    # h^2 entries, a dense V_i, or the stacked lift
    from pirep import covrep
    from pirep import powers as pw

    spec = WeightedShiftSpec(n=3, trunc=216)
    sizes = []
    for module in (sh, covrep):
        monkeypatch.setattr(module, "np", _RecordingNumpy(sizes))
    res = sh.shift_pi_criterion(spec, tol, power_cap=3)
    report = pw.power_report(sh.build_shift(spec, tol), 4)
    monkeypatch.undo()
    assert res.is_pi and res.power_pi_up_to == 3
    assert report.applicable and all(report.pi_flags + report.chain_flags + report.range_flags)
    assert sizes and max(sizes) < spec.h_dim() ** 2


# ---------------------------------------------------------------------------
# kernel formula
# ---------------------------------------------------------------------------


def test_kernel_formula_power_one_is_zero_set(tol):
    spec = WeightedShiftSpec(n=2, zero_set={0, 3}, trunc=40)
    got = sh.kernel_formula(spec, i=1, k=1)
    window = spec.window(1)
    assert got == [m for m in window if m in {0, 3}]


def test_kernel_formula_frozen_examples(tol):
    # n = 2, i = 1, B = {0}, k = 2: p = 2 would need 2m + 1 = 0, impossible
    spec = WeightedShiftSpec(n=2, zero_set={0}, trunc=64)
    assert sh.kernel_formula(spec, i=1, k=2) == [0]
    # n = 2, i = 2, B = {4}, k = 2: p = 2 gives 2m + 2 = 4, so m = 1
    spec = WeightedShiftSpec(n=2, zero_set={4}, trunc=64)
    assert sh.kernel_formula(spec, i=2, k=2) == [1, 4]


def test_kernel_formula_matches_bruteforce(tol):
    # oracle: kernels of the truncated matrix powers on the faithful window
    rng = rng_for(70)
    for trial in range(100):
        n = int(rng.integers(1, 4))
        b = frozenset(int(x) for x in rng.integers(0, 12, size=rng.integers(0, 5)))
        spec = WeightedShiftSpec(n=n, zero_set=b, trunc=max(sh.minimal_trunc(n, 3), n**3 * 8))
        weights = {}
        for _ in range(int(rng.integers(0, 4))):
            weights[(int(rng.integers(1, n + 1)), int(rng.integers(0, 10)))] = float(
                rng.uniform(0.3, 1.7)
            )
        spec = WeightedShiftSpec(n=n, weights=weights, zero_set=b, trunc=spec.trunc)
        for k in (1, 2, 3):
            for i in range(1, n + 1):
                assert sh.kernel_formula(spec, i, k) == sh.brute_force_kernel(spec, i, k, tol), (
                    trial,
                    n,
                    sorted(b),
                    i,
                    k,
                )


def _assert_power_columns_are_dense(spec, tol, where):
    """The oracle's stepped window columns of every V_i^k, k <= 3, against
    np.linalg.matrix_power of the dense V_i: its kernel is the dense columns'
    norm test, and each column holds one entry, at the stepped row.  The
    entry equals the stepped value bit for bit (and its norm is |value|)
    where the orbit meets a zero or at most one factor other than 1, since
    a product with 1 or 0 is exact in any order; otherwise matrix_power
    multiplies (V V) V and the weights round in another order."""
    vs = sh.shift_matrices(spec)
    for k in (1, 2, 3):
        window = list(spec.window(k))
        for i in range(1, spec.n + 1):
            dense = np.linalg.matrix_power(vs[i - 1], k)[:, window]
            want = [m for m, column in zip(window, dense.T) if np.linalg.norm(column) <= tol.incl_abs]
            assert sh.brute_force_kernel(spec, i, k, tol) == want, (where, i, k)
            got, rows, values = sh._power_columns(spec, i, k)
            assert list(got) == window and rows.shape == values.shape == (len(window),), (where, i, k)
            for m, column in zip(window, dense.T):
                orbit = [m]
                for _ in range(k - 1):
                    orbit.append(spec.n * orbit[-1] + i)
                factors = [spec.weight(i, j) * spec.alpha(j) for j in orbit]
                row, value = int(rows[m]), values[m]
                assert row == spec.n * orbit[-1] + i, (where, i, k, m)
                assert set(np.flatnonzero(column).tolist()) <= {row} and not column.imag.any()
                if 0.0 in factors or sum(f != 1.0 for f in factors) <= 1:
                    assert column[row].real.tobytes() == value.tobytes(), (where, i, k, m)
                    assert np.linalg.norm(column) == abs(value), (where, i, k, m)
                else:
                    np.testing.assert_allclose(column[row].real, value, rtol=4 * 2.0**-53, atol=0.0)


def oracle_specs(tol):
    """(where, spec) for the oracle comparisons: weights at the cut and one
    ulp above it; 40 draws with n up to 3 and weights in [0, 1.7); and 40
    with n up to 4, zero weights, weights over the zero set and overrides
    whose column or whose index lies past the truncation."""
    at, above = tol.incl_abs, float(np.nextafter(tol.incl_abs, 1.0))
    yield "cut", WeightedShiftSpec(n=2, weights={(1, 2): at, (1, 3): above, (2, 2): above}, trunc=40)
    rng = rng_for(72)
    for trial in range(40):
        n = int(rng.integers(1, 4))
        b = frozenset(int(x) for x in rng.integers(0, 12, size=rng.integers(0, 5)))
        weights = {}
        for _ in range(1 if trial % 2 else int(rng.integers(2, 30))):
            weights[(int(rng.integers(1, n + 1)), int(rng.integers(0, 20)))] = float(rng.uniform(0.0, 1.7))
        yield trial, WeightedShiftSpec(n=n, weights=weights, zero_set=b, trunc=max(sh.minimal_trunc(n, 3), n**3 * 8))
    rng = rng_for(73)
    for trial in range(40):
        n = int(rng.integers(1, 5))
        trunc = sh.minimal_trunc(n, 3) + int(rng.integers(0, 3 * n**3))
        b = frozenset(int(x) for x in rng.integers(0, 2 * n * n, size=rng.integers(0, 6)))
        weights = {(int(rng.integers(1, n + 1)), m): 0.0 for m in rng.integers(0, 2 * n * n, size=2)}
        weights.update({(int(rng.integers(1, n + 1)), m): float(rng.uniform(0.1, 1.7)) for m in sorted(b)[:2]})
        for m in (trunc // n, trunc + int(rng.integers(1, 9))):
            weights[(int(rng.integers(1, n + 1)), m)] = float(rng.uniform(0.1, 1.7))
        for _ in range(int(rng.integers(0, 12))):
            weights[(int(rng.integers(1, n + 1)), int(rng.integers(0, trunc + 1)))] = float(rng.uniform(0.1, 1.7))
        yield ("wide", trial), WeightedShiftSpec(n=n, weights=weights, zero_set=b, trunc=trunc)


def test_brute_force_kernel_matches_the_dense_matrix_power(tol):
    # weights at the cut and one ulp above it: a column is in the kernel
    # when its norm is <= incl_abs, as the dense norm test decides; then the
    # seeded draws
    for where, spec in oracle_specs(tol):
        _assert_power_columns_are_dense(spec, tol, where)
        if where == "cut":
            assert sh.brute_force_kernel(spec, 1, 1, tol) == [2] and sh.brute_force_kernel(spec, 2, 1, tol) == []


def _oracle_rebuilding_its_columns(spec, i: int, k: int, tol) -> list:
    """The oracle with the column data of all n directions built on every
    call and its window decided one column at a time by defect_within."""
    window = spec.window(k)
    rows, values = (a[i - 1] for a in sh._shift_columns(spec))
    row, value = rows[: len(window)], values[: len(window)]
    for _ in range(k - 1):
        value = values[row] * value
        row = rows[row]
    return [m for m, a in zip(window, np.abs(value).tolist()) if nx.defect_within(a, tol)]


def test_the_oracle_builds_the_column_data_once_per_spec(tol, monkeypatch):
    # the nine oracle calls of an n = 3 shift case (and the lift and the
    # dense V_i of the same spec) build its column data once; the spec that
    # keeps it is immutable, with its weights read-only and its equality
    # and dict unchanged; and on the seeded draws the oracle answers as when
    # it rebuilt the data per call and decided per column
    builds, real = [], sh._shift_columns
    monkeypatch.setattr(sh, "_shift_columns", lambda spec: builds.append(spec) or real(spec))
    spec = WeightedShiftSpec(n=3, weights={(2, 5): 0.5}, zero_set={1, 4}, trunc=216)
    kernels = [sh.brute_force_kernel(spec, i, k, tol) for k in (1, 2, 3) for i in (1, 2, 3)]
    sh.build_shift(spec, tol)
    sh.shift_matrices(spec)
    assert builds == [spec] and kernels == [sh.kernel_formula(spec, i, k) for k in (1, 2, 3) for i in (1, 2, 3)]
    monkeypatch.undo()
    assert not any(a.flags.writeable for a in spec._columns)
    with pytest.raises(TypeError):
        spec.weights[(1, 0)] = 2.0
    same = WeightedShiftSpec(n=3, weights={(2, 5): 0.5}, zero_set={4, 1}, trunc=216)
    assert same == spec and same.to_dict() == spec.to_dict() == {"n": 3, "weights": {"2,5": 0.5}, "zero_set": [1, 4], "trunc": 216}
    for where, spec in oracle_specs(tol):
        for k in (1, 2, 3):
            for i in range(1, spec.n + 1):
                assert sh.brute_force_kernel(spec, i, k, tol) == _oracle_rebuilding_its_columns(spec, i, k, tol), (where, i, k)


def test_the_kernel_oracle_builds_no_dense_power(tol, monkeypatch):
    # the n = 3, trunc 216 shift: for every direction and power up to 3 the
    # oracle returns no numpy array of h |W_k| entries (so neither a dense
    # V_i nor a dense window of V_i^k) and allocates less than a tenth of
    # one dense V_i
    import tracemalloc

    spec = WeightedShiftSpec(n=3, trunc=216, zero_set={0, 5, 17})
    h = spec.h_dim()
    for k in (1, 2, 3):
        for i in (1, 2, 3):
            sizes = []
            monkeypatch.setattr(sh, "np", _RecordingNumpy(sizes))
            tracemalloc.start()
            try:
                got = sh.brute_force_kernel(spec, i, k, tol)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                monkeypatch.undo()
            assert got == sh.kernel_formula(spec, i, k) and (k > 1 or got == [0, 5, 17]), (i, k)
            assert sizes and max(sizes) < h * len(spec.window(k)), (i, k)
            assert peak < nx.ENTRY_BYTES * h * h / 10, (i, k, peak)


def test_the_oracle_refuses_what_the_formula_refuses(tol):
    # a direction outside 1..n (0 would wrap round to direction n, n + 1
    # would index past the column data), a power below 1 (V^0 = I has no
    # kernel) and a non-integral index are refused by both sides
    spec = WeightedShiftSpec(n=2, zero_set={1}, trunc=40)
    for i, k in ((0, 1), (3, 1), (-1, 2), (1, 0), (2, -1), (True, 1), (1.0, 1), (1, 2.0)):
        with pytest.raises(DimensionMismatch):
            sh.kernel_formula(spec, i, k)
        with pytest.raises(DimensionMismatch):
            sh.brute_force_kernel(spec, i, k, tol)
    assert sh.brute_force_kernel(spec, np.int64(2), np.int64(2), tol) == sh.kernel_formula(spec, 2, 2) == [1]


def _closed_form_kernel(spec, i: int, k: int) -> list:
    """The formula's closed form: m in W_k is a kernel index when some
    n^(p-1) m + sum_{l=2}^{p} n^(p-l) i, p <= k, lies in the zero set."""
    return [
        m
        for m in spec.window(k)
        if any(
            spec.n ** (p - 1) * m + sum(spec.n ** (p - l) * i for l in range(2, p + 1)) in spec.zero_set
            for p in range(1, k + 1)
        )
    ]


def test_kernel_formula_follows_the_closed_form():
    rng = rng_for(74)
    compared = 0
    for draw in range(2000):
        n, k = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        trunc = int(rng.integers(1, 401))
        b = frozenset(int(x) for x in rng.integers(0, trunc + 1, size=rng.integers(0, 9)))
        spec = WeightedShiftSpec(n=n, zero_set=b, trunc=trunc)
        i = int(rng.integers(1, n + 1))
        if len(spec.window(k)) == 0:
            with pytest.raises(WindowError):
                sh.kernel_formula(spec, i, k)
            continue
        got = sh.kernel_formula(spec, i, k)
        assert got == _closed_form_kernel(spec, i, k) and all(type(m) is int for m in got), (draw, n, i, k)
        compared += 1
    assert compared >= 1000


def test_kernel_formula_window_error():
    spec = WeightedShiftSpec(n=3, trunc=5)
    with pytest.raises(WindowError) as err:
        sh.kernel_formula(spec, i=1, k=3)
    assert err.value.minimal_trunc == sh.minimal_trunc(3, 3)


# ---------------------------------------------------------------------------
# partial isometry criterion
# ---------------------------------------------------------------------------


def test_unit_weights_always_pi(tol):
    for b in (frozenset(), frozenset({0}), frozenset({1, 4})):
        spec = WeightedShiftSpec(n=2, zero_set=b)
        res = sh.shift_pi_criterion(spec, tol, power_cap=3)
        assert res.is_pi and res.weights_unit_off_zero_set
        assert res.power_pi_up_to >= 2


def test_offending_weight_breaks_pi(tol):
    spec = WeightedShiftSpec(n=1, weights={(1, 2): 0.7}, trunc=10)
    res = sh.shift_pi_criterion(spec, tol, power_cap=3)
    assert not res.is_pi and not res.weights_unit_off_zero_set
    # oracle: classify the truncated lift directly
    assert not sh.build_shift(spec, tol).is_partial_isometric()


def test_weights_on_zero_set_are_irrelevant(tol):
    spec = WeightedShiftSpec(n=2, weights={(1, 0): 7.5, (2, 0): 0.1}, zero_set={0}, trunc=30)
    res = sh.shift_pi_criterion(spec, tol, power_cap=3)
    assert res.is_pi and res.weights_unit_off_zero_set


def test_criterion_equivalence_random(tol):
    rng = rng_for(71)
    for trial in range(60):
        n = int(rng.integers(1, 4))
        b = frozenset(int(x) for x in rng.integers(0, 8, size=rng.integers(0, 4)))
        weights = {}
        if trial % 2 == 0:
            # possibly non-unit weight at an in-window, off-zero-set slot
            m = int(rng.integers(0, 4))
            weights[(int(rng.integers(1, n + 1)), m)] = float(rng.uniform(0.3, 0.9))
        spec = WeightedShiftSpec(n=n, weights=weights, zero_set=b)
        res = sh.shift_pi_criterion(spec, tol, power_cap=3)
        assert res.is_pi == res.weights_unit_off_zero_set, (trial, spec.to_dict())
        if res.is_pi:
            assert res.power_pi_up_to == spec.window_bound(cap=3)


def shift_lift_specs() -> list:
    """Shifts of the benchmark's sizes: n = 2 and 3 at truncation 8 n^3,
    unit weights or one broken weight, with and without a zero set."""
    specs = []
    for n in (2, 3):
        trunc = max(sh.minimal_trunc(n, 3), 8 * n**3)
        specs.append(WeightedShiftSpec(n=n, trunc=trunc))
        specs.append(WeightedShiftSpec(n=n, zero_set={0, 4, 9}, trunc=trunc))
        specs.append(WeightedShiftSpec(n=n, weights={(1, 2): 0.6}, zero_set={5}, trunc=trunc))
    return specs


def test_shift_lift_powers_and_verdicts_are_the_dense_ones(tol):
    # every entry of a product of shift matrices is a one-term sum, so
    # skipping exactly-zero columns and rows changes no bit
    for spec in shift_lift_specs():
        rep = sh.build_shift(spec, tol)
        for m in (1, 2, 3):
            tm = rep.tilde_power(m)
            assert tm.tobytes() == dense_tilde_power(rep, m).tobytes(), (spec.to_dict(), m)
            residual, verdict = nx.partial_isometry_residual(tm, tol)
            dense, scale = dense_pi_residual(tm), dense_opnorm(tm)
            assert residual == dense, (spec.to_dict(), m)
            dense_verdict = scale <= tol.rank_rel or dense <= tol.eq_rel * scale
            assert verdict == nx.is_partial_isometry(tm, tol) == dense_verdict, (spec.to_dict(), m)


def test_shift_criterion_factors_no_array_wider_than_the_rank(tol, monkeypatch):
    # the n = 3, trunc 216 shift: T_3 is 217 x 5859 with 204 nonzero columns;
    # the lift and its powers are index forms, so no SVD and no dense
    # partial-isometry verdict sees any of them
    widths = []
    real_svd, real_verdict = np.linalg.svd, nx._partial_isometry_verdict

    def svd(a, *args, **kwargs):
        widths.append(np.shape(a)[-1])
        return real_svd(a, *args, **kwargs)

    def verdict(a, *args):
        widths.append(a.shape[1])
        return real_verdict(a, *args)

    monkeypatch.setattr(np.linalg, "svd", svd)
    monkeypatch.setattr(np.linalg._linalg, "svd", svd)  # np.linalg.norm(a, 2) calls this one
    monkeypatch.setattr(nx, "_partial_isometry_verdict", verdict)
    spec = WeightedShiftSpec(n=3, trunc=216)
    res = sh.shift_pi_criterion(spec, tol, power_cap=3)
    assert res.is_pi and res.power_pi_up_to == 3
    # the lift and its powers are index forms, decided from their entries:
    # nothing is factored and no dense verdict is taken
    assert widths == []


def test_shift_lifts_take_no_svd(tol, monkeypatch):
    # every entry of the n = 3, trunc 216 shift lift (217 x 651) and of its
    # T_3 (217 x 5,859) is isolated, alone in its row and its column, so
    # their norms, contraction verdicts and cokernel frames factor nothing
    rep = sh.build_shift(WeightedShiftSpec(n=3, trunc=216), tol)
    lifts = [rep.tilde, rep.tilde_power(3)]
    shapes, real_svd = [], nx._svd

    def svd(a, *args, **kwargs):
        shapes.append(a.shape)
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(nx, "_svd", svd)
    for t in lifts:
        rank = int(np.count_nonzero(t))
        assert nx.opnorm(t) == 1.0 and nx.is_contraction(t, tol)
        frame = nx.range_frame(nx.herm(t), tol)
        assert frame.shape == (t.shape[1], rank) and np.count_nonzero(frame) == rank
    assert shapes == []


def test_shift_criterion_takes_the_lift_verdict_once(tol, monkeypatch):
    # rep.is_partial_isometric() is the first power's verdict: three powers, three verdicts
    calls = []
    real = nx.is_partial_isometry
    monkeypatch.setattr(nx, "is_partial_isometry", lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    res = sh.shift_pi_criterion(WeightedShiftSpec(n=2, trunc=64), tol, power_cap=3)
    assert res.is_pi and res.power_pi_up_to == 3
    assert len(calls) == 3


def count_gathers(monkeypatch) -> tuple:
    """(gathers, dense): the shapes of the index-form right factors that
    matmul gathers from, and the np.matmul calls made."""
    gathers, dense = [], []
    real_gather, real_matmul = nx.matmul, np.matmul

    def gather(a, b):
        if type(b) is nx._Monomial:
            gathers.append(b.shape)
        return real_gather(a, b)

    monkeypatch.setattr(nx, "matmul", gather)
    monkeypatch.setattr(np, "matmul", lambda *args, **kwargs: dense.append(1) or real_matmul(*args, **kwargs))
    return gathers, dense


def test_shift_lifts_powers_and_frames_take_the_gather_at_every_site(tol, monkeypatch):
    # the n = 3, trunc 216 shift: the lift, T_2, T_3 and their cokernel frames
    # are index forms, so every listed product is read from the index and
    # none is a GEMM
    from pirep import powers as pw

    rep = sh.build_shift(WeightedShiftSpec(n=3, trunc=216), tol)
    powers = {m: rep.tilde_power(m) for m in (1, 2, 3)}
    frames = {m: rep.cokernel_subspace(m) for m in (0, 1, 2, 3)}
    gathers, dense = count_gathers(monkeypatch)

    def site(expected, run):
        gathers.clear()
        dense.clear()
        out = run()
        assert len(gathers) == expected and dense == [], (expected, gathers, len(dense))
        return out

    for m in (1, 2, 3):
        tm, frame = powers[m], frames[m]._frame
        amp = rep._amplified_lift(m - 1)
        assert isinstance(amp.block, nx._Monomial) and isinstance(frame, nx._Monomial)
        if m > 1:
            built = site(0, lambda: rep._power(m - 1) @ amp)  # __rmatmul__ on two forms
            assert nx.dense(built, "T_m").tobytes() == tm.tobytes()
        moved = site(0, lambda: amp @ frame)  # __matmul__ on two forms
        assert np.array_equal(nx.dense(moved, "moved"), dense_amplified(rep, rep.tilde, m - 1, 1, 0) @ frames[m].frame)
        assert not site(0, lambda: nx._inclusion_gap(Subspace(moved), frames[m - 1]))._val.any()
        assert site(0, lambda: nx.partial_isometry_residual(rep._power(m), tol)) == (dense_pi_residual(tm), True)
        assert site(0, lambda: nx.is_partial_isometry(rep._power(m), tol))
        # T T* is composed from the lift's index form, and the image of the
        # cokernel under I (x) T T* and its inclusion are index forms too, at
        # m = 1 as well, where the cokernel of T_0 is the identity frame of H
        assert site(1, lambda: pw.range_invariance_condition(rep, m))
    # the lift's classification: T*T and T T* (2), F F* for its two frames
    # (2) and the two frame Grams F* X* X F (6); the triple product is
    # decided from the entries
    report = site(10, lambda: rep.classify())
    assert report.is_partial_isometric and report.consistent


def test_classify_reads_a_held_lift_by_index_to_the_dense_report(tol, monkeypatch):
    # rep.classify() on the n = 3, trunc 216 shift makes no GEMM, neither
    # builds nor scans the lift's array, and its report is the dense
    # path's (every product a GEMM) byte for byte
    from pirep import serialize as sz

    rep = sh.build_shift(WeightedShiftSpec(n=3, trunc=216), tol)
    lift = rep._lift
    assert isinstance(lift, nx._Monomial) and lift._dense is None
    gathers, dense = count_gathers(monkeypatch)
    scans, real_scan = [], nx._nonzero_lines
    monkeypatch.setattr(nx, "_nonzero_lines", lambda a: scans.append(a.shape) or real_scan(a))
    got = sz.dumps(rep.classify().to_dict())
    assert dense == [] and lift.shape not in scans and lift._dense is None
    monkeypatch.setattr(nx, "_index_form", lambda *args: None)  # no operand is read as a form
    want = sz.dumps(nx.classify_operator(np.array(rep.tilde), tol).to_dict())
    assert len(dense) > 0 and got == want


def test_a_conjugated_shift_takes_the_dense_path_to_the_same_power_flags(tol, monkeypatch):
    # conjugated by a Haar unitary the lift is dense: no operand but the
    # identity frame of H (the cokernel of T_0) is monomial, and the power
    # report's flags are those of the shift
    from pirep import harness as hz
    from pirep import powers as pw
    from pirep.correspondence import SCALARS, StarRepresentation, scalar_correspondence
    from pirep.covrep import CovariantRep

    gathers, dense = count_gathers(monkeypatch)
    specs = [WeightedShiftSpec(n=2, zero_set={0, 4, 9}, trunc=64), WeightedShiftSpec(n=2, weights={(1, 2): 0.6}, trunc=64)]
    for spec in specs:
        shift = sh.build_shift(spec, tol)
        u = hz.haar_unitary(rng_for(334), shift.h_dim)
        sigma = StarRepresentation(SCALARS, [shift.h_dim])
        conjugated = CovariantRep(scalar_correspondence(2), sigma, [u @ v @ nx.herm(u) for v in shift.v_on_basis], tol)
        want = pw.power_report(shift, 3)
        gathers.clear()
        dense.clear()
        got = pw.power_report(conjugated, 3)
        assert set(gathers) <= {(shift.h_dim, shift.h_dim)}
        assert len(dense) > 0 if want.applicable else not got.applicable
        for key in ("applicable", "pi_flags", "chain_flags", "range_flags"):
            assert getattr(got, key) == getattr(want, key), (spec.to_dict(), key)


# ---------------------------------------------------------------------------
# chain inclusion
# ---------------------------------------------------------------------------


def test_power_report_at_n_max_4_on_the_n3_trunc216_shift(tol):
    # dense, I_{E^3} (x) tilde would be 5,859 x 17,577 (1.6 GB, over the
    # budget); applied block by block the report fits the default budget
    from pirep import powers as pw

    report = pw.power_report(sh.build_shift(WeightedShiftSpec(n=3, trunc=216), tol), 4)
    assert report.applicable
    assert report.pi_flags == report.chain_flags == report.range_flags == [True] * 4


def test_chain_inclusion_pure_shift(tol):
    assert chain_inclusion_check(WeightedShiftSpec(n=1, trunc=8), k=1, tol=tol)
    assert chain_inclusion_check(WeightedShiftSpec(n=1, trunc=8), k=2, tol=tol)


def test_chain_inclusion_with_zero_set(tol):
    spec = WeightedShiftSpec(n=2, zero_set={0, 3}, trunc=64)
    for k in (1, 2):
        assert chain_inclusion_check(spec, k, tol)


def test_chain_inclusion_random_sweep(tol):
    rng = rng_for(72)
    for trial in range(100):
        n = int(rng.integers(1, 4))
        b = frozenset(int(x) for x in rng.integers(0, 10, size=rng.integers(0, 5)))
        spec = WeightedShiftSpec(n=n, zero_set=b, trunc=max(sh.minimal_trunc(n, 3), 32))
        for k in (1, 2):
            assert chain_inclusion_check(spec, k, tol), (trial, n, sorted(b), k)


def test_chain_inclusion_window_error(tol):
    with pytest.raises(WindowError):
        chain_inclusion_check(WeightedShiftSpec(n=3, trunc=4), k=3, tol=tol)


# ---------------------------------------------------------------------------
# row structure
# ---------------------------------------------------------------------------


def test_row_pi_iff_each_direction_pi(tol):
    # the target indices n m + i have distinct residues mod n, so the
    # ranges are pairwise orthogonal and the row verdict splits
    rng = rng_for(73)
    for trial in range(30):
        n = int(rng.integers(2, 4))
        weights = {}
        if trial % 3 == 0:
            weights[(1, 0)] = 0.5
        spec = WeightedShiftSpec(n=n, weights=weights, trunc=40)
        rep = sh.build_shift(spec, tol)
        for i in range(n):
            for j in range(i + 1, n):
                assert nx.opnorm(nx.herm(rep.v_on_basis[i]) @ rep.v_on_basis[j]) <= 1e-14
        each = all(nx.is_partial_isometry(v, tol) for v in rep.v_on_basis)
        assert rep.is_partial_isometric() == each, trial


# ---------------------------------------------------------------------------
# the index path against the public dense path
# ---------------------------------------------------------------------------


def index_path_specs() -> list:
    """Shifts with n = 1, 2 and 3 past the gate: unit weights, weights 0.5
    and 2.0, and nonempty zero sets; trunc 24 at n = 2 leaves a live part
    of 24 x 24 entries, below the gate."""
    return [
        WeightedShiftSpec(n=1, trunc=40),
        WeightedShiftSpec(n=1, zero_set={3, 17}, trunc=40),
        WeightedShiftSpec(n=1, weights={(1, 5): 0.5}, trunc=40),
        WeightedShiftSpec(n=2, trunc=24),
        WeightedShiftSpec(n=2, zero_set={0, 4, 9}, trunc=64),
        WeightedShiftSpec(n=2, weights={(1, 2): 0.5, (2, 7): 2.0}, trunc=64),
        WeightedShiftSpec(n=2, weights={(2, 30): 2.0}, trunc=64),
        WeightedShiftSpec(n=3, trunc=39),
        WeightedShiftSpec(n=3, zero_set={1, 5}, weights={(3, 2): 0.5}, trunc=120),
    ]


def phased_monomial_rep(tol, n: int, d: int, zero_set=()):
    """A monomial rep through CovariantRep itself: V_i e_m = w e_(n m + i)
    with w a unit phase exp(i theta), -1 or a complex number of modulus one
    up to rounding, and 0 on the zero set."""
    from pirep.correspondence import SCALARS, StarRepresentation, scalar_correspondence
    from pirep.covrep import CovariantRep

    rng = rng_for(340)
    vs = [np.zeros((d, d), dtype=np.complex128) for _ in range(n)]
    for i in range(n):
        for m in range(d):
            t = n * m + i + 1
            if t < d and m not in zero_set:
                vs[i][t, m] = rng.choice([-1.0, 1j, np.exp(1j * rng.uniform(0, 2 * np.pi))])
    return CovariantRep(scalar_correspondence(n), StarRepresentation(SCALARS, [d]), vs, tol)


def entrywise_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for factors whose product has at most one nonzero term per
    entry, each entry formed as that term alone: a[i, l] * b[l, j]."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.complex128)
    for i, l in zip(*np.nonzero(a)):
        for j in np.flatnonzero(b[l]):
            assert out[i, j] == 0
            out[i, j] = a[i, l] * b[l, j]
    return out


def dense_power_report(rep, n_max: int):
    """power_report on the public dense path: T_m from tilde_power, the
    cokernels from Subspace.span(herm(T_m)), I (x) T from the dense lift,
    T T* as its entries' products (each entry of T T* has at most one
    nonzero term), and is_subset on the arrays."""
    from pirep import powers as pw

    tol = rep.tol
    if not nx.is_partial_isometry(rep.tilde, tol):
        return pw.PowerReport(n_max, False, [], [], [], [])

    def dense_span(a):
        return Subspace(Subspace.span(a, tol).frame)

    cokernels = [Subspace.whole(rep.h_dim)] + [dense_span(nx.herm(rep.tilde_power(m))) for m in range(1, n_max + 1)]
    final = entrywise_product(rep.tilde, nx.herm(rep.tilde))
    pi_flags, chain_flags, range_flags, residuals = [], [], [], []
    for m in range(1, n_max + 1):
        residual, is_pi = nx.partial_isometry_residual(rep.tilde_power(m), tol)
        moved = dense_span(rep.amplified(rep.tilde, m - 1, 1, 0) @ cokernels[m].frame)
        kept = dense_span(rep.amplified(final, m - 1, 0, 0) @ cokernels[m - 1].frame)
        pi_flags.append(is_pi)
        chain_flags.append(nx.is_subset(moved, cokernels[m - 1], tol))
        range_flags.append(nx.is_subset(kept, cokernels[m - 1], tol))
        residuals.append(residual)
    return pw.PowerReport(n_max, True, pi_flags, chain_flags, range_flags, residuals)


def test_the_index_path_is_the_dense_path_bit_for_bit(tol):
    # every report byte, verdict and cokernel frame of the chains of
    # index-form lifts equals the public dense path's
    from pirep import powers as pw
    from pirep import serialize as sz

    reps = [(spec, sh.build_shift(spec, tol)) for spec in index_path_specs()]
    reps += [(None, phased_monomial_rep(tol, 2, 48)), (None, phased_monomial_rep(tol, 3, 40, zero_set={2, 7}))]
    applicable = 0
    for spec, rep in reps:
        assert isinstance(rep._lift, nx._Monomial), spec
        fresh = sh.build_shift(spec, tol) if spec is not None else rep
        got = pw.power_report(fresh, 4)
        want = dense_power_report(rep, 4)
        assert sz.dumps(got.to_dict()) == sz.dumps(want.to_dict()), spec
        applicable += got.applicable
        is_pi = nx.is_partial_isometry(rep.tilde, tol)
        dense_flags = [nx.is_partial_isometry(rep.tilde_power(k), tol) for k in range(1, 5)]
        dense_up_to = (dense_flags + [False]).index(False)
        assert pw.power_pi_up_to(fresh, is_pi, 4) == dense_up_to, spec
        for m in range(1, 5):
            frame = Subspace.span(nx.herm(rep.tilde_power(m)), tol).frame
            assert np.array_equal(fresh.cokernel_subspace(m).frame, frame), (spec, m)
            assert np.array_equal(fresh.range_subspace(m).frame, Subspace.span(rep.tilde_power(m), tol).frame)
        if spec is not None:
            criterion = sh.shift_pi_criterion(spec, tol, power_cap=3)
            assert criterion.is_pi == is_pi, spec
            assert criterion.power_pi_up_to == (min(dense_up_to, spec.window_bound(3)) if is_pi else 0), spec
    assert applicable >= 6
