"""Per-layer call tracing for pirep, installed from outside the package.

The tracer wraps every public function and public method of the measured
layer modules and rebinds the wrapper wherever the original is bound: in
its own module, in every other ``pirep`` module that imported it by name
(``from .numerics import opnorm`` in covrep, harness, powers, ...), and in
the package namespace.  Patching only ``pirep.numerics.opnorm`` would miss
every by-name binding and undercount.

Each wrapped call records one span (name, start, end, parent span, trial
id, raised) in per-thread memory; spans are turned into per-layer counts
and self times when the run ends.  Self time is span time minus the time
covered by child spans.  The trivial helpers ``as_matrix``, ``herm`` and
``eye`` are only counted, never timed, so their time stays with the caller
and the tracing overhead stays small.

``numpy.linalg.svd``, ``eigh`` and ``eigvalsh`` are wrapped in the same
way (including the binding ``numpy.linalg.norm(a, 2)`` reaches through
``numpy.linalg._linalg``).  They open no span: their time stays in the
caller's self time, and they feed the ``numerics.svd_*`` counters, the
computed SVD flop count and the largest dense operand or factor.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import itertools
import sys
import threading
import time
from array import array

import numpy as np

LAYERS = (
    "numerics",
    "correspondence",
    "covrep",
    "products",
    "powers",
    "shifts",
    "wold",
    "harness",
    "serialize",
)
COUNTED_ONLY = frozenset({"numerics.as_matrix", "numerics.herm", "numerics.eye"})
SPAN_FIELDS = ("span", "name", "start", "end", "parent", "trial", "raised")
_WIDTH = len(SPAN_FIELDS)


class _ThreadState:
    __slots__ = ("top", "trial", "spans", "counts", "seen")

    def __init__(self):
        self.top = -1.0
        self.trial = -1.0
        self.spans = array("d")
        self.counts = {}
        self.seen = set()


def _bump(counts, key, by=1):
    counts[key] = counts.get(key, 0) + by


def _corr_key(e):
    return (
        e.algebra.block_sizes,
        e.gram.shape,
        hash(e.gram.tobytes()),
        hash(e.left_action.tobytes()),
        hash(e.right_action.tobytes()),
    )


def _repeat_probe(name, key_of):
    """Count calls whose inputs were already seen in the same trial."""

    def probe(st, args, kwargs):
        key = (name, key_of(*args, **kwargs))
        if key in st.seen:
            _bump(st.counts, name + ".repeats")
        else:
            st.seen.add(key)

    return probe


def _interior_tensor_key(e, sigma, tol=None):
    return _corr_key(e), sigma.algebra.block_sizes, sigma.multiplicities, tol


def _tensor_product_key(e, f):
    return _corr_key(e), _corr_key(f)


def _tilde_power_probe(st, args, kwargs):
    rep, m = args[0], args[1] if len(args) > 1 else kwargs["m"]
    if m in getattr(rep, "_powers", ()):
        _bump(st.counts, "covrep.tilde_power.hits")


PROBES = {
    "correspondence.interior_tensor": _repeat_probe("correspondence.interior_tensor", _interior_tensor_key),
    "correspondence.tensor_product": _repeat_probe("correspondence.tensor_product", _tensor_product_key),
    "covrep.CovariantRep.tilde_power": _tilde_power_probe,
}


def _svd_flops(m: int, n: int, full_matrices: bool, compute_uv: bool, is_complex: bool) -> int:
    """Golub-Reinsch operation counts (Golub and Van Loan, table 8.6.1)
    for an m x n SVD; complex arithmetic costs four real flops per real
    one.  Computed from the shape, not measured; integers, so totals do
    not depend on the order threads add them in."""
    if m < n:
        m, n = n, m
    if not compute_uv:
        flops = 4 * m * n * n - 4 * n**3 // 3
    elif full_matrices:
        flops = 4 * m * m * n + 8 * m * n * n + 9 * n**3
    else:
        flops = 14 * m * n * n + 8 * n**3
    return 4 * flops if is_complex else flops


class Tracer:
    """Installs call tracing on an imported ``pirep`` package.

    Use ``install()`` before the measured work and ``uninstall()`` after;
    ``begin_trial(i)`` tags the spans of the calling thread with trial id
    ``i`` and resets the per-trial repeat memory.
    """

    def __init__(self, package):
        self.package = package
        self._patches = []
        self._names = []
        self._name_ids = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._states = []
        self._states_lock = threading.Lock()

    # -- per-thread state ------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.s
        except AttributeError:
            st = _ThreadState()
            self._local.s = st
            with self._states_lock:
                self._states.append(st)
            return st

    def begin_trial(self, trial_id: int):
        st = self._state()
        st.trial = float(trial_id)
        st.seen = set()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    # -- wrappers --------------------------------------------------------

    def _span(self, name, fn):
        nid = float(self._name_id(name))
        ids = self._ids
        local = self._local
        new_state = self._state
        clock = time.perf_counter
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                st = local.s
            except AttributeError:
                st = new_state()
            if probe is not None:
                probe(st, args, kwargs)
            sid = float(next(ids))
            parent = st.top
            st.top = sid
            raised = 1.0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                raised = 0.0
                return result
            finally:
                t1 = clock()
                st.top = parent
                st.spans.extend((sid, nid, t0, t1, parent, st.trial, raised))

        return traced

    def _count(self, name, fn):
        local = self._local
        new_state = self._state

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            try:
                st = local.s
            except AttributeError:
                st = new_state()
            _bump(st.counts, name)
            return fn(*args, **kwargs)

        return counted

    def _svd(self, fn):
        new_state = self._state
        clock = time.perf_counter

        @functools.wraps(fn)
        def svd(a, full_matrices=True, compute_uv=True, hermitian=False):
            t0 = clock()
            out = fn(a, full_matrices, compute_uv, hermitian)
            t1 = clock()
            st = new_state()
            arr = np.asarray(a)
            m, n = (int(x) for x in arr.shape)
            is_complex = np.iscomplexobj(arr)
            largest = max(m * n, m * m, n * n) if compute_uv and full_matrices else m * n
            c = st.counts
            _bump(c, "svd.calls")
            _bump(c, "svd.s", t1 - t0)
            _bump(c, "svd.flops", _svd_flops(m, n, full_matrices, compute_uv, is_complex))
            c["dense.bytes"] = max(c.get("dense.bytes", 0), largest * arr.itemsize)
            return out

        return svd

    def _eigh(self, fn):
        new_state = self._state

        @functools.wraps(fn)
        def eigh(a, *args, **kwargs):
            st = new_state()
            arr = np.asarray(a)
            _bump(st.counts, "eigh.calls")
            st.counts["dense.bytes"] = max(st.counts.get("dense.bytes", 0), arr.size * arr.itemsize)
            return fn(a, *args, **kwargs)

        return eigh

    # -- installation ----------------------------------------------------

    def _patch(self, target, attr, value):
        self._patches.append((target, attr, vars(target)[attr]))
        setattr(target, attr, value)

    def _wrap_class(self, layer, cls, explicit_init: bool):
        for attr, obj in list(vars(cls).items()):
            if attr == "__init__" and explicit_init and inspect.isfunction(obj):
                self._patch(cls, attr, self._span(f"{layer}.{cls.__name__}", obj))
            elif attr.startswith("_"):
                continue
            elif isinstance(obj, staticmethod):
                self._patch(cls, attr, staticmethod(self._span(f"{layer}.{cls.__name__}.{attr}", obj.__func__)))
            elif inspect.isfunction(obj):
                self._patch(cls, attr, self._span(f"{layer}.{cls.__name__}.{attr}", obj))

    def install(self):
        pkg = self.package.__name__
        modules = [m for n, m in sorted(sys.modules.items()) if n == pkg or n.startswith(pkg + ".")]
        replacements = {}
        for layer in LAYERS:
            mod = sys.modules[f"{pkg}.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    wrap = self._count if name in COUNTED_ONLY else self._span
                    replacements[id(obj)] = (obj, wrap(name, obj))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj, not dataclasses.is_dataclass(obj))
        linalg = sys.modules["numpy.linalg"]
        for original, wrapped in (
            (linalg.svd, self._svd(linalg.svd)),
            (linalg.eigh, self._eigh(linalg.eigh)),
            (linalg.eigvalsh, self._eigh(linalg.eigvalsh)),
        ):
            replacements[id(original)] = (original, wrapped)
        inner = [sys.modules[n] for n in ("numpy.linalg._linalg", "numpy.linalg.linalg") if n in sys.modules]
        for mod in modules + [linalg] + inner:
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])

    def uninstall(self):
        while self._patches:
            target, attr, value = self._patches.pop()
            setattr(target, attr, value)

    # -- results ---------------------------------------------------------

    def spans(self) -> np.ndarray:
        """All spans as rows of SPAN_FIELDS, ordered by span id."""
        parts = [np.frombuffer(st.spans, dtype=np.float64) for st in self._states]
        rows = np.concatenate(parts).reshape(-1, _WIDTH) if parts else np.zeros((0, _WIDTH))
        return rows[np.argsort(rows[:, 0], kind="stable")]

    @property
    def names(self) -> list:
        return list(self._names)

    def counts(self) -> dict:
        """Counters summed over threads; ``dense.bytes`` is a maximum."""
        total = {}
        for st in self._states:
            for key, value in st.counts.items():
                if key == "dense.bytes":
                    total[key] = max(total.get(key, 0), value)
                else:
                    _bump(total, key, value)
        return total

    def summary(self) -> dict:
        """Per-name calls, self seconds and raised counts, plus the
        counters.  Span ids are dense (every opened span is closed before
        the spans are read), so a span's row index equals its id."""
        rows = self.spans()
        n_names = len(self._names)
        dur = rows[:, 3] - rows[:, 2]
        covered = np.zeros(len(rows))
        child = rows[:, 4] >= 0
        np.add.at(covered, rows[child, 4].astype(np.int64), dur[child])
        name_idx = rows[:, 1].astype(np.int64)
        calls = np.bincount(name_idx, minlength=n_names)
        self_s = np.bincount(name_idx, weights=dur - covered, minlength=n_names)
        raised = np.bincount(name_idx, weights=rows[:, 6], minlength=n_names)
        per_name = {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i]), "raised": int(raised[i])}
            for i, name in enumerate(self._names)
        }
        return {"per_name": per_name, "counts": self.counts(), "spans": int(len(rows))}
