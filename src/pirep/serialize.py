"""JSON round-trips for matrices, correspondences, and representations,
plus a deterministic serializer.

Matrix schema, used repo-wide:

    {"rows": r, "cols": c, "data": [[re, im], ...]}

with row-major data of length r*c.  All numbers are written as decimals with 17 significant digits
and dict keys are sorted, so equal values serialize byte-identically.
"""

from __future__ import annotations

import numpy as np

from .correspondence import FdCStarAlgebra, FdCorrespondence, StarRepresentation
from .covrep import CovariantRep
from .errors import UsageError
from .numerics import DEFAULT_TOL, Tolerance, as_matrix


def format_number(x: float) -> str:
    """Decimal with 17 significant digits; integral floats keep a decimal
    point so the round-trip stays float-typed."""
    if isinstance(x, bool):
        raise TypeError("bool is not a number here")
    if np.isnan(x) or np.isinf(x):
        raise UsageError("non-finite numbers are not serializable")
    text = format(float(x), ".17g")
    if "e" not in text and "." not in text and "n" not in text:
        text += ".0"
    return text


def dumps(obj, indent: int | None = None) -> str:
    """Deterministic JSON: sorted keys, 17-significant-digit floats."""
    pieces = []
    _write(obj, pieces, indent, 0)
    return "".join(pieces)


def _write(obj, out: list, indent, depth):
    pad = "" if indent is None else "\n" + " " * (indent * (depth + 1))
    closepad = "" if indent is None else "\n" + " " * (indent * depth)
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_number(float(obj)))
    elif isinstance(obj, str):
        out.append(_escape(obj))
    elif isinstance(obj, dict):
        out.append("{")
        first = True
        for key in sorted(obj):
            if not isinstance(key, str):
                raise UsageError(f"JSON object keys must be strings, got {type(key)!r}")
            if not first:
                out.append(",")
            out.append(pad)
            out.append(_escape(key))
            out.append(": " if indent is not None else ":")
            _write(obj[key], out, indent, depth + 1)
            first = False
        out.append(closepad if not first else "")
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        first = True
        for item in obj:
            if not first:
                out.append(",")
            out.append(pad)
            _write(item, out, indent, depth + 1)
            first = False
        out.append(closepad if not first else "")
        out.append("]")
    else:
        raise UsageError(f"cannot serialize {type(obj)!r}")


def _escape(s: str) -> str:
    out = ['"']
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ch == "\r":
            out.append("\\r")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


def matrix_to_json(m) -> dict:
    a = as_matrix(m)
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "data": [[float(z.real), float(z.imag)] for z in a.ravel()],
    }


def matrix_from_json(obj) -> np.ndarray:
    try:
        rows, cols, data = int(obj["rows"]), int(obj["cols"]), obj["data"]
        if len(data) != rows * cols:
            raise UsageError(f"matrix data length {len(data)} != {rows}*{cols}")
        flat = np.array([complex(re, im) for re, im in data], dtype=np.complex128)
        return flat.reshape(rows, cols)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"malformed matrix JSON: {exc}") from exc


def tolerance_to_json(tol: Tolerance) -> dict:
    return {"rank_rel": tol.rank_rel, "eq_rel": tol.eq_rel, "incl_abs": tol.incl_abs}


# ---------------------------------------------------------------------------
# correspondences and representations
# ---------------------------------------------------------------------------


def correspondence_to_json(e: FdCorrespondence) -> dict:
    n = e.module_dim
    return {
        "block_sizes": list(e.algebra.block_sizes),
        "module_dim": n,
        "gram": [[matrix_to_json(e.gram[a, b]) for b in range(n)] for a in range(n)],
        "left_action": [matrix_to_json(m) for m in e.left_action],
        "right_action": [matrix_to_json(m) for m in e.right_action],
    }


def correspondence_from_json(obj, tol: Tolerance = DEFAULT_TOL) -> FdCorrespondence:
    try:
        # declared sizes must match the data before anything is built from them
        sizes = [int(k) for k in obj["block_sizes"]]
        n, dim = int(obj["module_dim"]), sum(k * k for k in sizes)
        rows, left_data, right_data = obj["gram"], obj["left_action"], obj["right_action"]
        if len(rows) != n or any(len(row) != n for row in rows) or not len(left_data) == len(right_data) == dim:
            raise UsageError(f"declared sizes need a {n} x {n} gram and {dim} matrices per action list")
        gram_data = [[matrix_from_json(m) for m in row] for row in rows]
        algebra = FdCStarAlgebra(sizes)
        k = algebra.matrix_size
        if any(g.shape != (k, k) for row in gram_data for g in row):
            raise UsageError(f"gram entries must be {k} x {k} matrices")
        gram = np.array(gram_data, dtype=np.complex128).reshape(n, n, k, k)
        left = np.stack([matrix_from_json(m) for m in left_data])
        right = np.stack([matrix_from_json(m) for m in right_data])
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"malformed correspondence JSON: {exc}") from exc
    return FdCorrespondence(algebra, gram, left, right).validate(tol)


def rep_to_json(rep: CovariantRep) -> dict:
    return {
        "correspondence": correspondence_to_json(rep.corr),
        "multiplicities": list(rep.sigma.multiplicities),
        "V": [matrix_to_json(v) for v in rep.v_on_basis],
    }


def rep_from_json(obj, tol: Tolerance = DEFAULT_TOL) -> CovariantRep:
    try:
        corr = correspondence_from_json(obj["correspondence"], tol)
        sigma = StarRepresentation(corr.algebra, obj["multiplicities"])
        vs = [matrix_from_json(v) for v in obj["V"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"malformed representation JSON: {exc}") from exc
    return CovariantRep(corr, sigma, vs, tol)
