#!/usr/bin/env python3
"""Structural diff of two JSON reports, or of two directories of them.

Usage:
    python scripts/report_diff.py OLD NEW

OLD and NEW are two JSON files, or two directories whose ``*.json`` files
are compared by name.  Every key, list length, bool, int, string, null and
non-finite float must be identical, and so must the file names; only
finite float leaves may differ.  Each structural difference is printed
with its path, then the largest |new - old| over the float leaves.  Exits
0 when the structure is identical and 1 otherwise.
"""

import json
import math
import pathlib
import sys


def compare(old, new, path: str, issues: list) -> float:
    """Largest |new - old| over the float leaves; structural differences
    are appended to ``issues``."""
    if type(old) is not type(new):
        issues.append(f"{path}: {type(old).__name__} {old!r} vs {type(new).__name__} {new!r}")
        return 0.0
    if isinstance(old, dict):
        if list(old) != list(new):
            issues.append(f"{path}: keys {list(old)} vs {list(new)}")
            return 0.0
        return max((compare(old[k], new[k], f"{path}.{k}", issues) for k in old), default=0.0)
    if isinstance(old, list):
        if len(old) != len(new):
            issues.append(f"{path}: length {len(old)} vs {len(new)}")
            return 0.0
        return max((compare(a, b, f"{path}[{i}]", issues) for i, (a, b) in enumerate(zip(old, new))), default=0.0)
    if isinstance(old, float) and math.isfinite(old) and math.isfinite(new):
        return abs(new - old)
    if old != new and not (isinstance(old, float) and math.isnan(old) and math.isnan(new)):
        issues.append(f"{path}: {old!r} vs {new!r}")
    return 0.0


def load_pairs(old: pathlib.Path, new: pathlib.Path, issues: list) -> list:
    """(name, old document, new document) for each file both sides have."""
    if old.is_dir() and new.is_dir():
        names_old = sorted(p.name for p in old.glob("*.json"))
        names_new = sorted(p.name for p in new.glob("*.json"))
        if names_old != names_new:
            issues.append(f"files: {names_old} vs {names_new}")
        names = [n for n in names_old if n in names_new]
        return [(n, json.loads((old / n).read_text()), json.loads((new / n).read_text())) for n in names]
    if old.is_dir() or new.is_dir():
        issues.append(f"{old} and {new} are not both files or both directories")
        return []
    return [(new.name, json.loads(old.read_text()), json.loads(new.read_text()))]


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    issues = []
    pairs = load_pairs(pathlib.Path(argv[0]), pathlib.Path(argv[1]), issues)
    delta = max((compare(a, b, name, issues) for name, a, b in pairs), default=0.0)
    for issue in issues:
        print(f"structural: {issue}")
    print(f"documents {len(pairs)}, structural differences {len(issues)}, max |delta| over float leaves {delta:.3g}")
    return 1 if issues else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
