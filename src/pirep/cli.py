"""Command-line interface.

One executable with subcommands:

    classify --rep rep.json
    product  --reps a.json b.json [...] [--all-conditions]
    powers   --rep rep.json --nmax 4
    root     --rep rep.json --k 3
    wold     --rep rep.json [--skip-hypotheses]
    shift    --n 2 --B 0,3 --M 64 --power 3 [--weights w.json]
    verify   --theorem T2.2 --trials 500 --seed 42 [--falsify]

Global flags (--tol-rank, --tol-eq, --tol-incl, --indent) are accepted by
every subcommand.  --indent takes 0 to 8; any other value exits 2.
Every dense array that grows with a tensor power is checked against one
byte budget (``numerics.DENSE_BYTES``) from its shape before it is
allocated, so an input past it exits 2 naming the bytes it needs (and a
MemoryError exits 2 as well).  All output is deterministic JSON on stdout with numbers
at 17 significant digits.  ``classify`` and ``product`` print
``numerics.classify_operator`` of the lift (for ``product``, of the
product's lift ``ProductRep.tilde``), with the six-way partial-isometry
diagnostic; every other verdict is the triple-product rule alone.
``verify`` exits 0 iff the run produced zero violations, 1 otherwise;
every subcommand exits 2 on usage or input errors, malformed JSON
included, and so do ``powers --nmax`` below 1, ``root --k`` below 2,
``shift --power`` below 1, a ``shift --B`` entry that is not a
nonnegative integer, a ``verify --seed`` outside [0, 2**64) and a
non-finite or non-positive --tol-*.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import harness, powers, serialize, shifts, wold
from .errors import NotApplicable, PirepError, UsageError
from .numerics import DEFAULT_TOL, Tolerance, classify_operator
from .products import (
    ProductRep,
    chain_condition_test,
    commuting_projection_test,
    defect_dilation_test,
    pinv_factorization_test,
    sufficient_intertwining_check,
)


def _common_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--tol-rank", type=float, default=DEFAULT_TOL.rank_rel,
                        help="relative singular-value cutoff")
    parser.add_argument("--tol-eq", type=float, default=DEFAULT_TOL.eq_rel,
                        help="relative residual cutoff for identities")
    parser.add_argument("--tol-incl", type=float, default=DEFAULT_TOL.incl_abs,
                        help="absolute cutoff for subspace inclusions")
    parser.add_argument("--indent", type=int, default=2, choices=range(9), metavar="{0..8}",
                        help="JSON indent, 0 to 8 (0 for compact)")


def _tolerance(args) -> Tolerance:
    return Tolerance(rank_rel=args.tol_rank, eq_rel=args.tol_eq, incl_abs=args.tol_incl)


def _read_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"{path}: invalid JSON: {exc}") from exc


def _load_rep(path: str, tol: Tolerance):
    return serialize.rep_from_json(_read_json(path), tol)


def _emit(obj, args) -> None:
    indent = None if args.indent == 0 else args.indent
    sys.stdout.write(serialize.dumps(obj, indent=indent))
    sys.stdout.write("\n")


def _cmd_classify(args) -> int:
    tol = _tolerance(args)
    rep = _load_rep(args.rep, tol)
    _emit(rep.classify().to_dict(), args)
    return 0


def _cmd_product(args) -> int:
    tol = _tolerance(args)
    reps = [_load_rep(path, tol) for path in args.reps]
    prod = ProductRep(reps)
    out = {
        "n_factors": len(reps),
        "product_classification": classify_operator(prod.tilde, prod.tol).to_dict(),
    }
    if args.all_conditions:
        try:
            out["chain_conditions"] = chain_condition_test(reps).to_dict()
            out["pinv_factorization"] = pinv_factorization_test(reps).to_dict()
        except NotApplicable as exc:
            out["chain_conditions"] = {"not_applicable": exc.reason}
        if len(reps) == 2:
            try:
                out["commuting_projections"] = commuting_projection_test(*reps).to_dict()
            except NotApplicable as exc:
                out["commuting_projections"] = {"not_applicable": exc.reason}
            try:
                out["sufficient_intertwining"] = sufficient_intertwining_check(*reps)
            except NotApplicable as exc:
                out["sufficient_intertwining"] = {"not_applicable": exc.reason}
            try:
                out["defect_dilation"] = defect_dilation_test(*reps).to_dict()
            except PirepError as exc:
                out["defect_dilation"] = {"not_applicable": str(exc)}
    _emit(out, args)
    return 0


def _cmd_powers(args) -> int:
    tol = _tolerance(args)
    rep = _load_rep(args.rep, tol)
    report = powers.power_report(rep, args.nmax)
    out = report.to_dict()
    rinf = powers.generalized_range(rep)
    out["generalized_range_dim"] = rinf.dim
    out["regular"] = powers._is_regular_over(rep, rinf)
    _emit(out, args)
    return 0


def _cmd_root(args) -> int:
    tol = _tolerance(args)
    rep = _load_rep(args.rep, tol)
    try:
        out = powers.root_criterion(rep, args.k).to_dict()
    except NotApplicable as exc:
        out = {"not_applicable": exc.reason}
    _emit(out, args)
    return 0


def _cmd_wold(args) -> int:
    tol = _tolerance(args)
    rep = _load_rep(args.rep, tol)
    try:
        out = wold.wold_decompose(rep, check_hypotheses=not args.skip_hypotheses).to_dict()
    except NotApplicable as exc:
        out = {"not_applicable": exc.reason}
    _emit(out, args)
    return 0


def _cmd_shift(args) -> int:
    tol = _tolerance(args)
    try:
        zero_set = frozenset(int(x) for x in args.B.split(",") if x != "")
    except ValueError as exc:
        raise UsageError(f"--B: malformed zero set: {exc}") from exc
    weights = {}
    if args.weights:
        try:
            for key, value in _read_json(args.weights).items():
                i, m = key.split(",")
                weights[(int(i), int(m))] = float(value)
        except (AttributeError, TypeError, ValueError, OverflowError) as exc:
            raise UsageError(f"{args.weights}: malformed weights JSON: {exc}") from exc
    spec = shifts.WeightedShiftSpec(n=args.n, weights=weights, zero_set=zero_set, trunc=args.M)
    rep = shifts.build_shift(spec, tol)
    out = {
        "spec": spec.to_dict(),
        "rep": serialize.rep_to_json(rep),
        "criterion": shifts.shift_pi_criterion(spec, tol, power_cap=args.power).to_dict(),
        "window_bound": spec.window_bound(cap=args.power),
        "kernel_formula": {
            f"i={i},k={k}": shifts.kernel_formula(spec, i, k)
            for i in range(1, spec.n + 1)
            for k in range(1, spec.window_bound(cap=args.power) + 1)
        },
    }
    _emit(out, args)
    return 0


def _cmd_verify(args) -> int:
    tol = _tolerance(args)
    config = harness.TrialConfig(master_seed=args.seed, trials=args.trials, algebra_shape=args.algebra)
    report = harness.verify(args.theorem, config, tol, falsify=args.falsify)
    _emit(report.to_dict(), args)
    return 0 if report.equivalence_violations == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pirep",
        description="partial-isometry criteria for covariant representations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classification report for a representation")
    p.add_argument("--rep", required=True)
    _common_flags(p)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("product", help="product criteria for a list of factors")
    p.add_argument("--reps", nargs="+", required=True)
    p.add_argument("--all-conditions", action="store_true")
    _common_flags(p)
    p.set_defaults(fn=_cmd_product)

    p = sub.add_parser("powers", help="per-power report")
    p.add_argument("--rep", required=True)
    p.add_argument("--nmax", type=int, default=4)
    _common_flags(p)
    p.set_defaults(fn=_cmd_powers)

    p = sub.add_parser("root", help="root criterion at power k")
    p.add_argument("--rep", required=True)
    p.add_argument("--k", type=int, default=2)
    _common_flags(p)
    p.set_defaults(fn=_cmd_root)

    p = sub.add_parser("wold", help="two-part orthogonal decomposition")
    p.add_argument("--rep", required=True)
    p.add_argument("--skip-hypotheses", action="store_true",
                   help="compute even when the strict hypotheses fail (truncated models)")
    _common_flags(p)
    p.set_defaults(fn=_cmd_wold)

    p = sub.add_parser("shift", help="build a truncated weighted shift and run its criteria")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--B", type=str, default="", help="comma-separated zero set")
    p.add_argument("--M", type=int, default=None, help="truncation level")
    p.add_argument("--power", type=int, default=3)
    p.add_argument("--weights", type=str, default=None, help='JSON file {"i,m": w} of overrides')
    _common_flags(p)
    p.set_defaults(fn=_cmd_shift)

    p = sub.add_parser("verify", help="run a registered claim over seeded trials")
    p.add_argument("--theorem", required=True, choices=harness.theorem_ids())
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--falsify", action="store_true")
    p.add_argument("--algebra", default="scalar", choices=["scalar", "two_block", "mixed"])
    _common_flags(p)
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (PirepError, FileNotFoundError, MemoryError) as exc:
        sys.stderr.write(f"error: {str(exc) or 'out of memory'}\n")  # a MemoryError may carry no message
        return 2


if __name__ == "__main__":
    sys.exit(main())
