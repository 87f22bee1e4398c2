"""Command line interface.

Partitions are comma-separated part lists ("5,5,4,3,1,1"), with "-" for
the empty partition.  Tableaux travel as JSON objects with keys "outer",
"inner", and "rows", and must have the triple's skew shape; pass a file
path or "-" for stdin, or select one by its position in the canonical
enumeration with --index.  Exit status is 0 on success, 1 on a domain
error (reported as JSON on stderr; running out of memory or of recursion
depth counts as one), 2 on a usage error.
"""

import argparse
import functools
import json
import sys

from . import bz4, hwv, oracle, verify
from .errors import LRBError, ShapeError
from .polyring import mono_text, poly_text, poly_to_json
from .shapes import parse_partition, validate_triple
from .tableaux import LRTableau, enumerate_lr, monomial_M, monomial_bigE, \
    monomial_e, standard_peeling


def _add_triple_args(p):
    p.add_argument("--D", required=True, help='left diagram, e.g. "3,3,2,1,1" or "-"')
    p.add_argument("--E", required=True, help="right diagram")
    p.add_argument("--F", required=True, help="target diagram")
    p.add_argument("--n", type=int, default=None, help="rows of the x and y matrices")
    p.add_argument("--k", type=int, default=None, help="columns of the x matrix")
    p.add_argument("--ell", type=int, default=None, help="columns of the y matrix")


def _triple(args):
    return validate_triple(parse_partition(args.D), parse_partition(args.E),
                           parse_partition(args.F), args.n, args.k, args.ell)


def _load_tableau(args, triple):
    if getattr(args, "index", None) is not None:
        tabs = enumerate_lr(triple)
        if not 0 <= args.index < len(tabs):
            raise LRBError(f"index {args.index} out of range; {len(tabs)} tableaux")
        return tabs[args.index]
    if not getattr(args, "tableau", None):
        raise LRBError("provide --tableau FILE or --index N")
    if args.tableau == "-":
        data = json.load(sys.stdin)
    else:
        with open(args.tableau) as fh:
            data = json.load(fh)
    T, shape = LRTableau.from_json(data), triple.skew_shape()
    if T.shape != shape:
        raise ShapeError(f"the tableau's shape {T.shape} is not the "
                         f"triple's {shape}")
    return T


def _poly_out(args, p):
    if args.format == "text":
        print(poly_text(p))
    else:
        print(json.dumps(poly_to_json(p)))


def cmd_count(args):
    triple = _triple(args)
    out = {"lr_count": len(enumerate_lr(triple)),
           "oracle_count": oracle.lr_coefficient(triple)}
    if args.format == "text":
        print(f"lr_count={out['lr_count']} oracle_count={out['oracle_count']}")
    else:
        print(json.dumps(out))


def cmd_tableaux(args):
    triple = _triple(args)
    tabs = [T.to_json() for T in enumerate_lr(triple)]
    if args.format == "text":
        for i, t in enumerate(tabs):
            print(f"# {i}")
            for row in t["rows"]:
                print(" ".join(map(str, row)))
    else:
        print(json.dumps(tabs))


def cmd_peel(args):
    triple = _triple(args)
    T = _load_tableau(args, triple)
    trace = standard_peeling(T)
    out = {"strips": [[list(cell) for cell in strip] for strip in trace.strips],
           "banal_shape": list(trace.banal_shape.parts)}
    print(json.dumps(out))


def cmd_monomials(args):
    triple = _triple(args)
    T = _load_tableau(args, triple)
    out = {"M": [list(r) for r in monomial_M(T).m],
           "e": mono_text(monomial_e(T)),
           "bigE": mono_text(monomial_bigE(T, triple))}
    print(json.dumps(out))


def cmd_delta(args):
    triple = _triple(args)
    if args.index is not None or args.tableau:
        T = _load_tableau(args, triple)
        p = hwv.delta_MT(triple, T)
    else:
        p = hwv.delta(triple, A=args.A)
    _poly_out(args, p)


def cmd_delta_ty(args):
    triple = _triple(args)
    T = _load_tableau(args, triple)
    _poly_out(args, hwv.delta_TY(triple, T))


def cmd_verify(args):
    triple = _triple(args)
    report = {}
    run_all = args.all or not (args.hwv or args.weights or args.leading or args.basis)
    tabs = enumerate_lr(triple)
    polys = None
    if args.hwv or args.weights or run_all:
        polys = [hwv.delta_MT(triple, T) for T in tabs]
    if args.hwv or run_all:
        report["hwv"] = all(verify.check_hwv(p, triple) for p in polys)
    if args.weights or run_all:
        report["weights"] = all(verify.weight_profile(p).matches(triple)
                                for p in polys)
    if args.leading or run_all:
        report["leading"] = all(verify.check_leading_term(triple, T) for T in tabs)
    if args.basis or run_all:
        basis = verify.check_basis(triple, seed=args.seed, tableaux=tabs,
                                   polys=polys)
        report["rank"] = basis.rank
        report["lr_count"] = basis.lr_count
        report["oracle_count"] = basis.oracle_count
        report["basis"] = basis.passed
    report["pass"] = all(v for k, v in report.items()
                         if k in ("hwv", "weights", "leading", "basis"))
    print(json.dumps(report))
    return 0 if report["pass"] else 1


def cmd_oracle(args):
    triple = _triple(args)
    out = {"oracle_count": oracle.lr_coefficient(triple, nvars=args.nvars)}
    print(json.dumps(out))


def cmd_sl4_table(args):
    reports = bz4.reproduce_sl4_table()
    print(json.dumps(reports))
    return 0 if all(r["pass"] for r in reports) else 1


def cmd_bz_grade(args):
    if args.dots:
        assignment = bz4.BZAssignment.from_dots(args.dots.split(","))
    else:
        if args.assignment == "-":
            data = json.load(sys.stdin)
        else:
            with open(args.assignment) as fh:
                data = json.load(fh)
        assignment = bz4.BZAssignment(data)
    d, e, f = bz4.bz_grading(assignment)
    out = {"D": list(d), "E": list(e), "F": list(f),
           "hexagon": bz4.hexagon_condition(assignment)}
    print(json.dumps(out))


@functools.lru_cache(maxsize=None)
def build_parser():
    ap = argparse.ArgumentParser(
        prog="lrb",
        description="Littlewood-Richardson tableaux and their determinantal "
                    "highest weight vectors, in exact arithmetic.")
    ap.add_argument("--format", choices=("json", "text"), default="json")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="number of LR tableaux, with oracle cross-check")
    _add_triple_args(p)
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("tableaux", help="enumerate the LR tableaux")
    _add_triple_args(p)
    p.set_defaults(fn=cmd_tableaux)

    for name, fn, www in (("peel", cmd_peel, "standard peeling strips"),
                          ("monomials", cmd_monomials, "exponent grid, e and E monomials")):
        p = sub.add_parser(name, help=www)
        _add_triple_args(p)
        p.add_argument("--tableau", help='tableau JSON file, or "-" for stdin')
        p.add_argument("--index", type=int, help="pick the i-th enumerated tableau")
        p.set_defaults(fn=fn)

    p = sub.add_parser("delta", help="block determinant or one tableau coefficient")
    _add_triple_args(p)
    p.add_argument("--A", default="J", choices=("J", "symbolic"))
    p.add_argument("--tableau", help="extract the coefficient of this tableau")
    p.add_argument("--index", type=int)
    p.set_defaults(fn=cmd_delta)

    p = sub.add_parser("delta-ty", help="pure-y coefficient of a tableau")
    _add_triple_args(p)
    p.add_argument("--tableau")
    p.add_argument("--index", type=int)
    p.set_defaults(fn=cmd_delta_ty)

    p = sub.add_parser("verify", help="highest-weight, weight, leading-term and rank checks")
    _add_triple_args(p)
    p.add_argument("--hwv", action="store_true")
    p.add_argument("--weights", action="store_true")
    p.add_argument("--leading", action="store_true")
    p.add_argument("--basis", action="store_true")
    p.add_argument("--all", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("oracle", help="multiplicity by symmetric-function expansion")
    _add_triple_args(p)
    p.add_argument("--nvars", type=int, default=None)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("sl4-table", help="recompute the bundled 18-row table")
    p.set_defaults(fn=cmd_sl4_table)

    p = sub.add_parser("bz-grade", help="gradings and hexagon check of a diagram")
    p.add_argument("--assignment", help='JSON {vertex: value} file, or "-"')
    p.add_argument("--dots", help="comma-separated vertex names with value 1")
    p.set_defaults(fn=cmd_bz_grade)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        rc = args.fn(args)
    except (LRBError, OSError, json.JSONDecodeError, MemoryError,
            RecursionError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    return rc or 0


if __name__ == "__main__":
    sys.exit(main())
