"""Command line interface.

Partitions are comma-separated part lists ("5,5,4,3,1,1"), with "-" for
the empty partition.  Tableaux travel as JSON objects with keys "outer",
"inner", and "rows", and must have the triple's skew shape; pass a file
path or "-" for stdin, or select one by its position in the canonical
enumeration with --index.  Naming a tableau both ways, or neither way to
peel, monomials or delta-ty, or giving delta's --A together with a
tableau, is a usage error.  Exit status is 0 on success, 1 on a domain
error (reported as JSON on stderr; running out of memory or of recursion
depth counts as one) or when a check of verify or sl4-table fails (the
report still goes to stdout), 2 on a usage error.
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


def _triple(args):
    return validate_triple(parse_partition(args.D), parse_partition(args.E),
                           parse_partition(args.F))


def _load_json(path):
    """JSON from a file, or from stdin for "-"."""
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _triple_and_tableau(args):
    """The triple and the tableau named by --index or --tableau; naming
    none is a usage error, found before the triple is read."""
    if args.index is None and args.tableau is None:
        args.parser.error("provide --tableau FILE or --index N")
    triple = _triple(args)
    if args.index is not None:
        tabs = enumerate_lr(triple)
        if not 0 <= args.index < len(tabs):
            raise LRBError(f"index {args.index} out of range; {len(tabs)} tableaux")
        return triple, tabs[args.index]
    T, shape = LRTableau.from_json(_load_json(args.tableau)), triple.skew_shape()
    if T.shape != shape:
        raise ShapeError(f"the tableau's shape {T.shape} is not the "
                         f"triple's {shape}")
    return triple, T


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
    _, T = _triple_and_tableau(args)
    trace = standard_peeling(T)
    out = {"strips": [[list(cell) for cell in strip] for strip in trace.strips],
           "banal_shape": list(trace.banal_shape.parts)}
    print(json.dumps(out))


def cmd_monomials(args):
    triple, T = _triple_and_tableau(args)
    out = {"M": [list(r) for r in monomial_M(T).m],
           "e": mono_text(monomial_e(T)),
           "bigE": mono_text(monomial_bigE(T, triple))}
    print(json.dumps(out))


def cmd_delta(args):
    chosen = args.index is not None or args.tableau is not None
    if chosen and args.A:
        args.parser.error("--A applies to the whole determinant, not to one tableau")
    if chosen:
        p = hwv.delta_MT(*_triple_and_tableau(args))
    else:
        p = hwv.delta(_triple(args), A=args.A or "J")
    _poly_out(args, p)


def cmd_delta_ty(args):
    _poly_out(args, hwv.delta_TY(*_triple_and_tableau(args)))


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
    out = {"oracle_count": oracle.lr_coefficient(triple)}
    print(json.dumps(out))


def cmd_sl4_table(args):
    reports = bz4.reproduce_sl4_table()
    print(json.dumps(reports))
    return 0 if all(r["pass"] for r in reports) else 1


def cmd_bz_grade(args):
    if args.dots is not None:
        assignment = bz4.BZAssignment.from_dots(args.dots.split(","))
    else:
        assignment = bz4.BZAssignment(_load_json(args.assignment))
    d, e, f = bz4.bz_grading(assignment)
    out = {"D": list(d), "E": list(e), "F": list(f),
           "hexagon": bz4.hexagon_condition(assignment)}
    print(json.dumps(out))


@functools.lru_cache(maxsize=None)
def build_parser():
    triple = argparse.ArgumentParser(add_help=False)
    triple.add_argument("--D", required=True, help='left diagram, e.g. "3,3,2,1,1" or "-"')
    triple.add_argument("--E", required=True, help="right diagram")
    triple.add_argument("--F", required=True, help="target diagram")
    tableau = argparse.ArgumentParser(add_help=False)
    which = tableau.add_mutually_exclusive_group()
    which.add_argument("--tableau", help='tableau JSON file, or "-" for stdin')
    which.add_argument("--index", type=int, help="pick the i-th enumerated tableau")

    ap = argparse.ArgumentParser(
        prog="lrb",
        description="Littlewood-Richardson tableaux and their determinantal "
                    "highest weight vectors, in exact arithmetic.")
    ap.add_argument("--format", choices=("json", "text"), default="json")
    sub = ap.add_subparsers(dest="command", required=True)
    cmds = {}
    for name, fn, parents, text in (
            ("count", cmd_count, [triple], "number of LR tableaux, with oracle cross-check"),
            ("tableaux", cmd_tableaux, [triple], "enumerate the LR tableaux"),
            ("peel", cmd_peel, [triple, tableau], "standard peeling strips"),
            ("monomials", cmd_monomials, [triple, tableau], "exponent grid, e and E monomials"),
            ("delta", cmd_delta, [triple, tableau],
             "block determinant, or the coefficient of one tableau"),
            ("delta-ty", cmd_delta_ty, [triple, tableau], "pure-y coefficient of a tableau"),
            ("verify", cmd_verify, [triple],
             "highest-weight, weight, leading-term and rank checks"),
            ("oracle", cmd_oracle, [triple], "multiplicity by the Kostka-Steinberg sum"),
            ("sl4-table", cmd_sl4_table, [], "recompute the bundled 18-row table"),
            ("bz-grade", cmd_bz_grade, [], "gradings and hexagon check of a diagram")):
        cmds[name] = sub.add_parser(name, parents=parents, help=text)
        cmds[name].set_defaults(fn=fn, parser=cmds[name])
    cmds["delta"].add_argument("--A", choices=("J", "symbolic"),
                               help="x-block coefficients (default J); not with a tableau")
    for flag in ("--hwv", "--weights", "--leading", "--basis", "--all"):
        cmds["verify"].add_argument(flag, action="store_true")
    cmds["verify"].add_argument("--seed", type=int, default=0)
    source = cmds["bz-grade"].add_mutually_exclusive_group(required=True)
    source.add_argument("--assignment", help='JSON {vertex: value} file, or "-"')
    source.add_argument("--dots", help="comma-separated vertex names with value 1")
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
