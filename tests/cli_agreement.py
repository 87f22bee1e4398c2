"""`lrb` against an eager reference parser, on help and usage errors.

The reference builds every subcommand with its options from cli.COMMANDS
before parsing, as lrb once did; cli.main builds a subcommand's options
only when argv reaches it.  For each argv below, exit status, stdout and
stderr must be the same from both, compared in one interpreter, as
argparse words its messages differently by version.  Needs no pytest, so
it runs under any Python the package supports:

    PYTHONPATH=src python3 tests/cli_agreement.py

prints the SHA-256 of cli.main's outcomes and exits 1, naming each argv,
when the two disagree.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys

from lrbasis import cli

SMALL = ["--D", "1", "--E", "1", "--F", "2"]

# a tableau by --index and by --tableau, or by --index and delta's --A;
# also named neither way, to a command that needs one
TABLEAU_USAGE_ERRORS = (
    ("peel", ["peel", *SMALL, "--index", "0", "--tableau", "/nonexistent.json"]),
    ("delta", ["--format", "text", "delta", *SMALL, "--index", "0",
               "--A", "symbolic"]),
    ("peel", ["peel", *SMALL]),
    ("monomials", ["monomials", *SMALL]),
    ("delta-ty", ["delta-ty", *SMALL]),
    # before the triple is read: |D| + |E| != |F| here
    ("peel", ["peel", "--D", "2", "--E", "1", "--F", "2"]),
    ("monomials", ["monomials", "--D", "2", "--E", "1", "--F", "2"]),
    ("delta-ty", ["delta-ty", "--D", "2", "--E", "1", "--F", "2"]))

ARGV = [
    # the usage errors of test_cli.py
    ["bz-grade"], ["bz-grade", "--dots", "x11", "--assignment", "-"],
    *(argv for _, argv in TABLEAU_USAGE_ERRORS),
    ["delta", *SMALL, "--tableau", "", "--A", "symbolic"],
    ["count", "--D", "1"], ["count", *SMALL, "--n", "3"],
    # no or an unknown command, a bad or missing --format, options after
    # the command that are not its own, and abbreviations
    [], ["frobnicate"], ["frobnicate", *SMALL],
    ["--format", "xml", "count", *SMALL], ["--format=xml", "count", *SMALL],
    ["--format"], ["count", *SMALL, "--format", "text"],
    ["count", *SMALL, "extra"], ["verify", *SMALL, "--al"],
    ["delta", *SMALL, "--index", "x"],
    # --format spelled three ways, and a "--" before the options
    ["--fo", "text", "count", *SMALL], ["--format=text", "count", *SMALL],
    ["--format", "text", "count", *SMALL], ["count", "--", *SMALL],
    # help, and each command with no options
    ["-h"], ["--help"],
    *([command, flag] for command in cli.COMMANDS for flag in ("-h", "--help")),
    *([command] for command in cli.COMMANDS),
]


def reference_parser():
    """The lrb parser with every subcommand and its options built."""
    ap = argparse.ArgumentParser(
        prog="lrb",
        description="Littlewood-Richardson tableaux and their determinantal "
                    "highest weight vectors, in exact arithmetic.")
    ap.add_argument("--format", choices=("json", "text"), default="json")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (fn, options, text) in cli.COMMANDS.items():
        parser = sub.add_parser(name, help=text)
        for add in options:
            add(parser)
        parser.set_defaults(fn=fn, parser=parser)
    return ap


def reference_main(argv):
    args = reference_parser().parse_args(argv)
    return args.fn(args) or 0


def outcome(main, argv):
    """(exit status, stdout, stderr) of main(argv), with empty stdin."""
    out, err, saved = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code
    finally:
        sys.stdin = saved
    return rc, out.getvalue(), err.getvalue()


def disagreements():
    """Each argv whose outcome differs between cli.main and the reference,
    or that shows a traceback, or usage text without exit status 2."""
    bad = []
    for argv in ARGV:
        rc, out, err = outcome(cli.main, argv)
        if ((rc, out, err) != outcome(reference_main, argv)
                or "Traceback" in err or (rc == 2) != ("usage: lrb" in err)):
            bad.append(argv)
    return bad


def digest():
    """SHA-256 of each argv with cli.main's outcome, in order."""
    h = hashlib.sha256()
    for argv in ARGV:
        h.update(json.dumps([argv, *outcome(cli.main, argv)]).encode() + b"\n")
    return h.hexdigest()


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    bad = disagreements()
    print(digest())
    for argv in bad:
        print("disagree:", argv)
    sys.exit(1 if bad else 0)
