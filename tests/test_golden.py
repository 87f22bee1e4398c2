"""Byte-identity of `lrb` output over a fixed set of commands.

Each command runs in-process through cli.main; its argv, exit code,
standard output and standard error go, in order, into one SHA-256 digest.
The digest below was recorded before monomials were packed into integers,
so any change to what a command prints, or to how it fails, shows here.
When a change is meant to alter output, record the new digest with
`PYTHONPATH=src:tests python3 tests/test_golden.py` and say why in
CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from conftest import all_triples
from lrbasis import cli, enumerate_lr, validate_triple

POOL = Path(__file__).resolve().parents[1] / "bench" / "pools" / "verify-symbolic.json"
DIGEST = "1cb8ff8fb81295132b6df61313adfbda205ac4345593d24112d08fdeeba7ae87"
# 12 boxes and 4 tableaux each
TWELVE = [("3,2,1", "3,2,1", F) for F in ("5,4,2,1", "5,3,2,1,1", "4,3,2,2,1")]


def _fmt(p):
    return ",".join(map(str, p.parts)) or "-"


def _args(D, E, F):
    return ["--D", D, "--E", E, "--F", F]


def commands():
    """`count` for every triple with |F| <= 6, `--format text delta --A J`
    for every triple with |F| <= 5 and `--A symbolic` with |F| <= 4, and
    `verify --all` with every `delta --index i` on each 20th triple of the
    verify-symbolic pool, and `verify --basis` and `verify --basis
    --leading` on those triples and on TWELVE."""
    small = [(tr.F.size, _args(*map(_fmt, (tr.D, tr.E, tr.F))))
             for tr in all_triples(6)]
    out = [["count", *args] for _, args in small]
    out += [["--format", "text", "delta", *args, "--A", A]
            for A, most in (("J", 5), ("symbolic", 4))
            for size, args in small if size <= most]
    rows = json.loads(POOL.read_text())["triples"][::20]
    ranked = []
    for D, E, F, _, _ in rows:
        args = _args(*(",".join(map(str, p)) for p in (D, E, F)))
        ranked.append(args)
        out.append(["verify", *args, "--all"])
        tabs = enumerate_lr(validate_triple(D, E, F))
        out += [["delta", *args, "--index", str(i)] for i in range(len(tabs))]
    ranked += [_args(*triple) for triple in TWELVE]
    out += [["verify", *args, *checks] for args in ranked
            for checks in (["--basis"], ["--basis", "--leading"])]
    return out


def run(argv):
    """(exit code, stdout, stderr) of `lrb argv`, run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def digest():
    h = hashlib.sha256()
    for argv in commands():
        h.update(json.dumps([argv, *run(argv)]).encode() + b"\n")
    return h.hexdigest()


def test_output_unchanged():
    assert digest() == DIGEST


if __name__ == "__main__":
    print(digest())
