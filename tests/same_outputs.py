"""One digest of what `lrb` prints on a fixed sweep of commands.

Two versions of the package that should print the same give the same
digest.  The sweep runs cli.main in-process, with empty stdin, on:

- `verify` with each flag set of VERIFY_FLAGS, no flag among them, for
  every triple with |F| <= 7;
- `delta --index i` and `delta-ty --index i` for each tableau of those
  triples, in JSON and in `--format text`;
- `count`, `tableaux` and `oracle` for every triple with |F| <= 6,
  `count` and `tableaux` in JSON and in `--format text`, and `peel` and
  `monomials` of each of their tableaux;
- `delta --A J` and `delta --A symbolic` for every triple with |F| <= 5;
- `verify --all` for each triple of bench/pools/verify-symbolic.json,
  which is only read;
- `sl4-table`, and `bz-grade --dots` on the dots of each of its rows.

Needs no pytest.  From the repository root:

    PYTHONPATH=src python3 tests/same_outputs.py

prints the SHA-256 of each argv with its exit status, stdout and stderr,
in order, then the number of commands and the seconds they took.
"""

import hashlib
import json
import os
import time
from pathlib import Path

from cli_agreement import outcome
from lrbasis import cli, enumerate_lr, validate_triple
from lrbasis.bz4 import load_table

POOL = Path(__file__).resolve().parents[1] / "bench" / "pools" / "verify-symbolic.json"
VERIFY_FLAGS = (["--all"], ["--basis", "--leading"], ["--leading"], ["--basis"],
                ["--hwv"], ["--weights"], [])


def partitions(n, largest=None):
    """The partitions of n with no part above largest, as tuples."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - first, first):
            yield (first, *rest)


def triple_argv(D, E, F):
    return [opt for name, parts in (("--D", D), ("--E", E), ("--F", F))
            for opt in (name, ",".join(map(str, parts)) or "-")]


def small_triples(max_size):
    """(D, E, F) for every triple with |F| <= max_size."""
    for n in range(1, max_size + 1):
        for F in partitions(n):
            for a in range(n + 1):
                for D in partitions(a):
                    for E in partitions(n - a):
                        yield D, E, F


def sweep():
    """The argv lists of the sweep, in order."""
    for D, E, F in small_triples(7):
        triple = triple_argv(D, E, F)
        for flags in VERIFY_FLAGS:
            yield ["verify", *triple, *flags]
        for i in range(len(enumerate_lr(validate_triple(D, E, F)))):
            for command in ("delta", "delta-ty"):
                yield [command, *triple, "--index", str(i)]
                yield ["--format", "text", command, *triple, "--index", str(i)]
    for D, E, F in small_triples(6):
        triple = triple_argv(D, E, F)
        for command in ("count", "tableaux"):
            yield [command, *triple]
            yield ["--format", "text", command, *triple]
        yield ["oracle", *triple]
        for i in range(len(enumerate_lr(validate_triple(D, E, F)))):
            for command in ("peel", "monomials"):
                yield [command, *triple, "--index", str(i)]
    for D, E, F in small_triples(5):
        for A in ("J", "symbolic"):
            yield ["delta", *triple_argv(D, E, F), "--A", A]
    for D, E, F, *_ in json.loads(POOL.read_text())["triples"]:
        yield ["verify", *triple_argv(D, E, F), "--all"]
    yield ["sl4-table"]
    for row in load_table():
        yield ["bz-grade", "--dots", ",".join(row["dots"])]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    h, count, t0 = hashlib.sha256(), 0, time.perf_counter()
    for argv in sweep():
        h.update(json.dumps([argv, *outcome(cli.main, argv)]).encode() + b"\n")
        count += 1
    print(h.hexdigest())
    print(f"{count} commands, {time.perf_counter() - t0:.0f} s")
