"""Self-test of the checks: each must accept the right value and reject a wrong one.

Run with `python3 bench/run.py --self-test`; every benchmark run also
runs it before timing and stops if a check has gone blind.
"""

import contextlib
import io
import json
import random
from types import SimpleNamespace

import independent as ind
import workloads as wl

SMALL = ((2, 1), (2, 1), (3, 2, 1))      # two tableaux, small symbolic case


def _delta_json(lrb, D, E, F, index):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        lrb.cli.main(["delta", *wl.triple_args(D, E, F), "--index", str(index)])
    return out.getvalue()


def _swap_rows(out, i, j):
    """The polynomial with row indices i and j exchanged in every variable."""
    data = json.loads(out)
    for t in data["terms"]:
        t["m"] = [[f, {i: j, j: i}.get(a, a), b, e] for f, a, b, e in t["m"]]
    return json.dumps(data)


def _flip_sign(out):
    data = json.loads(out)
    c = data["terms"][0]["c"]
    data["terms"][0]["c"] = c[1:] if c.startswith("-") else "-" + c
    return json.dumps(data)


def cases(lrb):
    """(name, check on the right value, check on a wrong value)."""
    D, E, F = SMALL
    triple = lrb.shapes.validate_triple(D, E, F)
    tabs = lrb.tableaux.enumerate_lr(triple)
    own = ind.lr_count(D, E, F)
    req = wl.Request(D, E, F, triple, tabs, own_count=own)
    T = tabs[0]
    point = ind.random_point(random.Random(1), D, E, F)
    delta = _delta_json(lrb, D, E, F, 0)
    report = {"hwv": True, "weights": True, "leading": True, "basis": True, "pass": True,
              "lr_count": own, "oracle_count": own, "rank": own}
    wrong_report = dict(report, rank=own + 1)
    A, B, J, B0, factor = ind.triangular_pair(random.Random(2), D, E, F)
    lhs = lrb.hwv.delta_eval(triple, A, B, point)
    rhs = lrb.hwv.delta_eval(triple, J, B0, point)
    m = lrb.tableaux.monomial_M(T)
    e = lrb.tableaux.monomial_e(T)
    peel = lrb.tableaux.standard_peeling(T)
    wrong_e = tuple(((f, i + 1, j), x) if n == 0 else ((f, i, j), x)
                    for n, ((f, i, j), x) in enumerate(e))
    worked = lrb.shapes.validate_triple(*wl.WORKED_EXAMPLE)
    n_worked = ind.lr_count(*wl.WORKED_EXAMPLE)
    return [
        ("independent count vs enumeration (count off by one)",
         ind.check_counts({"enumerate_lr": len(tabs)}, own),
         ind.check_counts({"enumerate_lr": len(tabs) + 1}, own)),
        ("verify report counts (rank off by one)",
         wl.check_verify_report(lrb, req, json.dumps(report), ("hwv",)),
         wl.check_verify_report(lrb, req, json.dumps(wrong_report), ("hwv",))),
        ("worked example count is the paper's 4 (count off by one)",
         ind.check_counts({"worked example": len(lrb.tableaux.enumerate_lr(worked))},
                          wl.WORKED_EXAMPLE_COUNT),
         ind.check_counts({"worked example": n_worked + 1}, wl.WORKED_EXAMPLE_COUNT)),
        ("count identities (expected count off by one)",
         wl.count_identities(lrb, D, E, F, own),
         wl.count_identities(lrb, D, E, F, own + 1)),
        ("delta value at a point (coefficient with flipped sign)",
         wl.check_delta(lrb, req, T, point, delta),
         wl.check_delta(lrb, req, T, point, _flip_sign(delta))),
        ("delta multidegree (weight with two parts swapped)",
         wl.check_delta(lrb, req, T, point, delta),
         wl.check_delta(lrb, req, T, point, _swap_rows(delta, 1, 3))),
        ("factorization identity (value off by one)",
         ind.check_equal("identity", lhs, factor * rhs),
         ind.check_equal("identity", lhs + 1, factor * rhs)),
        ("M(T) margins (grid with one entry raised by one)",
         wl.check_grid(req, m),
         wl.check_grid(req, type(m)(((m.m[0][0] + 1,) + m.m[0][1:],) + m.m[1:]))),
        ("e(T) from its definition (one factor moved a row)",
         wl.check_e(req, T, e),
         wl.check_e(req, T, wrong_e)),
        ("peeling banal shape (weight with two parts swapped)",
         wl.check_peeling(req, peel),
         wl.check_peeling(req, SimpleNamespace(
             strips=peel.strips,
             banal_shape=SimpleNamespace(parts=peel.banal_shape.parts[::-1])))),
        ("sl4 table rows (one row reported failing)",
         wl.check_sl4_rows(lrb, [dict(r, **{"pass": True}) for r in lrb.bz4.load_table()]),
         wl.check_sl4_rows(lrb, [dict(r, **{"pass": n != 5})
                                 for n, r in enumerate(lrb.bz4.load_table())])),
    ]


def run(lrb, verbose=False):
    """Problems found; empty when every check accepts right and rejects wrong."""
    problems = []
    for name, right, wrong in cases(lrb):
        ok = right is None and wrong is not None
        if not ok:
            problems.append(f"{name}: right value -> {right!r}, wrong value -> {wrong!r}")
        if verbose:
            print(f"{'PASS' if ok else 'FAIL'}  {name}\n      rejects with: {wrong}")
    return problems
