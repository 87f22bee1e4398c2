import random

import pytest

from conftest import (RUNNING_E, RUNNING_GRIDS, RUNNING_TABLEAUX, all_triples,
                      check_grid, grid_sums, monomial_e1, random_triple,
                      tableau_by_rows)
from lrbasis import (ExponentMatrix, LRTableau, check_lr1, check_lr2,
                     enumerate_lr, is_lr, monomial_M,
                     monomial_bigE, monomial_e, recover_from_M,
                     recover_from_e, standard_peeling, validate_triple)
from lrbasis.errors import NoPreimage, NotLR, ShapeError
from lrbasis.polyring import mono, mono_text, yvar


def test_running_example_enumeration(running):
    tabs = enumerate_lr(running)
    assert len(tabs) == 4
    got = sorted(tuple(map(tuple, T.to_json()["rows"])) for T in tabs)
    want = sorted(tuple(map(tuple, rows)) for rows in RUNNING_TABLEAUX.values())
    assert got == want


def test_enumeration_is_lex_ordered(running):
    words = [[T.entries[cell] for cell in T.shape.cells]
             for T in enumerate_lr(running)]
    assert words == sorted(words)


def test_enumerated_tableaux_are_lr():
    rng = random.Random(5)
    for _ in range(30):
        tr = random_triple(rng, 8)
        for T in enumerate_lr(tr):
            assert check_lr1(T) and check_lr2(T)
            assert sorted(T.entries.values()) == [
                v for v, c in enumerate(tr.Et.parts, start=1) for _ in range(c)]


def test_lr_conditions_reject():
    tr = validate_triple([1], [2, 1], [2, 2])
    T = enumerate_lr(tr)[0]
    bad = dict(T.entries)
    # swapping makes the first row start with a 2, violating the prefix rule
    cells = sorted(bad)
    vals = [bad[c] for c in cells]
    bad2 = dict(zip(cells, reversed(vals)))
    T2 = LRTableau(T.shape, bad2)
    assert not (check_lr1(T2) and check_lr2(T2))
    with pytest.raises(NotLR):
        standard_peeling(T2)


def test_peeling_running_example(running):
    tabs = enumerate_lr(running)
    T = tableau_by_rows(tabs, RUNNING_TABLEAUX["T"])
    trace = standard_peeling(T)
    assert [list(map(tuple, s)) for s in trace.strips] == [
        [(1, 6), (3, 4), (4, 3)],
        [(2, 4), (4, 2), (5, 2)],
        [(3, 3), (5, 1)],
        [(4, 1)],
    ]
    assert trace.banal_shape == running.Et


def test_peeling_strip_geometry():
    rng = random.Random(6)
    for _ in range(40):
        tr = random_triple(rng, 9)
        for T in enumerate_lr(tr):
            trace = standard_peeling(T)
            assert trace.banal_shape == tr.Et
            for strip in trace.strips:
                for (a1, c1), (a2, c2) in zip(strip, strip[1:]):
                    assert a1 < a2 and c1 >= c2


def _dict_is_lr(entries):
    """LR conditions checked directly on a {cell: entry} dict."""
    for (a, c), v in entries.items():
        left = entries.get((a, c - 1))
        if left is not None and left > v:
            return False
        up = entries.get((a - 1, c))
        if up is not None and up >= v:
            return False
    top = max(entries.values(), default=0)
    depth = max((a for a, _ in entries), default=0)
    prefix = [0] * (top + 2)
    for a in range(1, depth + 1):
        prev = list(prefix)
        for (aa, _), v in entries.items():
            if aa == a:
                prefix[v] += 1
        for m in range(2, top + 1):
            if prefix[m] > prev[m - 1]:
                return False
    return True


def test_peeling_remainder_stays_lr():
    rng = random.Random(7)
    for _ in range(25):
        tr = random_triple(rng, 9, require_tableaux=True)
        for T in enumerate_lr(tr):
            entries = dict(T.entries)
            for strip in standard_peeling(T).strips:
                for cell in strip:
                    del entries[cell]
                assert _dict_is_lr(entries)


def test_monomial_M_running_values(running):
    tabs = enumerate_lr(running)
    for name in ("T", "T1"):
        T = tableau_by_rows(tabs, RUNNING_TABLEAUX[name])
        assert [list(r) for r in monomial_M(T).m] == RUNNING_GRIDS[name]


def test_exponent_matrix_invariants(running):
    for T in enumerate_lr(running):
        m = monomial_M(T)
        assert check_grid(m.m, running)
        assert grid_sums(m.m) == (tuple(running.f(i) - running.d(i)
                                        for i in range(1, running.t + 1)),
                                  running.E.parts)


def test_monomial_e_running_values(running):
    tabs = enumerate_lr(running)
    for name in ("T", "T1"):
        T = tableau_by_rows(tabs, RUNNING_TABLEAUX[name])
        assert mono_text(monomial_e(T)) == RUNNING_E[name]


def test_monomial_e1_running(running):
    T = tableau_by_rows(enumerate_lr(running), RUNNING_TABLEAUX["T"])
    assert mono_text(monomial_e1(T)) == "y[1,1]*y[2,1]*y[3,1]*y[4,1]"


def test_monomial_bigE(running):
    T = tableau_by_rows(enumerate_lr(running), RUNNING_TABLEAUX["T"])
    big = dict(monomial_bigE(T, running))
    from lrbasis.polyring import xvar
    assert big[xvar(1, 1)] == 5 and big[xvar(2, 2)] == 3 and big[xvar(3, 3)] == 2


def test_recover_roundtrips():
    rng = random.Random(8)
    for _ in range(40):
        tr = random_triple(rng, 9, require_tableaux=True)
        for T in enumerate_lr(tr):
            assert recover_from_M(tr, monomial_M(T)) == T
            assert recover_from_e(tr, monomial_e(T)) == T


def test_recover_no_preimage(running):
    T = enumerate_lr(running)[0]
    grid = [list(r) for r in monomial_M(T).m]
    grid[0][0] += 1
    grid[1][0] -= 1
    with pytest.raises(NoPreimage):
        recover_from_M(running, ExponentMatrix(grid))
    # grids of the wrong shape for a 2 x 1 triple
    tr = validate_triple([1], [1], [1, 1])
    for bad in ([[0], [1], [1]], [[0], []]):
        with pytest.raises(NoPreimage):
            recover_from_M(tr, ExponentMatrix(bad))
    with pytest.raises(NoPreimage):
        recover_from_e(running, mono((yvar(1, 1), 1)))


def test_monomial_M_injective_small():
    for tr in all_triples(7):
        tabs = enumerate_lr(tr)
        grids = {monomial_M(T).m for T in tabs}
        assert len(grids) == len(tabs)


def test_tableau_json_roundtrip(running):
    for T in enumerate_lr(running):
        assert LRTableau.from_json(T.to_json()) == T


def test_tableau_json_rejects_malformed():
    good = {"outer": [1, 1], "inner": [1], "rows": [[], [1]]}
    assert LRTableau.from_json(good).to_json() == good
    for bad in ([], 5, {}, {"outer": [1, 1], "inner": [1]},
                {**good, "outer": 5}, {**good, "inner": None},
                {**good, "rows": "1"}, {**good, "rows": [[], 1]},
                {**good, "rows": [[], [True]]}, {**good, "outer": [1, True]}):
        with pytest.raises(ShapeError):
            LRTableau.from_json(bad)
