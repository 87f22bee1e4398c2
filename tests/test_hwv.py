import random

import pytest

from conftest import (RUNNING_TABLEAUX, admissible_grids, all_triples,
                      b_variable_coefficients, build_Yo, evaluate,
                      grid_support, interpolation_coefficient, random_triple,
                      tableau_by_rows, zero_one_coefficient)
from lrbasis import (build_Ztilde, delta, delta_MT, delta_MT_eval,
                     delta_TY, delta_eval, enumerate_lr, monomial_M,
                     parse_partition, validate_triple)
from lrbasis.errors import DimensionMismatch
from lrbasis.hwv import _rows
from lrbasis.polyring import poly_text
from lrbasis.verify import random_point


def test_tiny_symbolic_delta():
    tr = validate_triple([1], [1], [2])
    p = delta(tr, A="symbolic", B="symbolic")
    assert poly_text(p) == ("+1*x[1,1]*y[2,1]*a[1,1]*b[1,1] "
                            "-1*x[2,1]*y[1,1]*a[1,1]*b[1,1]")


def test_block_sizes(running):
    Z = build_Ztilde(running)
    assert len(Z) == len(Z[0]) == 19
    Yo = build_Yo(running)
    assert len(Yo) == len(Yo[0]) == 9
    # superrow j of Yo has F_j - D_j rows
    superrows = [j for j, _ in _rows(running, False)]
    assert [superrows.count(j) for j in range(1, 7)] == [2, 2, 2, 2, 0, 1]


def test_dimension_guards():
    # A must be t x r and B t x s
    tr = validate_triple([1], [1], [2])
    with pytest.raises(DimensionMismatch):
        delta_eval(tr, [[1, 2]], [[1]], {})
    with pytest.raises(DimensionMismatch):
        build_Ztilde(tr, B=[[1], [1], [1]])


def _assert_yo_is_restricted_z(tr):
    # Yo is Z's y columns on rows D_j + 1..F_j of each superrow j
    Z = build_Ztilde(tr, A="J", B="symbolic")
    Yo = build_Yo(tr, B="symbolic")
    keep, top = [], 0
    for j, fj in enumerate(tr.F.parts, start=1):
        keep.extend(range(top + tr.d(j), top + fj))
        top += fj
    assert ([[e.terms for e in Z[i][tr.D.size:]] for i in keep]
            == [[e.terms for e in row] for row in Yo])


def test_yo_is_restricted_z(running):
    n = 0
    for tr in all_triples(6):
        if tr.dt_in_ft:
            _assert_yo_is_restricted_z(tr)
            n += 1
    assert n == 712
    _assert_yo_is_restricted_z(running)


def test_delta_reduced_expansion_matches_delta_MT():
    rng = random.Random(12)
    for _ in range(12):
        tr = random_triple(rng, 7, require_tableaux=True)
        for T, old in zip(enumerate_lr(tr), b_variable_coefficients(tr)):
            assert delta_MT(tr, T).terms == old.terms


def test_delta_MT_TY_match_b_variable_path_small():
    # every tableau of every triple with |F| <= 6, sign included
    n = 0
    for tr in all_triples(6):
        tabs = enumerate_lr(tr)
        if not tabs:
            continue
        full = b_variable_coefficients(tr)
        reduced = b_variable_coefficients(tr, with_x=False)
        for T, old_mt, old_ty in zip(tabs, full, reduced):
            assert delta_MT(tr, T).terms == old_mt.terms
            assert delta_TY(tr, T).terms == old_ty.terms
            n += 1
    assert n == 294


def test_delta_MT_TY_match_b_variable_path_seeded():
    rng = random.Random(18)
    done = 0
    while done < 15:
        tr = random_triple(rng, 8, require_tableaux=True)
        if tr.F.size < 7:
            continue
        tabs = enumerate_lr(tr)
        for T, old in zip(tabs, b_variable_coefficients(tr)):
            assert delta_MT(tr, T).terms == old.terms
        for T, old in zip(tabs, b_variable_coefficients(tr, with_x=False)):
            assert delta_TY(tr, T).terms == old.terms
        done += 1


def test_delta_MT_nonzero_and_beta_cap_agrees():
    rng = random.Random(13)
    for _ in range(15):
        tr = random_triple(rng, 8, require_tableaux=True)
        for T in enumerate_lr(tr):
            p = delta_MT(tr, T)
            assert not p.is_zero()


def test_delta_TY_relation_to_delta_MT():
    # the y-only coefficient equals the full one with the diagonal x
    # monomial divided out, up to one global sign per triple (the parity
    # of sorting the x rows of each superrow past the y rows above them)
    rng = random.Random(14)
    from lrbasis.polyring import coefficient_of, mono, xvar
    for _ in range(10):
        tr = random_triple(rng, 8, require_tableaux=True)
        diag = mono(*((xvar(j, j), e)
                      for j, e in enumerate(tr.Dt.parts, start=1)))
        signs = set()
        for T in enumerate_lr(tr):
            y_part = coefficient_of(delta_MT(tr, T), diag, {"x"}).terms
            ty = delta_TY(tr, T)
            assert y_part in (ty.terms, (-1 * ty).terms)
            signs.add(y_part == ty.terms)
        assert len(signs) == 1


def test_admissible_grids_running(running):
    tabs = enumerate_lr(running)
    T = tableau_by_rows(tabs, RUNNING_TABLEAUX["T"])
    T1 = tableau_by_rows(tabs, RUNNING_TABLEAUX["T1"])
    assert len(admissible_grids(running, grid_support(monomial_M(T).m))) == 1
    grids = admissible_grids(running, grid_support(monomial_M(T1).m))
    assert len(grids) == 3
    assert len(set(map(grid_support, grids))) == 3


def test_eval_agrees_with_symbolic():
    rng = random.Random(15)
    for _ in range(12):
        tr = random_triple(rng, 8, require_tableaux=True)
        for T in enumerate_lr(tr):
            p = delta_MT(tr, T)
            for _ in range(2):
                pt = random_point(rng, tr, lo=-30, hi=30)
                assert delta_MT_eval(tr, T, pt) == evaluate(p, pt)


def test_eval_interp_fallback():
    # the interpolation oracle alone against the symbolic value
    rng = random.Random(16)
    for _ in range(8):
        tr = random_triple(rng, 7, require_tableaux=True)
        for T in enumerate_lr(tr):
            p = delta_MT(tr, T)
            pt = random_point(rng, tr, lo=-15, hi=15)
            assert interpolation_coefficient(tr, T, pt) == evaluate(p, pt)


# triples where two admissible grids share a support, so that the 0/1
# oracle falls back to interpolation
FALLBACK_TRIPLES = [("-", "4,3,1", "4,3,1"), ("1", "4,3", "4,3,1")]


def test_delta_MT_eval_matches_zero_one_oracle(running):
    rng = random.Random(19)
    n = 0
    for tr in all_triples(7):
        for T in enumerate_lr(tr):
            pt = random_point(rng, tr, lo=-9, hi=9)
            assert delta_MT_eval(tr, T, pt) == zero_one_coefficient(tr, T, pt)
            n += 1
    assert n == 636
    for D, E, F in FALLBACK_TRIPLES:
        tr = validate_triple(*map(parse_partition, (D, E, F)))
        collide = False
        for T in enumerate_lr(tr):
            grids = admissible_grids(tr, grid_support(monomial_M(T).m))
            collide |= len(set(map(grid_support, grids))) < len(grids)
            pt = random_point(rng, tr, lo=-9, hi=9)
            assert delta_MT_eval(tr, T, pt) == zero_one_coefficient(tr, T, pt)
        assert collide
    for T in enumerate_lr(running):
        for _ in range(2):
            pt = random_point(rng, running)
            assert (delta_MT_eval(running, T, pt)
                    == zero_one_coefficient(running, T, pt))


def test_delta_eval_matches_symbolic_numeric():
    rng = random.Random(17)
    for _ in range(10):
        tr = random_triple(rng, 7, require_tableaux=True)
        A = [[rng.randint(-4, 4) for _ in range(tr.r)] for _ in range(tr.t)]
        B = [[rng.randint(-4, 4) for _ in range(tr.s)] for _ in range(tr.t)]
        p = delta(tr, A=A, B=B)
        pt = random_point(rng, tr, lo=-20, hi=20)
        assert delta_eval(tr, A, B, pt) == evaluate(p, pt)
