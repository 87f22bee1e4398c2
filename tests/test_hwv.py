import json
import random
from pathlib import Path

import pytest

from conftest import (RUNNING_TABLEAUX, admissible_grids, all_triples,
                      b_variable_coefficients, build_Yo, delta_MT_all,
                      eliminate_eager, entries_eager, evaluate, grid_support,
                      grids_of, interpolation_coefficient, laplace_plan,
                      matrix_rows, plan_sum, random_triple, tableau_by_rows,
                      triangular_pair, zero_one_coefficient)
from lrbasis import (build_Ztilde, delta, delta_MT, delta_MT_eval,
                     delta_MT_values, delta_TY, delta_eval, enumerate_lr, hwv,
                     intlinalg, monomial_M, parse_partition, validate_triple)
from lrbasis.errors import DimensionMismatch
from lrbasis.polyring import (ONE, Polynomial, leading_monomial, poly_text,
                              triple_layout, xvar, yvar)
from lrbasis.verify import random_point

POOL = Path(__file__).resolve().parents[1] / "bench" / "pools" / "verify-large.json"


def pool_triples():
    """The triples of the verify-large benchmark pool, read as they are."""
    return [validate_triple(D, E, F)
            for D, E, F, *_ in json.loads(POOL.read_text())["triples"]]


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
    superrows = [j for j, _ in matrix_rows(running, False)]
    assert [superrows.count(j) for j in range(1, 7)] == [2, 2, 2, 2, 0, 1]


def test_dimension_guards():
    # A must be t x r and B t x s
    tr = validate_triple([1], [1], [2])
    with pytest.raises(DimensionMismatch):
        delta_eval(tr, [[1, 2]], [[1]], {})
    with pytest.raises(DimensionMismatch):
        build_Ztilde(tr, B=[[1], [1], [1]])
    # Yo keeps rows D_j + 1..F_j of superrow j, so it needs D_j <= F_j;
    # det Z is defined, and with A = J its x block 1 has two columns on
    # one row, or for D = (1, 1) and F = (2) x block 2 has no row: no term
    ring = (lambda v: [1], hwv._add_products, [1])
    tr = validate_triple([2], [1], [1, 1, 1])
    with pytest.raises(DimensionMismatch):
        hwv._laplace_sums(tr, [((0,), (1,), (0,))], False, *ring)
    assert hwv._laplace_sums(tr, [((0,), (1,), (0,))], True, *ring) == [None]
    tr = validate_triple([1, 1], [], [2])
    assert hwv._laplace_sums(tr, [((),)], True, *ring) == [None]


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


def test_leading_terms_match_expansion(running):
    # one max-plus sum over det Yo gives the leading term of delta_TY, with
    # its coefficient, of every tableau with |F| <= 8 (D or E empty among
    # them), of the worked example and of the verify-large pool; no top
    # cancels on any of them
    n, empty = 0, set()
    for tr in [*all_triples(8), running, *pool_triples()]:
        tabs = enumerate_lr(tr)
        if not tabs:
            continue
        assert hwv.delta_TY_values_and_leads(tr, grids_of(tabs), [])[1] == [
            leading_monomial(delta_TY(tr, T)) for T in tabs]
        empty |= {name for name, part in (("D", tr.D), ("E", tr.E))
                  if not part.size}
        n += len(tabs)
    assert n == 1350 + 4 + 43 and empty == {"D", "E"}


def _hand_built_sum(terms):
    """A stand-in for hwv._laplace_sums that sums the polynomial with the
    (coefficient, variables) terms, in the ring it is handed."""
    def laplace_sums(triple, grids, with_x, value, accumulate, one):
        acc = None
        for c, variables in terms:
            product = one
            for v in variables:
                product = accumulate(None, product, value(v), 1)
            acc = accumulate(acc, product, one, c)
        return [acc]
    return laplace_sums


def test_max_plus_ring_on_hand_built_sums(monkeypatch):
    # no coefficient of det Yo with |F| <= 8, of any admissible grid, has
    # another leading term in row-major y order (y[1,1] > y[1,2] > ...
    # > y[2,1]); these sums do.  Each runs in the ring that
    # delta_TY_values_and_leads hands the Laplace sum, at no point,
    # against leading_monomial
    tr = validate_triple([], [2, 2], [2, 2])     # y[1..2, 1..2]
    layout = triple_layout(tr)
    y11, y12, y21, y22 = (yvar(u, v) for u in (1, 2) for v in (1, 2))
    cases = [
        # y[2,1] > y[1,2]: column-major, the paper's order
        ([(1, [y12]), (1, [y21])], ((y21, 1),), 1),
        # keys add in a product; a degree-2 term passes a degree-1 one
        ([(1, [y12, y12]), (3, [y21, y12]), (1, [y11])],
         ((y12, 1), (y21, 1)), 3),
        # equal keys add their counts
        ([(1, [y21, y22]), (-1, [y11]), (-3, [y22, y21])],
         ((y21, 1), (y22, 1)), -2),
    ]
    packed = (lambda v: {1 << layout.shift[v]: 1}, layout.add_product,
              {ONE: 1})
    for terms, lead, c in cases:
        p, = _hand_built_sum(terms)(tr, [None], False, *packed)
        assert leading_monomial(Polynomial(p, layout)) == (lead, c)
        monkeypatch.setattr(hwv, "_laplace_sums", _hand_built_sum(terms))
        assert hwv.delta_TY_values_and_leads(tr, [None], [])[1] == [(lead, c)]
    # a top that cancels is marked, though a term below it is left
    monkeypatch.setattr(hwv, "_laplace_sums", _hand_built_sum(
        [(1, [y21]), (1, [y12]), (-1, [y21])]))
    assert hwv.delta_TY_values_and_leads(tr, [None], [])[1] == [None]


def test_cancelled_top_of_det_Yo():
    # grid ((1, 0), (1, 1)) of D = 2, E = 2,1, F = 3,2: picking row 1 or
    # row 2 of superrow 2 for y block 1 gives y[1,1] y[2,1] y[3,2] twice,
    # with opposite signs; the two terms below it survive
    tr = validate_triple([2], [2, 1], [3, 2])
    grid = ((1, 0), (1, 1))
    layout = triple_layout(tr)
    packed = (lambda v: {1 << layout.shift[v]: 1}, layout.add_product,
              {ONE: 1})
    coefficient, = hwv._laplace_sums(tr, [grid], False, *packed)
    assert len(coefficient) == 2
    assert hwv.delta_TY_values_and_leads(tr, [grid], [])[1] == [None]


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


def zero_heavy_point(rng, tr):
    """A point of the triple whose coordinates are 0 with probability 3/7,
    so that entries and whole minors vanish inside the Laplace sum."""
    return {v: rng.choice([0, 0, 0, -2, -1, 1, 2]) for v in random_point(rng, tr)}


def test_delta_MT_eval_at_points_with_zeros():
    # random_point never draws 0; here about half the coordinates are 0,
    # so entries and whole minors vanish inside the Laplace sum
    rng = random.Random(20)
    n = zero = 0
    for tr in all_triples(6):
        for T in enumerate_lr(tr):
            p = delta_MT(tr, T)
            pt = zero_heavy_point(rng, tr)
            value = delta_MT_eval(tr, T, pt)
            assert value == evaluate(p, pt)
            zero += value == 0
            n += 1
    assert n == 294
    assert 0 < zero < n


def test_delta_MT_values_at_all_points_at_once():
    # one sum over lists gives each tableau's value at each point, at
    # points where about half the coordinates are 0, for one point, and
    # for none
    rng = random.Random(21)
    n = zero = 0
    for tr in all_triples(6):
        tabs = enumerate_lr(tr)
        if not tabs:
            continue
        pts = [zero_heavy_point(rng, tr) for _ in range(rng.randint(1, 5))]
        values = [[evaluate(delta_MT(tr, T), pt) for pt in pts] for T in tabs]
        grids = grids_of(tabs)
        assert delta_MT_values(tr, grids, pts) == values
        assert delta_MT_values(tr, grids, pts[:1]) == [row[:1] for row in values]
        zero += sum(row.count(0) for row in values)
        n += len(pts) * len(tabs)
    assert 0 < zero < n
    tr = validate_triple([2, 1], [2, 1], [3, 2, 1])
    tabs = enumerate_lr(tr)
    origin = dict.fromkeys(random_point(rng, tr), 0)
    # every term is summed, to a zero list; with no point no term survives
    assert delta_MT_values(tr, grids_of(tabs), [origin] * 3) == [[0, 0, 0]] * 2
    assert delta_MT_values(tr, grids_of(tabs), []) == [[], []]
    # D = 0, E = 2, F = 1,1: its one grid takes local row 1 of both
    # superrows into y block 1, so every term repeats a row and the sum
    # has no term: a zero row
    dead = validate_triple([], [2], [1, 1])
    assert enumerate_lr(dead) == []
    point = dict.fromkeys(random_point(rng, dead), 1)
    assert delta_MT_values(dead, [((1,), (1,))], [point] * 3) == [[0, 0, 0]]


def test_det_Z_at_x_identity_is_det_Yo_up_to_sign():
    # at x = I each x block's minor is nonzero only on local rows 1..D_j,
    # so the det Z values of a tableau at (I, y) are its det Yo values at
    # y times one sign, and the two c x (c + 4) matrices both have rank c,
    # on every triple with |F| <= 9 that has a tableau; both signs occur
    rng = random.Random(29)
    n, signs = 0, set()
    for tr in all_triples(9):
        tabs = enumerate_lr(tr)
        if not tabs:
            continue
        pts = [random_point(rng, tr, families=(yvar,)) for _ in range(len(tabs) + 4)]
        identity = {xvar(u, v): int(u == v) for u in range(1, tr.F.width + 1)
                    for v in range(1, tr.D.width + 1)}
        grids = grids_of(tabs)
        at_identity = delta_MT_values(tr, grids, [{**pt, **identity} for pt in pts])
        reduced = hwv.delta_TY_values_and_leads(tr, grids, pts)[0]
        for z_row, yo_row in zip(at_identity, reduced):
            sign = 1 if z_row[0] == yo_row[0] else -1
            assert z_row == [sign * v for v in yo_row]
            signs.add(sign)
        assert intlinalg.int_rank(at_identity) == intlinalg.int_rank(reduced) == len(tabs)
        n += 1
    assert n == 2719
    assert signs == {1, -1}


def test_shared_sum_matches_forward_plans(running):
    # the backward sum shared by all the tableaux of a triple against each
    # tableau's own forward plan (conftest.laplace_plan): over lists of
    # integers at points with many zero coordinates, and over packed
    # polynomials for det Z and det Yo; for |F| <= 6 also against the
    # independent 0/1-specialization and b-variable oracles
    rng = random.Random(22)
    n = 0
    for tr in [*all_triples(7), running, *pool_triples()]:
        tabs = enumerate_lr(tr)
        if not tabs:
            continue
        grids = [monomial_M(T).m for T in tabs]
        pts = [zero_heavy_point(rng, tr) for _ in range(3)]
        rings = [(True, (lambda v: [pt[v] for pt in pts], hwv._add_products,
                         [1] * len(pts)))]
        layout = triple_layout(tr)
        packed = (lambda v: {1 << layout.shift[v]: 1}, layout.add_product,
                  {ONE: 1})
        # det Z over polynomials has about a million terms per tableau
        # on the worked example: left to the list ring there
        rings += [(with_x, packed) for with_x in (True, False)
                  if with_x is False or tr is not running]
        for with_x, ring in rings:
            shared = hwv._laplace_sums(tr, grids, with_x, *ring)
            assert shared == [plan_sum(laplace_plan(tr, grid, with_x), *ring)
                              for grid in grids]
            assert all(shared)
        if tr.F.size <= 6:
            assert delta_MT_values(tr, grids, pts) == [
                [zero_one_coefficient(tr, T, pt) for pt in pts] for T in tabs]
            for with_x in (True, False):
                assert [p.terms for p in hwv._tableau_coefficients(
                    tr, tabs, with_x)] == [
                    p.terms for p in b_variable_coefficients(tr, with_x)]
        n += len(tabs)
    assert n == 636 + 4 + 43


def test_repeated_tableau_in_one_sum():
    # a tableau passed twice shares every state of the sum, its root
    # included; each copy must come out whole, with the global sign
    # (-1)^(|D| |E|) = -1 applied once to each
    tr = validate_triple([2, 1], [2, 1], [3, 2, 1])
    assert tr.D.size * tr.E.size % 2
    T0, T1 = enumerate_lr(tr)
    polys = [delta_MT(tr, T).terms for T in (T0, T1, T0, T0)]
    assert [p.terms for p in delta_MT_all(tr, [T0, T1, T0, T0])] == polys
    pts = [random_point(random.Random(23), tr)] * 2
    assert delta_MT_values(tr, grids_of([T0, T0, T1]), pts) == [
        [evaluate(delta_MT(tr, T), pt) for pt in pts] for T in (T0, T0, T1)]


def test_vectors_own_the_sums(monkeypatch):
    # the vectors wrap each dict the Laplace sum returns, with no copy; a
    # repeated tableau's vectors share one dict when no global sign is
    # applied, |D| |E| even, and hold a dict each when it is
    returned, laplace_sums = [], hwv._laplace_sums

    def recording(*args):
        returned.append(laplace_sums(*args))
        return returned[-1]
    monkeypatch.setattr(hwv, "_laplace_sums", recording)
    for D, E, F, shared in (([2, 1], [2, 1], [3, 2, 1], False),
                            ([2, 1], [3, 1], [4, 2, 1], True)):
        tr = validate_triple(D, E, F)
        T0, T1 = enumerate_lr(tr)
        returned.clear()
        polys = delta_MT_all(tr, [T0, T1, T0])
        assert len(returned) == 1
        assert [id(p.terms) for p in polys] == [id(t) for t in returned[0]]
        assert (polys[0].terms is polys[2].terms) == shared
        assert polys[0].terms == polys[2].terms


def test_delta_eval_matches_symbolic_numeric():
    rng = random.Random(17)
    for _ in range(10):
        tr = random_triple(rng, 7, require_tableaux=True)
        A = [[rng.randint(-4, 4) for _ in range(tr.r)] for _ in range(tr.t)]
        B = [[rng.randint(-4, 4) for _ in range(tr.s)] for _ in range(tr.t)]
        p = delta(tr, A=A, B=B)
        pt = random_point(rng, tr, lo=-20, hi=20)
        assert delta_eval(tr, A, B, pt) == evaluate(p, pt)


def test_entries_match_eager():
    # each row of x and y values read once, as wide as the widest block,
    # gives the entries of one lookup per cell: for A = J, symbolic and
    # integer coefficients with zeros, as polynomials and at integer
    # points; all_triples(5) has triples with D or E empty
    rng = random.Random(24)
    n = 0
    for tr in all_triples(5):
        layout = triple_layout(tr)
        A = [[rng.randint(-1, 1) for _ in range(tr.r)] for _ in range(tr.t)]
        B = [[rng.randint(-1, 1) for _ in range(tr.s)] for _ in range(tr.t)]
        for a, b in (("J", "symbolic"), ("symbolic", "symbolic"), (A, "J"),
                     (A, B)):
            want = entries_eager(tr, hwv._coefficients(tr, a, "A"),
                                 hwv._coefficients(tr, b, "B"),
                                 lambda v: Polynomial.variable(v, layout))
            assert [[p.terms for p in row] for row in build_Ztilde(tr, a, b)] \
                == [[p.terms for p in row] for row in want]
        pt = random_point(rng, tr, lo=-9, hi=9)
        for a, b in ((hwv._coefficients(tr, "J", "A"), B), (A, B)):
            assert hwv._entries(tr, a, b, pt.__getitem__) == entries_eager(
                tr, a, b, pt.__getitem__)
        n += not (tr.r and tr.s)
    assert n > 0


def test_eliminate_matches_eager_on_delta_eval_matrices(running):
    # the matrices of the factorization identity det Z(A, B) = factor *
    # det Z(J, B0), at two points each: Z(J, B0), whose x blocks each sit
    # in one superrow, and the dense Z(A, B)
    rng = random.Random(25)
    for tr in [running, *pool_triples()]:
        A, B, J, B0, factor = triangular_pair(rng, tr)
        for _ in range(2):
            pt = random_point(rng, tr)
            for a, b in ((J, B0), (A, B)):
                Z = hwv._entries(tr, a, b, pt.__getitem__)
                assert intlinalg._eliminate(Z) == eliminate_eager(Z)
            assert delta_eval(tr, A, B, pt) == factor * delta_eval(tr, J, B0, pt)
