import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (LAYOUT, all_triples, check_e1_factorization,
                      coefficient_rank, delta_MT_all, eliminate_eager,
                      evaluate, move_one_power, poly, random_triple,
                      tuple_coefficient, unpacked, x0_coefficient, y_order_key)
from lrbasis import (check_basis, check_hwv, check_leading_term, cli, delta,
                     delta_MT, delta_TY, enumerate_lr, hwv, intlinalg,
                     leading_monomial, raising_operator_cols,
                     raising_operator_rows, validate_triple, verify,
                     weight_profile)
from lrbasis.errors import (ExponentOverflow, NonSquare, NotHomogeneous,
                            ZeroPolynomial)
from lrbasis.intlinalg import bareiss_det, int_rank
from lrbasis.polyring import (Layout, Polynomial, mono, triple_layout, xvar,
                              yvar)

POOLS = Path(__file__).resolve().parents[1] / "bench" / "pools"
POOL = POOLS / "verify-symbolic.json"


def P(v):
    return Polynomial.variable(v, LAYOUT)


def test_raising_operator_rows_basic():
    p = P(xvar(2, 1))
    q = raising_operator_rows(p, 1, 2)
    assert q.terms == P(xvar(1, 1)).terms
    # power rule: applying to x21^3 gives 3 x11 x21^2
    p3 = p * p * p
    q3 = raising_operator_rows(p3, 1, 2)
    assert q3.terms == (3 * P(xvar(1, 1)) * p * p).terms


def test_raising_operator_cols_basic():
    p = P(xvar(1, 2))
    assert raising_operator_cols(p, "x", 1, 2).terms == P(xvar(1, 1)).terms
    assert raising_operator_cols(p, "y", 1, 2).is_zero()


def test_operator_overflow_is_a_domain_error():
    lay = Layout([xvar(1, 1), xvar(1, 2)], 3)    # exponents up to 3
    x11, x12 = (Polynomial.variable(v, lay) for v in (xvar(1, 1), xvar(1, 2)))
    assert unpacked(raising_operator_cols(x11 * x11 * x12, "x", 1, 2)) == {
        mono((xvar(1, 1), 3)): 1}
    with pytest.raises(ExponentOverflow, match=r"\('x', 1, 1\) reached 4, "
                                               r"past the 3-bit field"):
        raising_operator_cols(x11 * x11 * x11 * x12, "x", 1, 2)


def _operators(tr):
    """Each raising operator check_hwv applies to the triple's vectors, as
    (operator, families, axis, src, dst) of move_one_power."""
    for d in range(2, tr.F.width + 1):
        yield (lambda p, d=d: raising_operator_rows(p, d - 1, d)), ("x", "y"), 1, d, d - 1
    for fam, width in (("x", tr.D.width), ("y", tr.E.width)):
        for d in range(2, width + 1):
            yield ((lambda p, fam=fam, d=d: raising_operator_cols(p, fam, d - 1, d)),
                   (fam,), 2, d, d - 1)


def test_packed_against_tuple_monomials():
    # every tableau with |F| <= 7: delta_MT, delta_TY, the leading term of
    # delta_TY and the raising operator images equal the same taken over
    # tuple-form monomials
    n = 0
    for tr in all_triples(7):
        for T in enumerate_lr(tr):
            p = delta_MT(tr, T)
            terms = unpacked(p)
            assert terms == tuple_coefficient(tr, T)
            ty = delta_TY(tr, T)
            assert unpacked(ty) == tuple_coefficient(tr, T, False)
            assert leading_monomial(ty) == max(
                unpacked(ty).items(), key=lambda mc: y_order_key(mc[0]))
            # one coefficient changed: every term has each row degree and
            # column degree of the triple, so every operator now finds a
            # variable to move and leaves an image
            m = next(iter(p.terms))
            bent = Polynomial({**p.terms, m: p.terms[m] + 1}, p.layout)
            terms[p.layout.unpack(m)] += 1
            operators = list(_operators(tr))
            for op, *move in operators:
                assert op(p).is_zero()
                image = op(bent)
                assert not image.is_zero()
                assert unpacked(image) == move_one_power(terms, *move)
            assert check_hwv(p, tr)
            assert check_hwv(bent, tr) == (not operators)
            n += 1
    assert n == 636


def test_row_operator_kills_determinant():
    # the 2x2 minor x11 y21 - x21 y11 is invariant in the right way
    tr = validate_triple([1], [1], [2])
    p = delta_MT(tr, enumerate_lr(tr)[0])
    assert raising_operator_rows(p, 1, 2).is_zero()
    assert check_hwv(p, tr)
    # a non-highest vector is caught
    assert not check_hwv(Polynomial.variable(yvar(2, 1), triple_layout(tr)), tr)


def test_weight_profile_values():
    p = P(xvar(1, 1)) * P(yvar(2, 1))
    w = weight_profile(p)
    assert w.row_degrees == (1, 1)
    assert w.x_col_degrees == (1,)
    assert w.y_col_degrees == (1,)
    # row 1 has degree 0; a zero before the last row stays in the vector
    w = weight_profile(P(xvar(2, 1)) * P(yvar(2, 1)))
    assert w.row_degrees == (0, 2)
    assert w.x_col_degrees == (1,)
    assert w.y_col_degrees == (1,)
    # a degree past what one exponent field holds (LAYOUT's hold 15)
    p = poly({mono((xvar(1, 1), 8), (xvar(1, 2), 8), (yvar(1, 2), 8)): 1})
    w = weight_profile(p)
    assert (w.row_degrees, w.x_col_degrees, w.y_col_degrees) == ((24,), (8, 8), (0, 8))


def test_weight_profile_errors():
    with pytest.raises(ZeroPolynomial):
        weight_profile(Polynomial({}, LAYOUT))
    p = poly({mono((xvar(1, 1), 1)): 1, mono((yvar(2, 1), 1)): 1})
    with pytest.raises(NotHomogeneous):
        weight_profile(p)


def test_delta_MT_profiles_random():
    rng = random.Random(18)
    for _ in range(10):
        tr = random_triple(rng, 8, require_tableaux=True)
        tabs = enumerate_lr(tr)
        for T, top in zip(tabs, check_basis(tr, tableaux=tabs).tops):
            p = delta_MT(tr, T)
            assert weight_profile(p).matches(tr)
            assert check_hwv(p, tr)
            assert check_leading_term(tr, [T], [top])
            assert check_e1_factorization(tr, T)


def test_check_hwv_edge_operators():
    # each polynomial is killed by every raising operator but one, which
    # moves row F_1, x column D_1 or y column E_1
    tr = validate_triple([2], [3], [4, 1])
    for v in (xvar(4, 1), xvar(1, 2), yvar(1, 3)):
        assert not check_hwv(Polynomial.variable(v, triple_layout(tr)), tr), v


def test_numeric_delta_is_hwv():
    rng = random.Random(19)
    for _ in range(8):
        tr = random_triple(rng, 7, require_tableaux=True)
        A = [[rng.randint(-4, 4) for _ in range(tr.r)] for _ in range(tr.t)]
        B = [[rng.randint(-4, 4) for _ in range(tr.s)] for _ in range(tr.t)]
        assert check_hwv(delta(tr, A=A, B=B), tr)


def test_bareiss_det_known():
    assert bareiss_det([]) == 1
    assert bareiss_det([[7]]) == 7
    assert bareiss_det([[1, 2], [3, 4]]) == -2
    assert bareiss_det([[0, 1], [1, 0]]) == -1
    assert bareiss_det([[2, 0, 1], [1, 1, 0], [0, 3, 1]]) == 5
    assert bareiss_det([[1, 2], [2, 4]]) == 0


def _matrices(rng):
    """Integer matrices of the shapes elimination meets: square (some of
    them singular), wide and tall, with a row that combines the rows above
    it or with a zero column, and the empty ones."""
    yield from ([], [[]], [[], []])
    for _ in range(400):
        nr = rng.randint(1, 6)
        nc = nr if rng.random() < 0.5 else rng.randint(1, 6)
        m = [[rng.choice((0, 0, 1, -1, 2, -3, 7, 12)) for _ in range(nc)]
             for _ in range(nr)]
        kind = rng.randrange(3)
        if kind == 1 and nr > 1:
            cs = [rng.randint(-2, 2) for _ in range(nr - 1)]
            m[-1] = [sum(c * row[j] for c, row in zip(cs, m)) for j in range(nc)]
        elif kind == 2:
            j = rng.randrange(nc)
            for row in m:
                row[j] = 0
        yield m


def _frac_rank_det(m):
    """Rank of m, and its determinant if m is square, by elimination over
    the rationals."""
    a = [[Fraction(x) for x in row] for row in m]
    nr, nc = len(a), len(a[0]) if a else 0
    rank, det = 0, Fraction(1)
    for c in range(nc):
        piv = next((i for i in range(rank, nr) if a[i][c]), None)
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            det = -det
        det *= a[rank][c]
        for i in range(rank + 1, nr):
            f = a[i][c] / a[rank][c]
            for j in range(c, nc):
                a[i][j] -= f * a[rank][j]
        rank += 1
    if nr != nc or rank < nr:
        det = 0
    assert det.denominator == 1
    return rank, int(det)


def test_bareiss_det_random_vs_fractions():
    rng = random.Random(20)
    for m in _matrices(rng):
        rank, det = _frac_rank_det(m)
        assert int_rank(m) == rank, m
        if all(len(row) == len(m) for row in m):
            assert bareiss_det(m) == det, m
        else:
            with pytest.raises(NonSquare):
                bareiss_det(m)


def _sparse_matrices(rng):
    """Integer matrices for the elimination that skips rows with a zero in
    the pivot column: sparse and dense, square, wide (c x (c + 4)) and
    tall, some with a row that combines the rows above it; then
    block-diagonal ones with their rows reordered, so that a row skipped
    for a whole block is later swapped in as the pivot row."""
    for _ in range(300):
        c = rng.randint(1, 7)
        nr, nc = rng.choice(((c, c), (c, c + 4), (c + 4, c)))
        density = rng.choice((0.15, 0.4, 1.0))
        m = [[rng.randint(-9, 9) if rng.random() < density else 0
              for _ in range(nc)] for _ in range(nr)]
        if nr > 1 and rng.random() < 0.3:
            ks = [rng.randint(-2, 2) for _ in range(nr - 1)]
            m[-1] = [sum(k * row[j] for k, row in zip(ks, m)) for j in range(nc)]
        yield m
    for _ in range(200):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(2, 4))]
        n, at = sum(sizes), 0
        m = [[0] * n for _ in range(n)]
        for k in sizes:
            for i in range(at, at + k):
                m[i][at:at + k] = [rng.choice((-7, -2, -1, 1, 3, 5))
                                   for _ in range(k)]
            at += k
        # the last block first, ahead of the rows that pivot before it
        m = m[n - sizes[-1]:] + m[:n - sizes[-1]]
        yield m
        rng.shuffle(m)
        yield m


def test_eliminate_matches_eager():
    # the elimination that leaves a row unscaled while its pivot-column
    # entry is zero gives the rank, sign and last pivot of eager Bareiss
    rng = random.Random(26)
    for m in _sparse_matrices(rng):
        assert intlinalg._eliminate(m) == eliminate_eager(m), m


def test_int_rank_known():
    assert int_rank([]) == 0
    assert int_rank([[0, 0], [0, 0]]) == 0
    assert int_rank([[1, 2], [2, 4]]) == 1
    assert int_rank([[1, 2], [3, 4]]) == 2
    assert int_rank([[1, 0, 2], [0, 1, 3]]) == 2
    assert int_rank([[1], [2], [3]]) == 1


def test_int_rank_modular_fallback(monkeypatch):
    # the rank modulo P can fall short of the rank over the rationals: then
    # the exact elimination decides, and only then
    P = intlinalg.P
    exact = []
    eliminate = intlinalg._eliminate
    monkeypatch.setattr(intlinalg, "_eliminate",
                        lambda m: exact.append(m) or eliminate(m))
    for m, rank_p, rank in (([[P, 2 * P], [3, 5]], 1, 2),
                            ([[2, 1], [1, (P + 1) // 2]], 1, 2),
                            ([[P]], 0, 1),
                            ([[1, 2], [2, 4]], 1, 1),
                            # sparse and wide: the last row is skipped at
                            # the first step and then swapped in as pivot
                            ([[P, 0, 0, 0, 2 * P], [3, 0, 0, 0, 5],
                              [0, 0, 1, 0, 0]], 2, 3)):
        assert intlinalg._rank_mod_p(m) == rank_p
        assert int_rank(m) == rank
        assert exact.pop() == m
    assert int_rank([[P + 1, 2], [3, 5 * P]]) == 2
    assert intlinalg._rank_mod_p([[2 * P + 3, -P], [-5, 7]]) == 2
    assert exact == []


def test_int_rank_random_vs_fractions():
    rng = random.Random(21)
    for _ in range(40):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rng.choice([0, 0, 1, -1, 2, 3]) for _ in range(nc)] for _ in range(nr)]
        assert int_rank(m) == _frac_rank_det(m)[0]


def test_check_basis_small():
    rep = check_basis(validate_triple([1], [1], [2]))
    assert rep.passed and rep.rank == 1
    rep = check_basis(validate_triple([2, 1], [2, 1], [3, 2, 1]))
    assert rep.passed and rep.lr_count == 2 and rep.rank == 2


def test_check_basis_empty():
    rep = check_basis(validate_triple([2], [], [1, 1]))
    assert rep.lr_count == rep.oracle_count == rep.rank == 0
    assert rep.passed


def test_check_basis_reuses_given_vectors():
    # the tableaux a caller hands in are what gets ranked: a repeated
    # tableau drops the rank
    tr = validate_triple([2, 1], [2, 1], [3, 2, 1])
    tabs = enumerate_lr(tr)
    rep = check_basis(tr, tableaux=tabs)
    assert rep.passed and rep.rank == 2 and rep.hwv is None
    rep = check_basis(tr, tableaux=[tabs[0], tabs[0]])
    assert rep.rank == 1 and not rep.passed
    # one of the two tableaux ranks fully, and falls short of the oracle
    rep = check_basis(tr, tableaux=tabs[:1])
    assert rep.lr_count == rep.rank == 1 and not rep.passed


def test_evaluation_rank_agrees_with_symbolic():
    # the rank of the values at the seeded points is that of the
    # coefficient matrix on every triple with
    # |F| <= 8, on the verify-symbolic pool and on three 12-box triples of
    # 4 tableaux
    pool = json.loads(POOL.read_text())["triples"]
    triples = [*all_triples(8),
               *(validate_triple(D, E, F) for D, E, F, _, _ in pool),
               *(validate_triple([3, 2, 1], [3, 2, 1], F)
                 for F in ([5, 4, 2, 1], [5, 3, 2, 1, 1], [4, 3, 2, 2, 1]))]
    for tr in triples:
        tabs = enumerate_lr(tr)
        rep = check_basis(tr, tableaux=tabs)
        assert rep.rank == coefficient_rank(delta_MT_all(tr, tabs)), (
            tr.D, tr.E, tr.F)


def test_evaluation_basis_is_one_shared_sum(running, monkeypatch):
    # one Laplace sum over det Yo and all c tableaux gives their values at
    # all c + 4 y points and their leading terms, not one sum per tableau
    # or per point, and the ranked matrix is the one built point by point;
    # the group check adds one sum over det Z and leaves the rank's points
    # and matrix as they are
    sums, matrices = [], []
    laplace_sums, rank = hwv._laplace_sums, verify.int_rank

    def counting(triple, grids, with_x, *args):
        sums.append((len(grids), with_x))
        return laplace_sums(triple, grids, with_x, *args)

    def recording(matrix):
        matrices.append(matrix)
        return rank(matrix)

    monkeypatch.setattr(hwv, "_laplace_sums", counting)
    monkeypatch.setattr(verify, "int_rank", recording)
    rep = check_basis(running, seed=7)
    assert rep.passed
    assert sums == [(rep.lr_count, False)] == [(4, False)]
    assert check_leading_term(running, enumerate_lr(running), rep.tops)
    sums.clear()
    grouped = check_basis(running, seed=7, group=True)
    assert grouped[:4] == rep[:4] and grouped.tops == rep.tops
    assert sums == [(4, False), (4, True)]
    sums.clear()

    def per_point(tr, grids, points):
        values = [[hwv.delta_TY_values_and_leads(tr, [grid], [pt])[0][0][0]
                   for pt in points] for grid in grids]
        return values, hwv.delta_TY_values_and_leads(tr, grids, [])[1]
    monkeypatch.setattr(verify, "delta_TY_values_and_leads", per_point)
    assert check_basis(running, seed=7) == rep
    assert sums == [(1, False)] * 4 * 8 + [(4, False)]
    one_pass, grouped, by_point = matrices
    assert one_pass == grouped == by_point
    assert len(one_pass) == 4 and {len(row) for row in one_pass} == {8}


def test_leading_terms_read_off_the_vectors():
    # Yo is Z at x = I: the leading term of the x0 coefficient of each
    # vector, x0 = prod_v x[v,v]^(D'_v), is that of delta_TY up to one sign
    # per triple, and e(T) with coefficient +-1 as the max-plus sum finds,
    # on every tableau with |F| <= 8 (D or E empty among them) and on the
    # verify-symbolic and verify-large pools, judged on check_basis's
    # tops; both signs occur
    triples = [*all_triples(8),
               *(validate_triple(D, E, F) for D, E, F, *_ in
                 json.loads(POOL.read_text())["triples"]),
               *(validate_triple(D, E, F) for D, E, F, *_ in
                 json.loads((POOLS / "verify-large.json").read_text())["triples"])]
    n, signs = 0, set()
    for tr in triples:
        tabs = enumerate_lr(tr)
        if not tabs:
            continue
        assert check_leading_term(tr, tabs, check_basis(tr, tableaux=tabs).tops)
        leads = [leading_monomial(x0_coefficient(tr, p))
                 for p in delta_MT_all(tr, tabs)]
        expanded = [leading_monomial(delta_TY(tr, T)) for T in tabs]
        assert [m for m, _ in leads] == [m for m, _ in expanded]
        signs |= {c * d for (_, c), (_, d) in zip(leads, expanded)}
        n += len(tabs)
    assert n == 1350 + 837 + 43 and signs == {1, -1}
    # no tableau passes, though D = 2 does not fit inside F = 1,1
    tr = validate_triple([2], [], [1, 1])
    assert check_leading_term(tr, [], check_basis(tr).tops)
    # the tops of the wrong tableaux fail
    tr = validate_triple([2, 1], [2, 1], [3, 2, 1])
    tabs = enumerate_lr(tr)
    assert not check_leading_term(tr, tabs, check_basis(tr, tableaux=tabs).tops[::-1])


def test_leading_term_falls_back_when_a_top_cancels(running, monkeypatch):
    # a tableau whose top cancelled in the max-plus sum, here the second,
    # has its delta_TY expanded, and only that one; the verdict is the same
    tabs, expanded = enumerate_lr(running), []
    tops = check_basis(running, tableaux=tabs).tops
    tops[1] = None

    def expanding(triple, T):
        expanded.append(T)
        return delta_TY(triple, T)
    monkeypatch.setattr(verify, "delta_TY", expanding)
    assert check_leading_term(running, tabs, tops)
    assert expanded == [tabs[1]]
    # the fallback's term is checked like any other
    monkeypatch.setattr(verify, "delta_TY", lambda triple, T: delta_TY(
        triple, tabs[0]))
    assert not check_leading_term(running, tabs, tops)


def test_leading_term_needs_a_unit_coefficient(running):
    # each top must be e(T) with coefficient +-1: either sign passes, and
    # e(T) with coefficient 2 fails
    tabs = enumerate_lr(running)
    tops = check_basis(running, tableaux=tabs).tops
    assert check_leading_term(running, tabs, tops)
    assert check_leading_term(running, tabs, [(m, -c) for m, c in tops])
    assert not check_leading_term(running, tabs, [(tops[0][0], 2), *tops[1:]])


def test_leading_term_deep_E():
    # |E| = 16 rows of y: the b-variable determinant of Yo ran past 60 s
    # and 940 MB, and expanding delta_TY by the block Laplace sum a few
    # seconds; the max-plus sum takes milliseconds
    tr = validate_triple([2, 1], [4, 4, 3, 3, 2], [5, 4, 4, 3, 2, 1])
    tabs = enumerate_lr(tr)
    assert tabs
    assert check_leading_term(tr, tabs, check_basis(tr, tableaux=tabs).tops)


def test_group_checks_agree_with_exact_checks():
    # the hwv and weights verdicts of the group action at translated points
    # are those of check_hwv and weight_profile on the expanded vectors, on
    # every triple with |F| <= 7 that has a tableau
    n = 0
    for tr in all_triples(7):
        tabs = enumerate_lr(tr)
        if not tabs:
            continue
        rep = check_basis(tr, tableaux=tabs, group=True)
        polys = delta_MT_all(tr, tabs)
        assert rep.hwv == all(check_hwv(p, tr) for p in polys)
        assert rep.weights == all(weight_profile(p).matches(tr) for p in polys)
        assert rep.bound == pytest.approx((3 * tr.F.size / 2e6) ** 2)
        n += 1
    assert n == 631


def _group_verdicts(monkeypatch, tr, p):
    """(hwv, weights) of check_basis when every vector's values at (x, y)
    points are those of the polynomial p."""
    monkeypatch.setattr(verify, "delta_MT_values", lambda triple, grids, points:
                        [[evaluate(p, pt) for pt in points]])
    rep = check_basis(tr, group=True)
    return rep.hwv, rep.weights


def test_group_checks_catch_a_wrong_vector(monkeypatch):
    # on D = 1, E = 1, F = 2 (weight (1,1), (1), (1)): x11 y21 has the
    # weight, and only the row operator fails to kill it; x11 y11 is killed
    # by it and has the wrong weight; the zero vector has no weight
    tr = validate_triple([1], [1], [2])
    lay = triple_layout(tr)
    x11, y11, y21 = (Polynomial.variable(v, lay)
                     for v in (xvar(1, 1), yvar(1, 1), yvar(2, 1)))
    for p, verdicts in ((x11 * y21, (False, True)), (x11 * y11, (True, False)),
                        (Polynomial({}, lay), (True, False))):
        assert _group_verdicts(monkeypatch, tr, p) == verdicts
        assert check_hwv(p, tr) == verdicts[0]
    # on D = 2, E = 3, F = 4,1 each variable is killed by every operator
    # but one: the row operator into row 3, an x column operator, a y
    # column operator
    tr = validate_triple([2], [3], [4, 1])
    for v in (xvar(4, 1), xvar(1, 2), yvar(1, 3)):
        p = Polynomial.variable(v, triple_layout(tr))
        assert _group_verdicts(monkeypatch, tr, p)[0] is False, v
        assert not check_hwv(p, tr)


def test_draw_is_the_randint_stream():
    # _draw reads the bits randint reads, and rejects what it rejects
    # plus 0: the same numbers as the randint-and-reject loop, and the
    # same state after them, on ranges of odd, even and power-of-two size
    def old_draw(rng, lo, hi):
        v = 0
        while v == 0:
            v = rng.randint(lo, hi)
        return v
    # (-8, 7), (-2**19, 2**19 - 1) and (0, 15) hold a power of two of
    # integers, half the values of the bits drawn for them
    for lo, hi in ((-10**6, 10**6), (-30, 30), (-15, 15), (-9, 9), (-8, 8),
                   (-8, 7), (-2**19, 2**19 - 1), (0, 15), (3, 10), (-5, -2)):
        for seed in range(5):
            new, old = random.Random(seed), random.Random(seed)
            assert ([verify._draw(new, lo, hi) for _ in range(300)]
                    == [old_draw(old, lo, hi) for _ in range(300)]), (lo, hi, seed)
            assert new.getstate() == old.getstate()


def test_draw_rejects_a_range_with_no_nonzero_integer():
    # the draw would loop for ever; it raises before drawing, and an rng
    # that fails after a bounded number of draws stops a regression
    class Bounded:
        def __init__(self):
            self.left, self.rng = 100, random.Random(0)

        def getrandbits(self, k):
            self.left -= 1
            assert self.left >= 0, "too many draws"
            return self.rng.getrandbits(k)
    tr = validate_triple([1], [1], [2])
    for lo, hi in ((0, 0), (1, 0), (5, -5)):
        rng = Bounded()
        with pytest.raises(ValueError):
            verify.random_point(rng, tr, lo=lo, hi=hi)
        assert rng.left == 100
    assert set(verify.random_point(Bounded(), tr, lo=0, hi=1).values()) == {1}


def test_same_seed_same_report():
    # `verify --all` prints the same bytes for the same --seed, whatever
    # the hash seed of the process
    argv = ["-m", "lrbasis.cli", "verify", "--D", "3,2,1", "--E", "3,2,1",
            "--F", "5,4,2,1", "--all", "--seed", "7"]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    outs = {subprocess.run([sys.executable, *argv], capture_output=True,
                           env=dict(env, PYTHONHASHSEED=h)).stdout
            for h in ("1", "2")}
    assert len(outs) == 1
    assert json.loads(outs.pop())["pass"]
