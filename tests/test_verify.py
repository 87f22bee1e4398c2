import random
from fractions import Fraction

import pytest

from conftest import check_e1_factorization, random_triple
from lrbasis import (check_basis, check_hwv, check_leading_term, delta,
                     delta_MT, enumerate_lr, raising_operator_cols,
                     raising_operator_rows, validate_triple, weight_profile)
from lrbasis.errors import NonSquare, NotHomogeneous, ZeroPolynomial
from lrbasis.intlinalg import bareiss_det, int_rank
from lrbasis.polyring import Polynomial, mono, xvar, yvar


def test_raising_operator_rows_basic():
    p = Polynomial.variable(xvar(2, 1))
    q = raising_operator_rows(p, 1, 2)
    assert q.terms == Polynomial.variable(xvar(1, 1)).terms
    # power rule: applying to x21^3 gives 3 x11 x21^2
    p3 = p * p * p
    q3 = raising_operator_rows(p3, 1, 2)
    assert q3.terms == (3 * Polynomial.variable(xvar(1, 1)) * p * p).terms


def test_raising_operator_cols_basic():
    p = Polynomial.variable(xvar(1, 2))
    assert (raising_operator_cols(p, "x", 1, 2).terms
            == Polynomial.variable(xvar(1, 1)).terms)
    assert raising_operator_cols(p, "y", 1, 2).is_zero()


def test_row_operator_kills_determinant():
    # the 2x2 minor x11 y21 - x21 y11 is invariant in the right way
    tr = validate_triple([1], [1], [2])
    p = delta_MT(tr, enumerate_lr(tr)[0])
    assert raising_operator_rows(p, 1, 2).is_zero()
    assert check_hwv(p, tr)
    # a non-highest vector is caught
    assert not check_hwv(Polynomial.variable(yvar(2, 1)), tr)


def test_weight_profile_values():
    p = Polynomial.variable(xvar(1, 1)) * Polynomial.variable(yvar(2, 1))
    w = weight_profile(p)
    assert w.row_degrees == (1, 1)
    assert w.x_col_degrees == (1,)
    assert w.y_col_degrees == (1,)
    # row 1 has degree 0; a zero before the last row stays in the vector
    w = weight_profile(Polynomial.variable(xvar(2, 1)) * Polynomial.variable(yvar(2, 1)))
    assert w.row_degrees == (0, 2)
    assert w.x_col_degrees == (1,)
    assert w.y_col_degrees == (1,)


def test_weight_profile_errors():
    with pytest.raises(ZeroPolynomial):
        weight_profile(Polynomial())
    p = Polynomial({mono((xvar(1, 1), 1)): 1, mono((yvar(2, 1), 1)): 1})
    with pytest.raises(NotHomogeneous):
        weight_profile(p)


def test_delta_MT_profiles_random():
    rng = random.Random(18)
    for _ in range(10):
        tr = random_triple(rng, 8, require_tableaux=True)
        for T in enumerate_lr(tr):
            p = delta_MT(tr, T)
            assert weight_profile(p).matches(tr)
            assert check_hwv(p, tr)
            assert check_leading_term(tr, T)
            assert check_e1_factorization(tr, T)


def test_check_hwv_edge_operators():
    # each polynomial is killed by every raising operator but one, which
    # moves row F_1, x column D_1 or y column E_1
    tr = validate_triple([2], [3], [4, 1])
    for v in (xvar(4, 1), xvar(1, 2), yvar(1, 3)):
        assert not check_hwv(Polynomial.variable(v), tr), v


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


def test_int_rank_known():
    assert int_rank([]) == 0
    assert int_rank([[0, 0], [0, 0]]) == 0
    assert int_rank([[1, 2], [2, 4]]) == 1
    assert int_rank([[1, 2], [3, 4]]) == 2
    assert int_rank([[1, 0, 2], [0, 1, 3]]) == 2
    assert int_rank([[1], [2], [3]]) == 1


def test_int_rank_random_vs_fractions():
    rng = random.Random(21)
    for _ in range(40):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rng.choice([0, 0, 1, -1, 2, 3]) for _ in range(nc)] for _ in range(nr)]
        assert int_rank(m) == _frac_rank_det(m)[0]


def test_check_basis_small():
    rep = check_basis(validate_triple([1], [1], [2]))
    assert rep.passed and rep.rank == 1 and rep.mode == "symbolic"
    rep = check_basis(validate_triple([2, 1], [2, 1], [3, 2, 1]))
    assert rep.passed and rep.lr_count == 2 and rep.rank == 2


def test_check_basis_empty():
    rep = check_basis(validate_triple([2], [], [1, 1]))
    assert rep.lr_count == rep.oracle_count == rep.rank == 0
    assert rep.passed


def test_check_basis_reuses_given_vectors():
    tr = validate_triple([2, 1], [2, 1], [3, 2, 1])
    tabs = enumerate_lr(tr)
    polys = [delta_MT(tr, T) for T in tabs]
    rep = check_basis(tr, tableaux=tabs, polys=polys)
    assert rep.passed and rep.rank == 2 and rep.mode == "symbolic"
    # the given vectors are what gets ranked: a repeated one drops the rank
    rep = check_basis(tr, tableaux=tabs, polys=[polys[0], polys[0]])
    assert rep.rank == 1 and not rep.passed


def test_leading_term_deep_E():
    # |E| = 16 rows of y: the b-variable determinant of Yo ran past 60 s
    # and 940 MB here; the block Laplace sum takes a few seconds
    tr = validate_triple([2, 1], [4, 4, 3, 3, 2], [5, 4, 4, 3, 2, 1])
    tabs = enumerate_lr(tr)
    assert tabs
    assert all(check_leading_term(tr, T) for T in tabs)
