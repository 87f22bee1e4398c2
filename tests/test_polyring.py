import json
import random
from itertools import combinations

import pytest

from conftest import (LAYOUT, all_triples, determinant_naive, evaluate,
                      mono_mul, oracle_json, oracle_text, pack, poly, unpacked,
                      y_order_key)
from lrbasis import delta, delta_MT, enumerate_lr, polyring
from lrbasis.errors import (ExponentOverflow, NonSquare, UnorderedVariable,
                            ZeroPolynomial)
from lrbasis.intlinalg import bareiss_det
from lrbasis.polyring import (ONE, Layout, Polynomial, avar, bvar,
                              coefficient_of, column_minors, determinant,
                              leading_monomial, mono, mono_text, poly_text,
                              poly_to_json, triple_layout, xvar, yvar, zvar)
from lrbasis.shapes import validate_triple


def P(v):
    return Polynomial.variable(v, LAYOUT)


def rand_poly(rng, nvars=4, nterms=5, maxdeg=3):
    terms = {}
    vars_ = [xvar(i, 1) for i in range(1, nvars + 1)]
    for _ in range(nterms):
        m = mono(*((rng.choice(vars_), 1) for _ in range(rng.randint(0, maxdeg))))
        LAYOUT.add_product(terms, poly({m: rng.randint(-5, 5)}).terms, {ONE: 1})
    return Polynomial(terms, LAYOUT)


def rand_mono(rng, variables, maxdeg=4):
    return mono(*((rng.choice(variables), 1) for _ in range(rng.randint(0, maxdeg))))


def test_arithmetic_basics():
    x, y = P(xvar(1, 1)), P(yvar(2, 1))
    xy = mono((xvar(1, 1), 1), (yvar(2, 1), 1))
    assert unpacked(x * y) == unpacked(y * x) == {xy: 1}
    assert unpacked(3 * x) == unpacked(x * 3) == {mono((xvar(1, 1), 1)): 3}
    assert (0 * x).is_zero() and (x * Polynomial({}, LAYOUT)).is_zero()
    # (x + y)(x - y) = x^2 - y^2, and x - x leaves no term
    add = LAYOUT.add_product
    squares = add(add(None, x.terms, x.terms), y.terms, y.terms, -1)
    assert add(None, {**x.terms, **y.terms},
               {**x.terms, **(-1 * y).terms}) == squares
    assert add(dict(x.terms), x.terms, {ONE: 1}, -1) == {}


def test_polynomial_keeps_its_dict():
    # a dict with no zero coefficient is kept, not copied; zeros are dropped
    x, y = pack(mono((xvar(1, 1), 1))), pack(mono((yvar(2, 1), 1)))
    terms = {x: 2, y: -1}
    assert Polynomial(terms, LAYOUT).terms is terms
    assert Polynomial({x: 0}, LAYOUT).is_zero()
    assert Polynomial({x: 0, y: 3}, LAYOUT).terms == {y: 3}


def test_ring_axioms_randomized():
    rng = random.Random(0)
    add = LAYOUT.add_product
    for _ in range(50):
        a, b, c = (rand_poly(rng) for _ in range(3))
        b_plus_c = Polynomial(add(dict(b.terms), c.terms, {ONE: 1}), LAYOUT)
        assert (a * b_plus_c).terms == add(add(None, a.terms, b.terms),
                                           a.terms, c.terms)
        assert ((a * b) * c).terms == (a * (b * c)).terms
        assert (add(dict(a.terms), b.terms, {ONE: 1})
                == add(dict(b.terms), a.terms, {ONE: 1}))
        assert (a * b).terms == (b * a).terms


def test_pack_against_tuple_monomials():
    # unpacking lists the pairs in variable order, as the tuple form did,
    # and a packed product is the tuple product packed
    rng = random.Random(1)
    variables = list(LAYOUT.variables)
    for _ in range(300):
        m1, m2 = rand_mono(rng, variables), rand_mono(rng, variables)
        assert LAYOUT.unpack(pack(m1)) == m1
        assert pack(m1) + pack(m2) == pack(mono_mul(m1, m2))
        assert LAYOUT.unpack(pack(m1) + pack(m2)) == mono_mul(m1, m2)


def test_triple_layout_order():
    tr = validate_triple([2, 1], [2], [3, 2])
    lay = triple_layout(tr)
    assert lay.variables == (
        xvar(1, 1), xvar(1, 2), xvar(2, 1), xvar(2, 2), xvar(3, 1), xvar(3, 2),
        yvar(1, 1), yvar(1, 2), yvar(2, 1), yvar(2, 2), yvar(3, 1), yvar(3, 2),
        avar(1, 1), avar(1, 2), avar(2, 1), avar(2, 2),
        bvar(1, 1), bvar(2, 1))
    # |F| = 5 needs three bits, and a fourth is the guard
    assert lay.width == 4 and lay.mask == 15
    assert lay.shift[yvar(1, 1)] == 24
    assert lay.guard == sum(8 << 4 * k for k in range(18))


def test_overflow_is_a_domain_error():
    lay = Layout([xvar(1, 1), xvar(1, 2), zvar(1)], 3)   # exponents up to 3
    x = Polynomial.variable(xvar(1, 1), lay)
    x3 = x * x * x
    assert unpacked(x3) == {mono((xvar(1, 1), 3)): 1}
    with pytest.raises(ExponentOverflow) as exc:
        x3 * x
    assert str(exc.value) == ("the exponent of ('x', 1, 1) reached 4, past "
                              "the 3-bit field that holds at most 3")
    # the other fields stay clear of a carry, and a sum over a field that
    # does not overflow passes
    z = Polynomial.variable(zvar(1), lay)
    assert unpacked(x3 * z * z * z) == {mono((xvar(1, 1), 3), (zvar(1), 3)): 1}
    with pytest.raises(ExponentOverflow):
        determinant([[x3, x], [x, x3]])


def test_layouts_do_not_mix():
    other = Layout(LAYOUT.variables, 4)
    with pytest.raises(ValueError):
        P(xvar(1, 1)) * Polynomial.variable(xvar(1, 1), other)


def test_evaluate():
    p = poly({mono((xvar(1, 1), 2)): 1, mono((yvar(2, 1), 1)): -2})
    assert evaluate(p, {xvar(1, 1): 3, yvar(2, 1): 5}) == -1
    with pytest.raises(KeyError):
        evaluate(p, {xvar(1, 1): 3})


def test_y_order_single_variables():
    # y[1,1] > y[2,1] > y[1,2]: column first, then row
    a = mono((yvar(1, 1), 1))
    b = mono((yvar(2, 1), 1))
    c = mono((yvar(1, 2), 1))
    assert y_order_key(a) > y_order_key(b) > y_order_key(c)
    assert y_order_key(a) == y_order_key(mono((yvar(1, 1), 1)))
    assert leading_monomial(poly({c: 1, b: 1, a: -1})) == (a, -1)
    assert leading_monomial(poly({c: 1, b: 2})) == (b, 2)
    assert polyring.y_order([yvar(1, 2), xvar(1, 1), yvar(2, 1), yvar(1, 1)]) == [
        yvar(1, 1), yvar(2, 1), yvar(1, 2)]


def test_y_order_degree_dominates():
    big = mono((yvar(5, 3), 2))
    small = mono((yvar(1, 1), 1))
    assert y_order_key(big) > y_order_key(small)
    assert leading_monomial(poly({small: 1, big: 1}))[0] == big


def test_y_order_worked_comparison():
    # the two monomials from the worked example: degree ties are broken by
    # the largest differing factor
    m1 = mono((yvar(4, 2), 2), (yvar(5, 3), 2))
    m2 = mono((yvar(4, 2), 1), (yvar(5, 2), 1), (yvar(4, 3), 1), (yvar(5, 3), 1))
    assert mono_text(m1) == "y[4,2]^2*y[5,3]^2"
    assert mono_text(m2) == "y[4,2]*y[4,3]*y[5,2]*y[5,3]"
    assert y_order_key(m1) > y_order_key(m2)
    assert leading_monomial(poly({m2: 1, m1: 3})) == (m1, 3)


def test_y_order_rejects_other_families():
    with pytest.raises(UnorderedVariable):
        y_order_key(mono((xvar(1, 1), 1)))
    with pytest.raises(UnorderedVariable):
        leading_monomial(poly({mono((xvar(1, 1), 1)): 1,
                               mono((yvar(1, 1), 1)): 1}))


def test_leading_monomial_errors():
    with pytest.raises(ZeroPolynomial):
        leading_monomial(Polynomial({}, LAYOUT))


def test_determinant_against_naive():
    rng = random.Random(2)
    assert unpacked(determinant([])) == {(): 1}
    for n in range(1, 5):
        for _ in range(6):
            m = [[poly({(): rng.randint(-3, 3),
                        mono((xvar(i + 1, j + 1), 1)): rng.randint(-2, 2)})
                  for j in range(n)] for i in range(n)]
            assert determinant(m).terms == determinant_naive(m).terms


def _row_subtuples(n):
    """Every tuple of rows of an n-row matrix in increasing order, and
    each reversed."""
    for k in range(n + 1):
        for rows in combinations(range(n), k):
            yield rows
            yield rows[::-1]


def test_column_minors_against_naive():
    # every column-initial minor of random integer and polynomial matrices
    # of sizes 0-5, about a third of whose entries are zero
    rng = random.Random(3)

    def entry(i, j):
        if rng.random() < 0.35:
            return poly({})
        return poly({(): rng.randint(-3, 3),
                     mono((xvar(i + 1, j + 1), 1)): rng.randint(-2, 2)})

    for n in range(6):
        for _ in range(4):
            ints = [[rng.choice([0, 0, rng.randint(-5, 5)]) for _ in range(n)]
                    for _ in range(n)]
            polys = [[entry(i, j) for j in range(n)] for i in range(n)]
            int_minor = column_minors(
                lambda u, v: ints[u][v - 1],
                lambda acc, p, q, c: (acc or 0) + c * p * q, 1)
            poly_minor = column_minors(lambda u, v: polys[u][v - 1].terms,
                                       LAYOUT.add_product, {ONE: 1})
            for rows in _row_subtuples(n):
                k = len(rows)
                if not k:
                    assert int_minor(rows) == 1
                    assert poly_minor(rows) == {ONE: 1}
                    continue
                sub = [ints[u][:k] for u in rows]
                got = int_minor(rows) or 0
                assert got == bareiss_det(sub)
                assert ({ONE: got} if got else {}) == determinant_naive(
                    [[Polynomial({ONE: c}, LAYOUT) for c in row]
                     for row in sub]).terms
                assert (poly_minor(rows) or {}) == determinant_naive(
                    [polys[u][:k] for u in rows]).terms


def test_determinant_nonsquare():
    with pytest.raises(NonSquare):
        determinant([[poly({(): 1}), poly({(): 2})]])


def test_text_format_canonical():
    p = Polynomial(LAYOUT.add_product((P(xvar(1, 1)) * P(yvar(2, 1)) * -1).terms,
                                      P(xvar(2, 1)).terms, P(yvar(1, 1)).terms),
                   LAYOUT)
    text = poly_text(p)
    assert text == "-1*x[1,1]*y[2,1] +1*x[2,1]*y[1,1]"
    assert poly_text(Polynomial({}, LAYOUT)) == "0"
    assert mono_text(mono()) == "1"


def test_json_format():
    # terms by descending degree, then by variables; coefficients as strings
    x, y, z = xvar(1, 1), yvar(2, 1), yvar(1, 2)
    p = poly({mono((x, 2), (y, 1)): 3, mono((z, 1)): -2, (): -7,
              mono((x, 1), (z, 1)): 1})
    text = poly_to_json(p)
    assert text == ('{"terms": [{"c": "3", "m": [["x", 1, 1, 2], ["y", 2, 1, 1]]}, '
                    '{"c": "1", "m": [["x", 1, 1, 1], ["y", 1, 2, 1]]}, '
                    '{"c": "-2", "m": [["y", 1, 2, 1]]}, {"c": "-7", "m": []}]}')
    assert json.loads(text) == {"terms": [
        {"c": "3", "m": [["x", 1, 1, 2], ["y", 2, 1, 1]]},
        {"c": "1", "m": [["x", 1, 1, 1], ["y", 1, 2, 1]]},
        {"c": "-2", "m": [["y", 1, 2, 1]]},
        {"c": "-7", "m": []}]}
    assert poly_to_json(Polynomial({}, LAYOUT)) == '{"terms": []}'


def assert_writes_as_oracle(p):
    assert poly_to_json(p) == json.dumps(oracle_json(p))
    assert poly_text(p) == oracle_text(p)


def test_writers_match_oracle_on_delta_MT():
    for triple in all_triples(7):
        for T in enumerate_lr(triple):
            assert_writes_as_oracle(delta_MT(triple, T))


def test_writer_shows_each_distinct_part_once(monkeypatch):
    # the 40 terms of this delta_MT hold 80 x and y parts, 29 of them
    # distinct: poly_text shows each of those once
    triple = validate_triple((2, 2), (2, 1), (3, 3, 1))
    p = delta_MT(triple, enumerate_lr(triple)[0])
    parts = [part for m in p.terms for f in "xy"
             if (part := tuple(ve for ve in p.layout.unpack(m) if ve[0][0] == f))]
    assert len(set(parts)) < len(parts)
    expected = oracle_text(p)
    shown = []
    monkeypatch.setattr(polyring, "mono_text",
                        lambda m: shown.append(m) or mono_text(m))
    assert poly_text(p) == expected
    assert sorted(shown) == sorted(set(parts))


def test_writers_match_oracle_on_symbolic_delta():
    # A = "symbolic" puts a and b variables in the terms, next to x and y
    families = set()
    for triple in all_triples(4):
        p = delta(triple, A="symbolic")
        families |= {v[0] for m in p.terms for v, _ in p.layout.unpack(m)}
        assert_writes_as_oracle(p)
    assert families == {"x", "y", "a", "b"}


def test_writers_match_oracle_on_random_polynomials():
    # every family of LAYOUT, z included, exponents up to the field maximum
    # and coefficients of either sign past 2**64
    rng = random.Random(11)
    top = LAYOUT.mask >> 1
    for _ in range(300):
        terms = {}
        for _ in range(rng.randint(0, 12)):
            m = mono(*((v, rng.choice((1, 2, top)))
                       for v in rng.sample(LAYOUT.variables, rng.randint(0, 5))))
            terms[pack(m)] = rng.choice((-1, 1)) * rng.randint(1, 2**rng.choice((3, 70)))
        assert_writes_as_oracle(Polynomial(terms, LAYOUT))


def test_output_order_edge_cases():
    top = LAYOUT.mask >> 1    # the largest exponent a field holds
    x11, x12, y55, z1, z4 = xvar(1, 1), xvar(1, 2), yvar(5, 5), zvar(1), zvar(4)
    p = poly({mono((x11, 1)): 1, mono((z1, 1)): 1, (): 5,
              # of higher degree, though its variable comes later than x[1,1]
              mono((y55, 2)): 2,
              # an exponent at the field maximum next to an exponent 1 in a
              # later variable, both ways round
              mono((x11, 1), (x12, top)): 2**64 + 1,
              mono((x11, top), (z4, 1)): -2**70,
              mono((x11, top), (x12, 1)): -3})
    assert poly_text(p) == (
        f"-3*x[1,1]^{top}*x[1,2] -{2**70}*x[1,1]^{top}*z[4] "
        f"+{2**64 + 1}*x[1,1]*x[1,2]^{top} +2*y[5,5]^2 +1*x[1,1] +1*z[1] +5")
    assert poly_to_json(p) == (
        f'{{"terms": [{{"c": "-3", "m": [["x", 1, 1, {top}], ["x", 1, 2, 1]]}}, '
        f'{{"c": "-{2**70}", "m": [["x", 1, 1, {top}], ["z", 4, 1, 1]]}}, '
        f'{{"c": "{2**64 + 1}", "m": [["x", 1, 1, 1], ["x", 1, 2, {top}]]}}, '
        '{"c": "2", "m": [["y", 5, 5, 2]]}, {"c": "1", "m": [["x", 1, 1, 1]]}, '
        '{"c": "1", "m": [["z", 1, 1, 1]]}, {"c": "5", "m": []}]}')
    assert_writes_as_oracle(p)
    # the constant and zero polynomials, here and on the empty triple's
    # layout, which has no variable
    empty = validate_triple((), (), ())
    for layout in (LAYOUT, triple_layout(empty)):
        constant, zero = Polynomial({ONE: -1}, layout), Polynomial({}, layout)
        assert poly_to_json(constant) == '{"terms": [{"c": "-1", "m": []}]}'
        assert poly_text(constant) == "-1"
        assert (poly_to_json(zero), poly_text(zero)) == ('{"terms": []}', "0")
    assert poly_to_json(delta(empty)) == '{"terms": [{"c": "1", "m": []}]}'
    assert poly_text(delta(empty)) == "+1"


def test_coefficient_of_and_split():
    b, x = bvar(1, 1), xvar(1, 1)

    def b_power(e):
        return poly({mono((b, e)): 1}).terms

    p = poly({mono((b, 2), (x, 1)): 1, mono((b, 1), (x, 1)): 2,
              mono((x, 1)): 3})
    assert coefficient_of(p, mono((b, 2)), {"b"}).terms == P(x).terms
    assert coefficient_of(p, mono(), {"b"}).terms == (3 * P(x)).terms
    # the coefficients of the powers of b put p back together
    whole = {}
    for e in range(3):
        LAYOUT.add_product(whole, b_power(e),
                           coefficient_of(p, mono((b, e)), {"b"}).terms)
    assert whole == p.terms
