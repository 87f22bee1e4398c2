import random

import pytest

from conftest import determinant_naive, evaluate
from lrbasis.errors import NonSquare, UnorderedVariable, ZeroPolynomial
from lrbasis.polyring import (ONE, Polynomial, add_product, bvar,
                              coefficient_of, determinant, leading_monomial,
                              mono, mono_text, poly_text, poly_to_json, xvar,
                              y_order_key, yvar)


def P(v):
    return Polynomial.variable(v)


def rand_poly(rng, nvars=4, nterms=5, maxdeg=3):
    terms = {}
    vars_ = [xvar(i, 1) for i in range(1, nvars + 1)]
    for _ in range(nterms):
        m = mono(*((rng.choice(vars_), 1) for _ in range(rng.randint(0, maxdeg))))
        add_product(terms, Polynomial({m: rng.randint(-5, 5)}).terms, {ONE: 1})
    return Polynomial(terms)


def test_arithmetic_basics():
    x, y = P(xvar(1, 1)), P(yvar(2, 1))
    xy = mono((xvar(1, 1), 1), (yvar(2, 1), 1))
    assert (x * y).terms == (y * x).terms == {xy: 1}
    assert (3 * x).terms == (x * 3).terms == {mono((xvar(1, 1), 1)): 3}
    assert (0 * x).is_zero() and (x * Polynomial()).is_zero()
    # (x + y)(x - y) = x^2 - y^2, and x - x leaves no term
    squares = add_product(add_product(None, x.terms, x.terms), y.terms, y.terms, -1)
    assert add_product(None, {**x.terms, **y.terms},
                       {**x.terms, **(-1 * y).terms}) == squares
    assert add_product(dict(x.terms), x.terms, {ONE: 1}, -1) == {}


def test_ring_axioms_randomized():
    rng = random.Random(0)
    for _ in range(50):
        a, b, c = (rand_poly(rng) for _ in range(3))
        b_plus_c = Polynomial(add_product(dict(b.terms), c.terms, {ONE: 1}))
        assert (a * b_plus_c).terms == add_product(
            add_product(None, a.terms, b.terms), a.terms, c.terms)
        assert ((a * b) * c).terms == (a * (b * c)).terms
        assert (add_product(dict(a.terms), b.terms, {ONE: 1})
                == add_product(dict(b.terms), a.terms, {ONE: 1}))
        assert (a * b).terms == (b * a).terms


def test_evaluate():
    p = Polynomial({mono((xvar(1, 1), 2)): 1, mono((yvar(2, 1), 1)): -2})
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
    assert leading_monomial(Polynomial({c: 1, b: 1, a: -1})) == (a, -1)


def test_y_order_degree_dominates():
    big = mono((yvar(5, 3), 2))
    small = mono((yvar(1, 1), 1))
    assert y_order_key(big) > y_order_key(small)
    assert leading_monomial(Polynomial({small: 1, big: 1}))[0] == big


def test_y_order_worked_comparison():
    # the two monomials from the worked example: degree ties are broken by
    # the largest differing factor
    m1 = mono((yvar(4, 2), 2), (yvar(5, 3), 2))
    m2 = mono((yvar(4, 2), 1), (yvar(5, 2), 1), (yvar(4, 3), 1), (yvar(5, 3), 1))
    assert mono_text(m1) == "y[4,2]^2*y[5,3]^2"
    assert mono_text(m2) == "y[4,2]*y[4,3]*y[5,2]*y[5,3]"
    assert y_order_key(m1) > y_order_key(m2)
    assert leading_monomial(Polynomial({m2: 1, m1: 3})) == (m1, 3)


def test_y_order_rejects_other_families():
    with pytest.raises(UnorderedVariable):
        y_order_key(mono((xvar(1, 1), 1)))
    with pytest.raises(UnorderedVariable):
        leading_monomial(Polynomial({mono((xvar(1, 1), 1)): 1,
                                     mono((yvar(1, 1), 1)): 1}))


def test_leading_monomial_errors():
    with pytest.raises(ZeroPolynomial):
        leading_monomial(Polynomial())


def test_determinant_against_naive():
    rng = random.Random(2)
    for n in range(0, 5):
        for _ in range(6):
            m = [[Polynomial({ONE: rng.randint(-3, 3),
                              mono((xvar(i + 1, j + 1), 1)): rng.randint(-2, 2)})
                  for j in range(n)] for i in range(n)]
            assert determinant(m).terms == determinant_naive(m).terms


def test_determinant_nonsquare():
    with pytest.raises(NonSquare):
        determinant([[Polynomial({ONE: 1}), Polynomial({ONE: 2})]])


def test_text_format_canonical():
    p = Polynomial(add_product((P(xvar(1, 1)) * P(yvar(2, 1)) * -1).terms,
                               P(xvar(2, 1)).terms, P(yvar(1, 1)).terms))
    text = poly_text(p)
    assert "*" in text and text.count(" ") == 1
    assert poly_text(Polynomial()) == "0"
    assert mono_text(mono()) == "1"


def test_json_format():
    # terms by descending degree, then by variables; coefficients as strings
    x, y, z = xvar(1, 1), yvar(2, 1), yvar(1, 2)
    p = Polynomial({mono((x, 2), (y, 1)): 3, mono((z, 1)): -2, ONE: -7,
                    mono((x, 1), (z, 1)): 1})
    assert poly_to_json(p) == {"terms": [
        {"c": "3", "m": [["x", 1, 1, 2], ["y", 2, 1, 1]]},
        {"c": "1", "m": [["x", 1, 1, 1], ["y", 1, 2, 1]]},
        {"c": "-2", "m": [["y", 1, 2, 1]]},
        {"c": "-7", "m": []}]}
    assert poly_to_json(Polynomial()) == {"terms": []}


def test_coefficient_of_and_split():
    b, x = bvar(1, 1), xvar(1, 1)

    def b_power(e):
        return {mono((b, e)): 1}

    p = Polynomial({mono((b, 2), (x, 1)): 1, mono((b, 1), (x, 1)): 2,
                    mono((x, 1)): 3})
    assert coefficient_of(p, mono((b, 2)), {"b"}).terms == P(x).terms
    assert coefficient_of(p, mono(), {"b"}).terms == (3 * P(x)).terms
    # the coefficients of the powers of b put p back together
    whole = {}
    for e in range(3):
        add_product(whole, b_power(e), coefficient_of(p, mono((b, e)), {"b"}).terms)
    assert whole == p.terms
