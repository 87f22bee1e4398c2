import random

import pytest

from conftest import determinant_naive, evaluate
from lrbasis.errors import NonSquare, UnorderedVariable, ZeroPolynomial
from lrbasis.polyring import (Polynomial, coefficient_of, determinant,
                              leading_monomial, mono, mono_text, poly_text,
                              poly_to_json, xvar, y_order_key, yvar)


def P(v):
    return Polynomial.variable(v)


def rand_poly(rng, nvars=4, nterms=5, maxdeg=3):
    p = Polynomial()
    vars_ = [xvar(i, 1) for i in range(1, nvars + 1)]
    for _ in range(nterms):
        m = mono(*((rng.choice(vars_), 1) for _ in range(rng.randint(0, maxdeg))))
        p = p + Polynomial({m: rng.randint(-5, 5)})
    return p


def test_arithmetic_basics():
    x, y = P(xvar(1, 1)), P(yvar(2, 1))
    assert poly_text(x * y - y * x) == "0"
    assert (x + y) * (x - y) == x * x - y * y
    assert (x - x).is_zero()
    assert 3 * x == x + x + x


def test_ring_axioms_randomized():
    rng = random.Random(0)
    for _ in range(50):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a and a * b == b * a


def test_evaluate():
    x, y = P(xvar(1, 1)), P(yvar(2, 1))
    p = x * x - 2 * y
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
    assert leading_monomial(P(yvar(1, 2)) + P(yvar(2, 1)) - P(yvar(1, 1))) == (a, -1)


def test_y_order_degree_dominates():
    big = mono((yvar(5, 3), 2))
    small = mono((yvar(1, 1), 1))
    assert y_order_key(big) > y_order_key(small)
    assert leading_monomial(P(yvar(1, 1)) + P(yvar(5, 3)) * P(yvar(5, 3)))[0] == big


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
        leading_monomial(P(xvar(1, 1)) + P(yvar(1, 1)))


def test_leading_monomial_errors():
    with pytest.raises(ZeroPolynomial):
        leading_monomial(Polynomial())


def test_determinant_against_naive():
    rng = random.Random(2)
    for n in range(0, 5):
        for _ in range(6):
            m = [[Polynomial.const(rng.randint(-3, 3))
                  + Polynomial({mono((xvar(i + 1, j + 1), 1)):
                                rng.randint(-2, 2)})
                  for j in range(n)] for i in range(n)]
            assert determinant(m) == determinant_naive(m)


def test_determinant_nonsquare():
    with pytest.raises(NonSquare):
        determinant([[Polynomial.const(1), Polynomial.const(2)]])


def test_text_format_canonical():
    x, y = P(xvar(1, 1)), P(yvar(2, 1))
    p = x * P(yvar(2, 1)) * -1 + P(xvar(2, 1)) * P(yvar(1, 1))
    text = poly_text(p)
    assert "*" in text and text.count(" ") == 1
    assert poly_text(Polynomial()) == "0"
    assert mono_text(mono()) == "1"


def test_json_format():
    # terms by descending degree, then by variables; coefficients as strings
    x, y, z = P(xvar(1, 1)), P(yvar(2, 1)), P(yvar(1, 2))
    p = 3 * x * x * y - 2 * z + Polynomial.const(-7) + x * z
    assert poly_to_json(p) == {"terms": [
        {"c": "3", "m": [["x", 1, 1, 2], ["y", 2, 1, 1]]},
        {"c": "1", "m": [["x", 1, 1, 1], ["y", 1, 2, 1]]},
        {"c": "-2", "m": [["y", 1, 2, 1]]},
        {"c": "-7", "m": []}]}
    assert poly_to_json(Polynomial()) == {"terms": []}


def test_coefficient_of_and_split():
    from lrbasis.polyring import bvar
    b = P(bvar(1, 1))
    x = P(xvar(1, 1))
    p = b * b * x + b * x * 2 + x * 3

    def b_power(e):
        return Polynomial({mono((bvar(1, 1), e)): 1})

    assert coefficient_of(p, mono((bvar(1, 1), 2)), {"b"}) == x
    assert coefficient_of(p, mono(), {"b"}) == 3 * x
    # the coefficients of the powers of b put p back together
    assert sum((b_power(e) * coefficient_of(p, mono((bvar(1, 1), e)), {"b"})
                for e in range(3)), Polynomial()) == p
