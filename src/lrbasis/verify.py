"""Checks that the constructed polynomials behave as claimed.

A polynomial in the x and y variables is a highest weight vector when it
is killed by every simple raising operator: the row operators sum
x[a,b] d/d(x[d,b]) + y[a,c] d/d(y[d,c]) over all columns for adjacent
rows a = d - 1, and the column operators sum v[i,b] d/d(v[i,d]) over all
rows within a single family for adjacent columns b = d - 1.
"""

import random
from dataclasses import dataclass, field

from .errors import NotHomogeneous, ZeroPolynomial
from .intlinalg import int_rank
from .hwv import delta_MT, delta_MT_eval, delta_TY
from .oracle import lr_coefficient
from .polyring import (Polynomial, leading_monomial, mono_from_dict, xvar,
                       yvar)
from .tableaux import enumerate_lr, monomial_bigE, monomial_e

# The largest |F| whose basis check ranks the exact coefficient matrix;
# beyond it check_basis ranks exact values at random points instead.
SYMBOLIC_LIMIT = 12


def _move_one_power(p, families, axis, src, dst):
    """Sum over the terms c*m of p and their variables v matching src of
    c * e_v * m * w / v, where w is v with index `axis` set to dst.

    A variable matches when its family is in `families` and its index
    `axis` (1 for the row, 2 for the column) equals src.
    """
    out = {}
    for m, c in p.terms.items():
        md = dict(m)
        for v, e in m:
            if v[0] not in families or v[axis] != src:
                continue
            w = (v[0], dst, v[2]) if axis == 1 else (v[0], v[1], dst)
            new = dict(md)
            new[v] = e - 1
            new[w] = new.get(w, 0) + 1
            m2 = mono_from_dict(new)
            s = out.get(m2, 0) + c * e
            if s:
                out[m2] = s
            elif m2 in out:
                del out[m2]
    return Polynomial(out)


def raising_operator_rows(p, a, d):
    """Row operator moving content from row d up to row a."""
    return _move_one_power(p, ("x", "y"), 1, d, a)


def raising_operator_cols(p, family, b, d):
    """Column operator within one family, moving column d into column b."""
    return _move_one_power(p, (family,), 2, d, b)


def check_hwv(p, triple):
    """Whether every simple raising operator on the triple's variables
    annihilates p: rows 2..F_1, x columns 2..D_1 and y columns 2..E_1.
    An operator past these finds no variable of the triple's vectors."""
    for d in range(2, triple.F.width + 1):
        if not raising_operator_rows(p, d - 1, d).is_zero():
            return False
    for d in range(2, triple.D.width + 1):
        if not raising_operator_cols(p, "x", d - 1, d).is_zero():
            return False
    for d in range(2, triple.E.width + 1):
        if not raising_operator_cols(p, "y", d - 1, d).is_zero():
            return False
    return True


@dataclass(frozen=True)
class WeightProfile:
    """Degree vectors: by row, by x column, and by y column."""

    row_degrees: tuple
    x_col_degrees: tuple
    y_col_degrees: tuple

    def matches(self, triple):
        return (self.row_degrees == triple.Ft.parts
                and self.x_col_degrees == triple.Dt.parts
                and self.y_col_degrees == triple.Et.parts)


def weight_profile(p):
    """The common multidegree of all terms; NotHomogeneous otherwise."""
    if p.is_zero():
        raise ZeroPolynomial("the zero polynomial has no weight profile")
    profile = None
    for m in p.terms:
        rows, xcols, ycols = {}, {}, {}
        for (fam, i, j), e in m:
            if fam == "x":
                rows[i] = rows.get(i, 0) + e
                xcols[j] = xcols.get(j, 0) + e
            elif fam == "y":
                rows[i] = rows.get(i, 0) + e
                ycols[j] = ycols.get(j, 0) + e
        # a monomial stores no zero exponent, so each vector ends nonzero
        cur = tuple(tuple(deg.get(i, 0) for i in range(1, max(deg, default=0) + 1))
                    for deg in (rows, xcols, ycols))
        if profile is None:
            profile = cur
        elif profile != cur:
            raise NotHomogeneous("terms have different multidegrees")
    return WeightProfile(*profile)


def check_leading_term(triple, T):
    """Leading y-monomial of the reduced coefficient is e(T), up to sign."""
    m, c = leading_monomial(delta_TY(triple, T))
    return m == monomial_e(T) and abs(c) == 1


@dataclass
class BasisReport:
    """Outcome of the spanning-family rank check for one triple."""

    lr_count: int
    oracle_count: int
    leading_distinct: bool
    rank: int
    mode: str
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = (self.lr_count == self.oracle_count == self.rank
                       and self.leading_distinct)


def random_point(rng, triple, lo=-10**6, hi=10**6):
    """Random nonzero integers in [lo, hi] for every x and y variable of
    the triple."""
    def draw():
        v = 0
        while v == 0:
            v = rng.randint(lo, hi)
        return v
    assignment = {}
    for i in range(1, triple.F.width + 1):
        for j in range(1, max(1, triple.D.width) + 1):
            assignment[xvar(i, j)] = draw()
        for j in range(1, max(1, triple.E.width) + 1):
            assignment[yvar(i, j)] = draw()
    return assignment


def check_basis(triple, seed=0, tableaux=None, polys=None):
    """Count, construct, and rank the tableau coefficients of a triple.

    For |F| <= SYMBOLIC_LIMIT the rank is that of the exact coefficient
    matrix of the constructed polynomials, whose columns grow with the
    number of monomials.  For larger |F| the polynomials are evaluated
    exactly at random integer points instead; the evaluation matrix has
    rank at most that of the coefficient matrix, which in turn is at most
    the tableau count, so equality of all three is still conclusive.

    A caller that already holds the enumerated tableaux, or their vectors
    delta_MT in the same order, passes them in so they are not rebuilt.
    """
    tabs = enumerate_lr(triple) if tableaux is None else tableaux
    oracle_count = lr_coefficient(triple)
    distinct = len({monomial_bigE(T, triple) for T in tabs}) == len(tabs)
    if not tabs:
        return BasisReport(0, oracle_count, True, 0, "empty")
    if triple.F.size <= SYMBOLIC_LIMIT:
        if polys is None:
            polys = [delta_MT(triple, T) for T in tabs]
        monos = sorted({m for p in polys for m in p.terms})
        matrix = [[p.terms.get(m, 0) for m in monos] for p in polys]
        mode = "symbolic"
    else:
        rng = random.Random(seed)
        points = [random_point(rng, triple) for _ in range(len(tabs) + 4)]
        matrix = [[delta_MT_eval(triple, T, pt) for pt in points] for T in tabs]
        mode = "evaluation"
    return BasisReport(len(tabs), oracle_count, distinct, int_rank(matrix),
                       mode)
