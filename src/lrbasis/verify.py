"""Checks that the constructed vectors behave as claimed.

A polynomial in the x and y variables is a highest weight vector when it
is killed by every simple raising operator: the row operators sum
x[a,b] d/d(x[d,b]) + y[a,c] d/d(y[d,c]) over all columns for adjacent
rows a = d - 1, and the column operators sum v[i,b] d/d(v[i,d]) over all
rows within a single family for adjacent columns b = d - 1.  They are the
derivatives of x, y -> n x u_x, n y u_y for n lower and u upper
unitriangular, which check_basis applies at integer points instead.
"""

import random
from collections import namedtuple
from fractions import Fraction
from math import prod

from .errors import NotHomogeneous, ZeroPolynomial
from .intlinalg import int_rank
from .hwv import delta_MT_values, delta_TY, delta_TY_values_and_leads
from .oracle import lr_coefficient
from .polyring import Polynomial, leading_monomial, xvar, yvar
from .tableaux import enumerate_lr, monomial_M, monomial_bigE, monomial_e

BASE_POINTS = 2     # k: the points whose translates are checked
SPAN = 10**6        # coordinates: the 2 * SPAN nonzero integers in [-SPAN, SPAN]


def _move_one_power(p, families, axis, src, dst):
    """Sum over the terms c*m of p and their variables v matching src of
    c * e_v * m * w / v, where w is v with index `axis` set to dst.

    A variable matches when its family is in `families` and its index
    `axis` (1 for the row, 2 for the column) equals src; w must be in the
    layout of p.  On packed monomials m * w / v is m - (1 << v's shift) +
    (1 << w's shift), and e_v is the field of v in m.
    """
    lay = p.layout
    w = lay.width
    # step[s] turns one power of the matching v at offset s into one of w
    step = {s: (1 << lay.shift[(v[0], dst, v[2]) if axis == 1 else (v[0], v[1], dst)])
            - (1 << s)
            for v, s in lay.shift.items() if v[0] in families and v[axis] == src}
    sources = sum(lay.mask << s for s in step)
    out = {}
    for m, c in p.terms.items():
        hit = m & sources
        while hit:     # the matching fields of m, the top one first
            s = (hit.bit_length() - 1) // w * w
            e = hit >> s
            hit -= e << s
            m2 = m + step[s]
            total = out.get(m2, 0) + c * e
            if total:
                out[m2] = total
            else:
                del out[m2]
    return Polynomial(lay.check(out), lay)


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
    return (all(raising_operator_rows(p, d - 1, d).is_zero()
                for d in range(2, triple.F.width + 1))
            and all(raising_operator_cols(p, f, d - 1, d).is_zero()
                    for f, width in (("x", triple.D.width), ("y", triple.E.width))
                    for d in range(2, width + 1)))


class WeightProfile(namedtuple("WeightProfile",
                               "row_degrees x_col_degrees y_col_degrees")):
    """Degree vectors: by row, by x column, and by y column."""

    __slots__ = ()

    def matches(self, triple):
        return (self.row_degrees == triple.Ft.parts
                and self.x_col_degrees == triple.Dt.parts
                and self.y_col_degrees == triple.Et.parts)


def weight_profile(p):
    """The common multidegree of all terms; NotHomogeneous otherwise."""
    if p.is_zero():
        raise ZeroPolynomial("the zero polynomial has no weight profile")
    profiles = set()
    for m in p.terms:
        degrees = {"r": {}, "x": {}, "y": {}}    # by row, x and y column
        for (family, i, j), e in p.layout.unpack(m):
            if family in degrees:
                for axis, k in (("r", i), (family, j)):
                    degrees[axis][k] = degrees[axis].get(k, 0) + e
        profiles.add(tuple(tuple(d.get(k, 0) for k in range(1, max(d, default=0) + 1))
                           for d in degrees.values()))
    if len(profiles) > 1:
        raise NotHomogeneous("terms have different multidegrees")
    return WeightProfile(*profiles.pop())


def check_leading_term(triple, tableaux, tops):
    """Whether the leading y-term of delta_TY(triple, T) is e(T) with
    coefficient +-1, for every tableau T, given tops, the leading terms
    of those delta_TY that check_basis reports, in the same order.

    A tableau whose top cancelled in check_basis's max-plus sum, so that
    the term below it is unknown, falls back to expanding its delta_TY.
    """
    leads = (top or leading_monomial(delta_TY(triple, T))
             for T, top in zip(tableaux, tops))
    return all(m == monomial_e(T) and abs(c) == 1
               for T, (m, c) in zip(tableaux, leads))


class BasisReport(namedtuple("BasisReport", "lr_count oracle_count "
                             "leading_distinct rank hwv weights bound tops")):
    """Outcome of check_basis; hwv, weights and bound None unless asked;
    tops the leading terms of the vectors' delta_TY, as
    hwv.delta_TY_values_and_leads gives them, which check_leading_term
    judges.  passed is the rank verdict: count, oracle and rank agree,
    and the tableaux's E monomials are distinct."""

    __slots__ = ()

    @property
    def passed(self):
        return (self.lr_count == self.oracle_count == self.rank
                and self.leading_distinct)


def _draw(rng, lo, hi):
    """A random nonzero integer in [lo, hi], as rng.randint(lo, hi) draws
    until one is nonzero: lo + r for the first r of k random bits, k the
    bit length of the range's size n, with r < n and lo + r != 0.
    ValueError, before any draw, when [lo, hi] holds no nonzero integer."""
    if lo > hi or lo == hi == 0:
        raise ValueError(f"[{lo}, {hi}] holds no nonzero integer")
    n = hi - lo + 1
    k, r = n.bit_length(), -lo
    while r >= n or r == -lo:
        r = rng.getrandbits(k)
    return lo + r


def random_point(rng, triple, lo=-SPAN, hi=SPAN, families=(xvar, yvar)):
    """Random nonzero integers in [lo, hi] for every variable of the
    triple in `families`, row by row, x columns before y columns."""
    widths = {xvar: triple.D.width, yvar: triple.E.width}
    return {var(i, j): _draw(rng, lo, hi)
            for i in range(1, triple.F.width + 1)
            for var in families for j in range(1, widths[var] + 1)}


def _translates(rng, triple, point):
    """A unipotent translate (n x u_x, n y u_y) of an integer point, a
    torus translate (t x s_x, t y s_y), and the torus character
    prod t_u^F'_u * prod s_x,v^D'_v * prod s_y,w^E'_w: n lower, u_x and
    u_y upper unitriangular, t, s_x and s_y diagonal, their free entries
    drawn as random_point draws, n, u_x, u_y, t, s_x, s_y in turn."""
    rows = range(1, triple.F.width + 1)
    cols = [(f, v) for f, width in (("x", triple.D.width), ("y", triple.E.width))
            for v in range(1, width + 1)]
    n = {(i, a): _draw(rng, -SPAN, SPAN) for i in rows for a in rows if a < i}
    u = {(b, c): _draw(rng, -SPAN, SPAN) for c in cols for b in cols
         if b[0] == c[0] and b[1] < c[1]}
    t = {i: _draw(rng, -SPAN, SPAN) for i in rows}
    s = {c: _draw(rng, -SPAN, SPAN) for c in cols}
    # n and u hold the entries below and above the diagonal, whose 1 is
    # the term outside each sum
    nx = {(i, c): point[c[0], i, c[1]]
          + sum(n[i, a] * point[c[0], a, c[1]] for a in range(1, i))
          for i in rows for c in cols}
    unipotent = {(f, i, v): nx[i, (f, v)]
                 + sum(nx[i, (f, b)] * u[(f, b), (f, v)] for b in range(1, v))
                 for i in rows for f, v in cols}
    torus = {(f, i, v): t[i] * point[f, i, v] * s[f, v] for i in rows for f, v in cols}
    chi = prod(t[i] ** e for i, e in zip(rows, triple.Ft.parts))
    chi *= prod(s[c] ** e for c, e in zip(cols, triple.Dt.parts + triple.Et.parts))
    return unipotent, torus, chi


def check_basis(triple, seed=0, tableaux=None, group=False):
    """Count, construct, and rank the tableau coefficients of a triple;
    with group, also test that they are highest weight vectors of weight
    (F', D', E').

    At x = I each x block's minor is nonzero only on local rows 1..D_j, so
    delta_MT(T) at (I, y) is +-delta_TY(T) at y, and a linear relation
    among the delta_MT is one among the delta_TY.  One Laplace sum over
    det Yo, for all c tableaux on their grids M(T), gives the exact values
    of the delta_TY at c + 4 y points drawn from `seed`, and their leading
    terms, the report's tops, which check_leading_term judges.  The rank
    is that of this c x (c + 4) matrix, at most the rank of the
    coefficient matrix of the delta_MT, which is at most c, so equality
    of rank, count and oracle is conclusive.  With group, BASE_POINTS
    (x, y) points are drawn next, and a unipotent and a torus translate
    of each; one Laplace sum over det Z gives the values there: each
    vector must keep its value at the first translate, take chi times it
    at the second, and be nonzero at a base point.  Each identity has
    degree 3|F| in the drawn entries, so a vector that fails it passes at
    one point with probability at most 3|F| / (2 SPAN) (Schwartz-Zippel);
    `bound` is that for all the base points.
    """
    tabs = enumerate_lr(triple) if tableaux is None else tableaux
    grids = [monomial_M(T).m for T in tabs]
    rng = random.Random(seed)
    points = [random_point(rng, triple, families=(yvar,))
              for _ in range(len(tabs) + 4)]
    values, tops = delta_TY_values_and_leads(triple, grids, points)
    report = BasisReport(len(tabs), lr_coefficient(triple),
                         len({monomial_bigE(T, triple) for T in tabs}) == len(tabs),
                         int_rank(values), None, None, None, tops)
    if not group:
        return report
    k = BASE_POINTS
    points, chis = [random_point(rng, triple) for _ in range(k)], []
    for base in points[:k]:
        unipotent, torus, chi = _translates(rng, triple, base)
        points += [unipotent, torus]
        chis.append(chi)
    values = delta_MT_values(triple, grids, points)
    return report._replace(
        hwv=all(row[k + 2 * i] == row[i] for row in values for i in range(k)),
        weights=all(any(row[:k]) and all(row[k + 2 * i + 1] == chi * row[i]
                                         for i, chi in enumerate(chis))
                    for row in values),
        bound=float(Fraction(3 * triple.F.size, 2 * SPAN) ** k))
