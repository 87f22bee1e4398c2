"""Checks that the constructed polynomials behave as claimed.

A polynomial in the x and y variables is a highest weight vector when it
is killed by every simple raising operator: the row operators sum
x[a,b] d/d(x[d,b]) + y[a,c] d/d(y[d,c]) over all columns for adjacent
rows a = d - 1, and the column operators sum v[i,b] d/d(v[i,d]) over all
rows within a single family for adjacent columns b = d - 1.
"""

import random
from collections import namedtuple

from .errors import NotHomogeneous, ZeroPolynomial
from .intlinalg import int_rank
from .hwv import delta_MT_values, delta_TY, leading_terms_TY
from .oracle import lr_coefficient
from .polyring import (Polynomial, leading_monomial, triple_layout, xvar,
                       yvar)
from .tableaux import enumerate_lr, monomial_M, monomial_bigE, monomial_e


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
    lay = p.layout
    # a term's degrees as one int, a slot of `room` bits for each row, x
    # column and y column in turn: no degree reaches len(variables) times
    # 2**(width - 1), so the degrees of a term's x and y parts add as ints
    xy = [v for v in lay.variables if v[0] in ("x", "y")]
    lengths = [max((v[1] for v in xy), default=0)]
    lengths += [max((v[2] for v in xy if v[0] == f), default=0) for f in "xy"]
    base = {"x": lengths[0], "y": lengths[0] + lengths[1]}
    room = lay.width + len(lay.variables).bit_length()
    step = [(1 << (v[1] - 1) * room) + (1 << (base[v[0]] + v[2] - 1) * room)
            if v[0] in base else 0 for v in lay.variables]
    profiles = {sum(parts) for parts in lay.read_parts(
        p.terms, lambda fields: sum(e * step[k] for k, e in fields))}
    if len(profiles) > 1:
        raise NotHomogeneous("terms have different multidegrees")
    profile = profiles.pop()
    vectors = []
    for n in lengths:
        vec = [profile >> i * room & (1 << room) - 1 for i in range(n)]
        profile >>= n * room
        while vec and not vec[-1]:
            vec.pop()
        vectors.append(tuple(vec))
    return WeightProfile(*vectors)


def check_leading_term(triple, tableaux, polys=None):
    """Whether the leading y-term of delta_TY(triple, T) is e(T) with
    coefficient +-1, for every tableau T, read with no det Yo expanded.

    Given the vectors delta_MT of the tableaux, in order, the terms are read
    off them: Yo is Z at x = I, so delta_TY(T) is +- the coefficient of
    x0 = prod_v x[v,v]^(D'_v) in delta_MT(T), its only x part with no
    off-diagonal variable.  Without them, one max-plus Laplace sum over det
    Yo gives the leading term of every tableau (hwv.leading_terms_TY); a
    tableau whose top cancelled there, so that the term below it is
    unknown, falls back to expanding its delta_TY.
    """
    if not tableaux:     # and D may not even fit inside F
        return True
    if polys is None:
        tops = leading_terms_TY(triple, [monomial_M(T).m for T in tableaux])
        leads = (top or leading_monomial(delta_TY(triple, T))
                 for T, top in zip(tableaux, tops))
    else:
        lay = triple_layout(triple)
        xbits = sum(lay.mask << s for v, s in lay.shift.items() if v[0] == "x")
        x0 = sum(d << lay.shift[xvar(v, v)]
                 for v, d in enumerate(triple.Dt.parts, 1))
        leads = (leading_monomial(Polynomial(
                     {m - x0: c for m, c in p.terms.items() if m & xbits == x0},
                     lay)) for p in polys)
    return all(m == monomial_e(T) and abs(c) == 1
               for T, (m, c) in zip(tableaux, leads))


class BasisReport(namedtuple("BasisReport",
                             "lr_count oracle_count leading_distinct rank mode")):
    """Outcome of the spanning-family rank check for one triple."""

    __slots__ = ()

    @property
    def passed(self):
        return (self.lr_count == self.oracle_count == self.rank
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


def _coefficient_rank(polys, monos):
    """Rank of the coefficients of the polynomials at the given monomials."""
    return int_rank([[p.terms.get(m, 0) for m in monos] for p in polys])


def check_basis(triple, seed=0, tableaux=None, polys=None):
    """Count, construct, and rank the tableau coefficients of a triple.

    Given the vectors delta_MT of the tableaux, in order, the rank is that
    of their exact coefficient matrix (mode "symbolic").  Its columns at
    each vector's largest packed monomial are ranked first: rank c there
    is the full rank, as it is whenever those c monomials are distinct
    (the c x c minor is then triangular in their order), and only when it
    falls short (a repeated or zero vector, say) is every column ranked.
    Without the vectors no polynomial is built: one Laplace sum over all c
    tableaux gives their exact values at c + 4 integer points drawn from
    `seed`, and the rank is that of this c x (c + 4) matrix (mode
    "evaluation"), at most the rank of the coefficient matrix, which is at
    most c; so equality of rank, count and oracle is conclusive either
    way.  A caller that holds the enumerated tableaux passes them in so
    they are not rebuilt.
    """
    tabs = enumerate_lr(triple) if tableaux is None else tableaux
    oracle_count = lr_coefficient(triple)
    distinct = len({monomial_bigE(T, triple) for T in tabs}) == len(tabs)
    if not tabs:
        return BasisReport(0, oracle_count, True, 0, "empty")
    if polys is not None:
        rank = _coefficient_rank(polys, {max(p.terms, default=0) for p in polys})
        if rank < len(polys):
            rank = _coefficient_rank(polys, {m for p in polys for m in p.terms})
        mode = "symbolic"
    else:
        rng = random.Random(seed)
        points = [random_point(rng, triple) for _ in range(len(tabs) + 4)]
        rank = int_rank(delta_MT_values(triple, tabs, points))
        mode = "evaluation"
    return BasisReport(len(tabs), oracle_count, distinct, rank, mode)
