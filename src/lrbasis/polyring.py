"""Sparse multivariate polynomials over the integers, with packed monomials.

Variables are tuples (family, i, j) with family one of "x", "y", "a", "b"
("a"/"b" are the row- and column-coefficient families) plus "z" for the
auxiliary symmetric-function variables, ordered x < y < a < b < z, then
(i, j) lexicographically.

A Layout lists the variables of one computation in that order and gives
each an exponent field of the same width: a monomial is one int holding
the exponent of the k-th variable in bits k * width .. (k + 1) * width - 1.
A product of monomials is then the sum of their ints.  The top bit of
each field is a guard that no exponent reaches; a product or operator that
sets one raises ExponentOverflow.  Polynomials are dicts mapping packed
monomials to nonzero integer coefficients, summed in place by
Layout.add_product.  A Polynomial owns its dict, copied only to drop a zero,
and nothing sums into it after; it multiplies, with no sum or comparison.

Monomials take the tuple form, the (variable, exponent) pairs in variable
order, only at the edges: leading monomials, the tableau monomials e(T) and
E(T), and output.  Text and JSON output split each monomial into its
family parts themselves, in one pass over the terms, take the tuple form
once for each distinct part, sort the terms on one int key each, and write
the text directly: poly_to_json returns the JSON text, not a dict.
"""

import functools
from operator import or_

from .errors import (ExponentOverflow, NonSquare, UnorderedVariable,
                     ZeroPolynomial)

_FAMILY_RANK = {"x": 0, "y": 1, "a": 2, "b": 3, "z": 4}

ONE = 0  # the empty monomial, packed


def var_key(v):
    return (_FAMILY_RANK[v[0]], v[1], v[2])


def xvar(i, j):
    return ("x", i, j)


def yvar(i, j):
    return ("y", i, j)


def avar(i, j):
    return ("a", i, j)


def bvar(i, j):
    return ("b", i, j)


def zvar(i):
    return ("z", i, 1)


def mono(*pairs):
    """Canonical tuple-form monomial from (variable, exponent) pairs."""
    merged = {}
    for v, e in pairs:
        merged[v] = merged.get(v, 0) + e
    return tuple(sorted(((v, e) for v, e in merged.items() if e),
                        key=lambda p: var_key(p[0])))


class Layout:
    """The exponent fields of a fixed set of variables.

    Each field is width bits wide, one more than `degree` needs; shift maps
    a variable to the offset of its field and guard has the top bit of every
    field set.  The writer, `_sorted_terms`, groups each term by family itself.
    """

    __slots__ = ("variables", "width", "mask", "shift", "guard")

    def __init__(self, variables, degree):
        self.variables = tuple(sorted(set(variables), key=var_key))
        self.width = w = max(degree, 1).bit_length() + 1
        self.mask = (1 << w) - 1
        self.shift = {v: k * w for k, v in enumerate(self.variables)}
        self.guard = sum(1 << (s + w - 1) for s in self.shift.values())

    def __eq__(self, other):
        return (isinstance(other, Layout) and self.width == other.width
                and self.variables == other.variables)

    def fields(self, m):
        """(field index, exponent) of each variable of m, in variable order."""
        w = self.width
        out = []
        while m:    # the top field first: no mask needed
            k = (m.bit_length() - 1) // w
            e = m >> k * w
            out.append((k, e))
            m -= e << k * w
        out.reverse()
        return out

    def unpack(self, m):
        """The tuple form of a packed monomial."""
        return tuple((self.variables[k], e) for k, e in self.fields(m))

    def check(self, terms):
        """terms, unless one of its monomials sets a guard bit."""
        if functools.reduce(or_, terms, 0) & self.guard:
            over = next(m for m in terms if m & self.guard)
            v, e = next((v, e) for v, e in self.unpack(over)
                        if e >> (self.width - 1))
            raise ExponentOverflow(
                f"the exponent of {v} reached {e}, past the "
                f"{self.width}-bit field that holds at most "
                f"{self.mask >> 1}")
        return terms

    def add_product(self, acc, p, q, c=1):
        """acc + c * p * q on term dicts with nonzero coefficients, summed
        into acc in place and returned; None is zero.  The one product
        loop of the package.

        No field of p or q has its guard bit set, so the sum of their ORs
        sets a guard bit only where some product could; only then are the
        products checked one by one.
        """
        if (functools.reduce(or_, p, 0) + functools.reduce(or_, q, 0)) & self.guard:
            self.check([m1 + m2 for m1 in p for m2 in q])
        if acc is None:
            acc = {}
        for m1, c1 in p.items():
            c1 *= c
            for m2, c2 in q.items():
                m = m1 + m2
                v = acc.get(m, 0) + c1 * c2
                if v:
                    acc[m] = v
                else:
                    del acc[m]
        return acc


@functools.lru_cache(maxsize=128)
def triple_layout(triple):
    """The layout of a triple's polynomials: x[1..F_1, 1..D_1],
    y[1..F_1, 1..E_1], a[1..t, 1..r] and b[1..t, 1..s].  Each of the |F|
    rows of its matrix Z gives a term one entry, so no exponent passes |F|."""
    rows = range(1, triple.F.width + 1)
    supers = range(1, triple.t + 1)
    return Layout([xvar(i, j) for i in rows for j in range(1, triple.D.width + 1)]
                  + [yvar(i, j) for i in rows for j in range(1, triple.E.width + 1)]
                  + [avar(j, k) for j in supers for k in range(1, triple.r + 1)]
                  + [bvar(j, k) for j in supers for k in range(1, triple.s + 1)],
                  triple.F.size)


def mono_restrict(m, families):
    """Sub-monomial of a tuple-form m supported on the given variable families."""
    return tuple((v, e) for v, e in m if v[0] in families)


class Polynomial:
    """Integer polynomial stored as {packed monomial: coefficient} with its
    layout: variables, products by a polynomial or an integer, and the zero
    test.  It keeps the dict it is given, copied only to drop a zero
    coefficient; nothing changes the dict after, so two may share it."""

    __slots__ = ("terms", "layout")

    def __init__(self, terms, layout):
        self.terms = (terms if all(terms.values())
                      else {m: c for m, c in terms.items() if c})
        self.layout = layout

    @classmethod
    def variable(cls, v, layout):
        return cls({1 << layout.shift[v]: 1}, layout)

    def is_zero(self):
        return not self.terms

    def __mul__(self, other):
        if isinstance(other, int):
            return Polynomial({m: c * other for m, c in self.terms.items()}
                              if other else {}, self.layout)
        if other.layout != self.layout:
            raise ValueError("the polynomials have different layouts")
        return Polynomial(self.layout.add_product(None, self.terms, other.terms),
                          self.layout)

    __rmul__ = __mul__


def coefficient_of(p, m, families):
    """Terms of p whose sub-monomial in the given families equals the
    tuple-form m.

    Returns the cofactor polynomial, i.e. those terms divided by m.
    """
    m = tuple(m)
    lay = p.layout
    inside = sum(lay.mask << s for v, s in lay.shift.items() if v[0] in families)
    return Polynomial({mm & ~inside: c for mm, c in p.terms.items()
                       if mono_restrict(lay.unpack(mm), families) == m}, lay)


# ---------------------------------------------------------------------------
# The y-monomial order used for leading terms.
#
# Single variables are ordered y[1,1] > y[2,1] > ... > y[n,1] > y[1,2] > ...
# (columns first, then rows).  Monomials are compared by total degree first;
# ties are broken by writing each monomial as its weakly decreasing sequence
# of variables and comparing those sequences position by position, the
# larger variable winning.
# ---------------------------------------------------------------------------

def leading_monomial(p):
    """(tuple-form monomial, coefficient) maximal under the y order among
    terms of p.  The key is the degree, then the exponents of y[1,1],
    y[2,1], ..., y[1,2], ...: the same order, read off the packed ints."""
    if p.is_zero():
        raise ZeroPolynomial("the zero polynomial has no leading monomial")
    lay, mask = p.layout, p.layout.mask
    shifts = [s for _, _, s in sorted((v[2], v[1], s) for v, s in lay.shift.items()
                                      if v[0] == "y")]
    other = functools.reduce(or_, p.terms, 0) & ~sum(mask << s for s in shifts)
    if other:
        raise UnorderedVariable(f"{lay.unpack(other)[0][0]} is not a y variable")

    def key(m):
        exponents = [m >> s & mask for s in shifts]
        return sum(exponents), exponents

    best = max(p.terms, key=key)
    return lay.unpack(best), p.terms[best]


# ---------------------------------------------------------------------------
# Determinants.  Every minor the package expands is column-initial.
# ---------------------------------------------------------------------------

def column_minors(entry, accumulate, one):
    """The function R -> det M[R, 1..|R|] on row tuples R, over the ring of
    `one`.  It expands along the last column, into minors on subtuples of
    R that it caches, so each is computed once while the function is kept.

    entry(u, v) is M[u, v]; accumulate(acc, p, q, c) returns
    acc + c * p * q, with None for a zero acc.  A falsy entry or sub-minor
    is skipped as zero, and a minor with no term left comes back falsy:
    None, or an empty sum.  A ring whose zero is truthy, such as lists of
    integers, is summed in full.
    """
    @functools.cache
    def minor(rows):
        if not rows:
            return one
        col = len(rows)
        acc = None
        for i, u in enumerate(rows):
            e = entry(u, col)
            if e:
                sub = minor(rows[:i] + rows[i + 1:])
                if sub:
                    acc = accumulate(acc, e, sub, 1 if (col - i) % 2 else -1)
        return acc

    return minor


def determinant(matrix):
    """Determinant of a square matrix of polynomials of one layout."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise NonSquare("matrix is not square")
    layout = matrix[0][0].layout if n else Layout((), 0)
    minor = column_minors(lambda u, v: matrix[u][v - 1].terms,
                          layout.add_product, {ONE: 1})
    return Polynomial(minor(tuple(range(n))) or {}, layout)


# ---------------------------------------------------------------------------
# Serialization.  Text looks like "+1*x[1,1]*y[2,1] -1*x[2,1]*y[1,1]";
# JSON is {"terms": [{"c": "<int>", "m": [["y", 5, 3, 1], ...]}, ...]},
# written as the text json.dumps gives it with no dict or list built.
# Terms come by descending degree; within a degree, the term whose first
# variable comes first in the variable order, then with the larger
# exponent, and so on.  That is one int per term: its degree above its
# exponents with the fields in reverse, the first variable's on top.
# ---------------------------------------------------------------------------

def _sorted_terms(p, show):
    """(key, coefficient, shown) for each term of p in output order: shown
    lists show(pairs) for the tuple-form pairs of each nonzero family part
    of its monomial, in family order.  The terms of a polynomial share such
    parts, as products of the same x minors, so each distinct part is read
    and shown once."""
    lay = p.layout
    w, variables = lay.width, lay.variables
    top = len(variables) * w
    families = {}    # family: all bits of its fields, in family order
    for v, s in lay.shift.items():
        families[v[0]] = families.get(v[0], 0) | lay.mask << s

    def read(part):
        # field k moves to (n - 1 - k) * w, the first variable's on top; a
        # term's parts hold different variables, so their keys add with no
        # carry, and their degrees add above every field
        fields = lay.fields(part)
        key = sum(e for _, e in fields) << top
        for k, e in fields:
            key += e << top - (k + 1) * w
        return key, show(tuple((variables[k], e) for k, e in fields))

    memo, out = {}, []
    for m, c in p.terms.items():
        key, shown = 0, []
        for bits in families.values():
            part = m & bits
            if part:
                got = memo.get(part)
                if got is None:
                    got = memo[part] = read(part)
                key += got[0]
                shown.append(got[1])
        out.append((key, c, shown))
    out.sort(reverse=True)    # the keys differ, so c and shown never compare
    return out


def mono_text(m):
    if not m:
        return "1"
    bits = []
    for (f, i, j), e in m:
        s = f"{f}[{i},{j}]" if f != "z" else f"z[{i}]"
        if e != 1:
            s += f"^{e}"
        bits.append(s)
    return "*".join(bits)


def poly_text(p):
    if p.is_zero():
        return "0"
    return " ".join(f"{'+' if c >= 0 else '-'}{abs(c)}"
                    + "".join("*" + text for text in texts)
                    for _, c, texts in _sorted_terms(p, mono_text))


def poly_to_json(p):
    """The JSON text of p, byte for byte as json.dumps writes the object
    above."""
    def show(pairs):
        return ", ".join('["%s", %d, %d, %d]' % (v[0], v[1], v[2], e)
                         for v, e in pairs)

    return '{"terms": [%s]}' % ", ".join(
        '{"c": "%d", "m": [%s]}' % (c, ", ".join(parts))
        for _, c, parts in _sorted_terms(p, show))
