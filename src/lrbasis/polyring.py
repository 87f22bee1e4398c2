"""Sparse multivariate polynomials over the integers.

Variables are tuples (family, i, j) with family one of "x", "y", "a", "b"
("a"/"b" are the row- and column-coefficient families) plus "z" for the
auxiliary symmetric-function variables.  A monomial is a tuple of
(variable, exponent) pairs sorted by the global variable order
x < y < a < b < z, then (i, j) lexicographically.  Polynomials are dicts
mapping monomials to nonzero integer coefficients, summed in place by
add_product; a Polynomial wraps one and multiplies, with no sum or
comparison of its own.
"""

from .errors import NonSquare, UnorderedVariable, ZeroPolynomial

_FAMILY_RANK = {"x": 0, "y": 1, "a": 2, "b": 3, "z": 4}

ONE = ()  # the empty monomial


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
    """Canonical monomial from (variable, exponent) pairs."""
    merged = {}
    for v, e in pairs:
        merged[v] = merged.get(v, 0) + e
    return mono_from_dict(merged)


def mono_from_dict(d):
    return tuple(sorted(((v, e) for v, e in d.items() if e),
                        key=lambda p: var_key(p[0])))


def mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    merged = dict(m1)
    for v, e in m2:
        merged[v] = merged.get(v, 0) + e
    return mono_from_dict(merged)


def add_product(acc, p, q, c=1):
    """acc + c * p * q on term dicts with nonzero coefficients, summed into
    acc in place and returned; None is zero.  The one product loop of the
    package."""
    if acc is None:
        acc = {}
    for m1, c1 in p.items():
        c1 *= c
        for m2, c2 in q.items():
            m = mono_mul(m1, m2)
            v = acc.get(m, 0) + c1 * c2
            if v:
                acc[m] = v
            else:
                del acc[m]
    return acc


def mono_degree(m):
    return sum(e for _, e in m)


def mono_restrict(m, families):
    """Sub-monomial of m supported on the given variable families."""
    return tuple((v, e) for v, e in m if v[0] in families)


class Polynomial:
    """Integer polynomial stored as {monomial: coefficient}: variables,
    products by a polynomial or an integer, and the zero test."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    @classmethod
    def variable(cls, v):
        return cls({mono((v, 1)): 1})

    def is_zero(self):
        return not self.terms

    def __mul__(self, other):
        if isinstance(other, int):
            return Polynomial({m: c * other for m, c in self.terms.items()})
        return Polynomial(add_product(None, self.terms, other.terms))

    __rmul__ = __mul__


def coefficient_of(p, m, families):
    """Terms of p whose sub-monomial in the given families equals m.

    Returns the cofactor polynomial, i.e. those terms divided by m.
    """
    m = tuple(m)
    out = {}
    for mm, c in p.terms.items():
        if mono_restrict(mm, families) == m:
            out[tuple((v, e) for v, e in mm if v[0] not in families)] = c
    return Polynomial(out)


# ---------------------------------------------------------------------------
# The y-monomial order used for leading terms.
#
# Single variables are ordered y[1,1] > y[2,1] > ... > y[n,1] > y[1,2] > ...
# (columns first, then rows).  Monomials are compared by total degree first;
# ties are broken by writing each monomial as its weakly decreasing sequence
# of variables and comparing those sequences position by position, the
# larger variable winning.
# ---------------------------------------------------------------------------

def y_order_key(m):
    """Key of a y-monomial under which the larger monomial has the larger key:
    its degree, then its variables as a weakly decreasing sequence."""
    seq = []
    for v, e in m:
        if v[0] != "y":
            raise UnorderedVariable(f"{v} is not a y variable")
        seq += [(-v[2], -v[1])] * e
    seq.sort(reverse=True)
    return len(seq), seq


def leading_monomial(p):
    """(monomial, coefficient) maximal under the y order among terms of p."""
    if p.is_zero():
        raise ZeroPolynomial("the zero polynomial has no leading monomial")
    best = max(p.terms, key=y_order_key)
    return best, p.terms[best]


# ---------------------------------------------------------------------------
# Determinants.
# ---------------------------------------------------------------------------

def determinant(matrix):
    """Determinant of a square matrix of polynomials.

    Expands along the columns in the order given, with memoization on the
    set of unused rows.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise NonSquare("matrix is not square")
    rows = [[e.terms for e in row] for row in matrix]
    memo = {}

    def minor(col, mask):
        if col == n:
            return {ONE: 1}
        cached = memo.get(mask)
        if cached is not None:
            return cached
        acc = {}
        pos = 0
        for r in range(n):
            bit = 1 << r
            if not mask & bit:
                continue
            pos += 1
            if rows[r][col]:
                sub = minor(col + 1, mask ^ bit)
                if sub:
                    add_product(acc, rows[r][col], sub, 1 if pos % 2 else -1)
        memo[mask] = acc
        return acc

    return Polynomial(minor(0, (1 << n) - 1))


# ---------------------------------------------------------------------------
# Serialization.  Text looks like "+1*x[1,1]*y[2,1] -1*x[2,1]*y[1,1]";
# JSON is {"terms": [{"c": "<int>", "m": [["y", 5, 3, 1], ...]}, ...]}.
# ---------------------------------------------------------------------------

def _term_sort_key(m):
    return (mono_degree(m), tuple((-r, -i, -j, e) for (f, i, j), e in m
                                  for r in (_FAMILY_RANK[f],)))


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
    parts = []
    for m in sorted(p.terms, key=_term_sort_key, reverse=True):
        c = p.terms[m]
        parts.append(f"{'+' if c >= 0 else '-'}{abs(c)}*{mono_text(m)}"
                     if m else f"{'+' if c >= 0 else '-'}{abs(c)}")
    return " ".join(parts)


def poly_to_json(p):
    terms = []
    for m in sorted(p.terms, key=_term_sort_key, reverse=True):
        terms.append({"c": str(p.terms[m]),
                      "m": [[v[0], v[1], v[2], e] for v, e in m]})
    return {"terms": terms}

