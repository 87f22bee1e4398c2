"""Block determinants and their distinguished coefficients.

The central object is the square block matrix Z = [X | Y] attached to a
triple (D, E, F): it has one superrow of height F_j per row of F; the left
supercolumns have widths D_k and entries a[j,k] * x[u,v] (the upper-left
F_j-by-D_k corner of the x matrix), the right supercolumns have widths E_k
and entries b[j,k] * y[u,v].  Its determinant is the master polynomial;
extracting the coefficient of a b-monomial given by a tableau's exponent
grid yields one member of the spanning family.

The companion matrix Yo keeps only the rows of each superrow below the
diagonal x block: superrow j has height F_j - D_j and entries
b[j,k] * y[D_j + u, v].  The coefficient of the same b-monomial in det Yo
is the pure-y part used for leading-term arguments.

Neither determinant is expanded in the b variables.  A tableau's
coefficient is a signed sum of products of column-initial minors, one
per column block; the rows each block takes and the signs form a Laplace
plan, built once per (triple, grid) and cached.  The plan is summed in
two rings: over polynomial minors for the coefficient itself (delta_MT,
delta_TY), and over integer minors at a point for its exact value there
(delta_MT_eval).
"""

import functools
from dataclasses import dataclass
from itertools import combinations

from .errors import DimensionMismatch, ZeroCoefficient
from .intlinalg import bareiss_det
from .polyring import (ONE, Polynomial, avar, bvar, determinant, mono_mul,
                       xvar, yvar)
from .tableaux import monomial_M


@dataclass
class SymbolicMatrix:
    """A matrix of polynomials with its block structure remembered."""

    rows: list
    row_blocks: tuple
    col_blocks: tuple

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0


def _coeff(spec, make_var, j, k, nrows, ncols):
    """Scalar in front of block (j, k) under a coefficient specification.

    spec is "J" (identity pattern), "symbolic" (a fresh variable per
    block), or an integer matrix with nrows x ncols entries.
    """
    if spec == "J":
        return Polynomial.const(1 if j == k else 0)
    if spec == "symbolic":
        return Polynomial.variable(make_var(j, k))
    if len(spec) != nrows or any(len(row) != ncols for row in spec):
        raise DimensionMismatch(f"coefficient matrix must be {nrows}x{ncols}")
    return Polynomial.const(spec[j - 1][k - 1])


def build_Xtilde(triple, A="J"):
    """The left blocks: (j, k) is A[j,k] times the F_j-by-D_k x corner."""
    if triple.D.width > triple.k:
        raise DimensionMismatch(f"D has {triple.D.width} columns but k = {triple.k}")
    heights = triple.F.parts
    widths = triple.D.parts
    rows = []
    for j, fj in enumerate(heights, start=1):
        coeffs = [_coeff(A, avar, j, k, triple.t, triple.r)
                  for k in range(1, len(widths) + 1)]
        for u in range(1, fj + 1):
            row = []
            for k, dk in enumerate(widths, start=1):
                c = coeffs[k - 1]
                row.extend(c * Polynomial.variable(xvar(u, v))
                           for v in range(1, dk + 1))
            rows.append(row)
    return SymbolicMatrix(rows, heights, widths)


def build_Ytilde(triple, B="symbolic"):
    """The right blocks: (j, k) is B[j,k] times the F_j-by-E_k y corner."""
    if triple.E.width > triple.ell:
        raise DimensionMismatch(f"E has {triple.E.width} columns but ell = {triple.ell}")
    heights = triple.F.parts
    widths = triple.E.parts
    rows = []
    for j, fj in enumerate(heights, start=1):
        coeffs = [_coeff(B, bvar, j, k, triple.t, triple.s)
                  for k in range(1, len(widths) + 1)]
        for u in range(1, fj + 1):
            row = []
            for k, ek in enumerate(widths, start=1):
                c = coeffs[k - 1]
                row.extend(c * Polynomial.variable(yvar(u, v))
                           for v in range(1, ek + 1))
            rows.append(row)
    return SymbolicMatrix(rows, heights, widths)


def build_Ztilde(triple, A="J", B="symbolic"):
    """[X | Y]; square because |D| + |E| = |F|."""
    X = build_Xtilde(triple, A)
    Y = build_Ytilde(triple, B)
    rows = [xr + yr for xr, yr in zip(X.rows, Y.rows)]
    return SymbolicMatrix(rows, X.row_blocks, X.col_blocks + Y.col_blocks)


def build_Yo(triple, B="symbolic"):
    """Below-diagonal y rows only: superrow j has height F_j - D_j."""
    if not all(triple.f(j) >= triple.d(j) for j in range(1, triple.t + 1)):
        raise DimensionMismatch("some F_j < D_j; the reduced matrix is undefined")
    widths = triple.E.parts
    heights = tuple(triple.f(j) - triple.d(j) for j in range(1, triple.t + 1))
    rows = []
    for j in range(1, triple.t + 1):
        coeffs = [_coeff(B, bvar, j, k, triple.t, triple.s)
                  for k in range(1, len(widths) + 1)]
        for u in range(1, heights[j - 1] + 1):
            row = []
            for k, ek in enumerate(widths, start=1):
                c = coeffs[k - 1]
                row.extend(c * Polynomial.variable(yvar(triple.d(j) + u, v))
                           for v in range(1, ek + 1))
            rows.append(row)
    return SymbolicMatrix(rows, heights, widths)


def delta(triple, A="J", B="symbolic"):
    """Determinant of the block matrix for the given coefficient specs."""
    return determinant(build_Ztilde(triple, A, B).rows)


def _add_product(acc, p, q, c):
    """acc + c * p * q on term dicts, summed into acc; None is zero."""
    if acc is None:
        acc = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = mono_mul(m1, m2)
            v = acc.get(m, 0) + c * c1 * c2
            if v:
                acc[m] = v
            else:
                del acc[m]
    return acc


def _add_int_product(acc, p, q, c):
    """acc + c * p * q on integers; None is zero."""
    return (acc or 0) + c * p * q


@functools.lru_cache(maxsize=128)
def _laplace_plan(triple, grid, with_x):
    """The terms of the coefficient of b^grid in det Z (with_x) or det Yo.

    Expand the determinant by generalized Laplace along Z's column blocks
    x_1..x_r, y_1..y_s, with A = J.  A term gives each block as many rows
    as it has columns, and its b-monomial is b^grid exactly when y block k
    takes grid[j][k] rows of superrow j; x block j then takes the other
    D_j rows of superrow j.  A block contributes the column-initial minor
    det x[R, 1..D_j] or det y[R, 1..E_k] on the local row indices R of its
    rows, which vanishes when R repeats an index.  The sign of a term is
    the parity of its rows concatenated in block order, times the sign
    that sorts each minor's local rows.  det Yo is the same sum without
    the x blocks, over the rows D_j + 1..F_j of each superrow.

    The plan is (start, levels, final), with rows as bit masks and start
    the mask of all rows.  levels holds, for each y block in turn, the
    edges (mask, next_mask, sign, local): from the free rows `mask` the
    block takes its rows, leaving `next_mask`, with the factor sign *
    det y[local, 1..E_k].  final holds (mask, sign, xsets): the rows left
    fill the x blocks, with the factor sign times the product of
    det x[local, 1..D_j] over local in xsets.  Taking the x blocks last
    moves them past all |E| y rows: a sign of (-1)^(|D| |E|).  Only edges
    that lead to `final` are kept.
    """
    if triple.D.width > triple.k or triple.E.width > triple.ell:
        raise DimensionMismatch(f"D and E need {triple.D.width} x and "
                                f"{triple.E.width} y columns; k = {triple.k}, "
                                f"ell = {triple.ell}")
    rows = []                      # (superrow, local index), in matrix order
    for j in range(1, triple.t + 1):
        first = 1 if with_x else triple.d(j) + 1
        rows.extend((j, u) for u in range(first, triple.f(j) + 1))
    superrow = [[p for p, (i, _) in enumerate(rows) if i == j]
                for j in range(1, triple.t + 1)]

    def choices(mask, counts):
        """(rows taken, sign, sorted local rows) for each way to fill a y block."""
        picks = [(0, ())]
        for j, c in counts:
            free = [p for p in superrow[j - 1] if mask >> p & 1]
            picks = [(taken | sum(1 << p for p in combo), chosen + combo)
                     for taken, chosen in picks
                     for combo in combinations(free, c)]
        for taken, chosen in picks:          # chosen is in row order
            local = [rows[p][1] for p in chosen]
            if len(set(local)) < len(local):
                continue
            rest = mask & ~taken
            inv = sum((rest & ((1 << p) - 1)).bit_count() for p in chosen)
            inv += sum(a > b for i, a in enumerate(local) for b in local[i + 1:])
            yield taken, -1 if inv % 2 else 1, tuple(sorted(local))

    start = (1 << len(rows)) - 1
    levels = []
    masks = {start}
    for k in range(triple.s):
        counts = [(j, grid[j - 1][k]) for j in range(1, triple.t + 1)
                  if grid[j - 1][k]]
        edges = [(mask, mask & ~taken, sign, local) for mask in masks
                 for taken, sign, local in choices(mask, counts)]
        levels.append(edges)
        masks = {edge[1] for edge in edges}
    sign = -1 if with_x and triple.D.size * triple.E.size % 2 else 1
    xblocks = range(1, triple.r + 1) if with_x else ()
    final = tuple((mask, sign,
                   tuple(tuple(rows[p][1] for p in superrow[j - 1]
                               if mask >> p & 1) for j in xblocks))
                  for mask in masks)
    for i in reversed(range(len(levels))):
        levels[i] = tuple(edge for edge in levels[i] if edge[1] in masks)
        masks = {edge[0] for edge in levels[i]}
    return start, tuple(levels), final


def _plan_sum(plan, minor, add_product, one):
    """Sum a Laplace plan's terms over the ring of `one`.

    minor(make_var, local) is det make_var[local, 1..len(local)] in that
    ring, and is called once per distinct minor; add_product(acc, p, q, c)
    returns acc + c * p * q, with None for a zero acc.  Returns None when
    no term survives.
    """
    minor = functools.cache(minor)
    start, levels, final = plan
    level = {start: one}
    for edges in levels:
        nxt = {}
        for mask, rest, sign, local in edges:
            acc = level.get(mask)
            if acc:
                nxt[rest] = add_product(nxt.get(rest), acc,
                                        minor(yvar, local), sign)
        level = nxt
    out = None
    for mask, sign, xsets in final:
        acc = level.get(mask)
        if acc:
            xs = one
            for local in xsets:
                xs = add_product(None, xs, minor(xvar, local), 1)
            out = add_product(out, acc, xs, sign)
    return out


def _tableau_coefficient(triple, grid, with_x):
    """Coefficient of b^grid in det Z (with_x) or in det Yo, with A = J."""
    def minor(make_var, local):
        return determinant(
            [[Polynomial.variable(make_var(u, v))
              for v in range(1, len(local) + 1)] for u in local]).terms

    out = _plan_sum(_laplace_plan(triple, grid, with_x), minor, _add_product,
                    {ONE: 1})
    if not out:
        raise ZeroCoefficient("the tableau coefficient vanished")
    return Polynomial(out)


def delta_MT(triple, T):
    """Coefficient of the tableau's b-monomial in the J-reduced determinant."""
    return _tableau_coefficient(triple, monomial_M(T).m, True)


def delta_TY(triple, T):
    """Coefficient of the tableau's b-monomial in det Yo; pure y variables."""
    return _tableau_coefficient(triple, monomial_M(T).m, False)


# ---------------------------------------------------------------------------
# Exact evaluation at integer points.
# ---------------------------------------------------------------------------

def delta_eval(triple, A, B, assignment):
    """Exact integer value of the determinant for numeric A, B."""
    if len(A) != triple.t or any(len(r) != triple.r for r in A):
        raise DimensionMismatch(f"A must be {triple.t}x{triple.r}")
    if len(B) != triple.t or any(len(r) != triple.s for r in B):
        raise DimensionMismatch(f"B must be {triple.t}x{triple.s}")
    rows = []
    for j, fj in enumerate(triple.F.parts, start=1):
        for u in range(1, fj + 1):
            row = []
            for k, dk in enumerate(triple.D.parts, start=1):
                a = A[j - 1][k - 1]
                row.extend(a * assignment[xvar(u, v)] for v in range(1, dk + 1))
            for k, ek in enumerate(triple.E.parts, start=1):
                b = B[j - 1][k - 1]
                row.extend(b * assignment[yvar(u, v)] for v in range(1, ek + 1))
            rows.append(row)
    return bareiss_det(rows)


def delta_MT_eval(triple, T, assignment):
    """Exact value of delta_MT(triple, T) at an integer (x, y) point.

    The same Laplace plan as delta_MT, summed over the integers: each
    minor is the determinant of its entries at the point.
    """
    def minor(make_var, local):
        return bareiss_det([[assignment[make_var(u, v)]
                             for v in range(1, len(local) + 1)]
                            for u in local])

    plan = _laplace_plan(triple, monomial_M(T).m, True)
    return _plan_sum(plan, minor, _add_int_product, 1) or 0
