"""Block determinants and their distinguished coefficients.

The central object is the square block matrix Z = [X | Y] attached to a
triple (D, E, F): it has one superrow of height F_j per row of F; the left
supercolumns have widths D_k and entries a[j,k] * x[u,v] (the upper-left
F_j-by-D_k corner of the x matrix), the right supercolumns have widths E_k
and entries b[j,k] * y[u,v].  Its determinant is the master polynomial;
extracting the coefficient of a b-monomial given by a tableau's exponent
grid yields one member of the spanning family.

The companion matrix Yo keeps only the y columns and, of superrow j, the
rows D_j + 1..F_j below the diagonal x block.  The coefficient of the same
b-monomial in det Yo is the pure-y part used for leading-term arguments.

The layout is written down once: _rows lists the rows of Z or Yo as
(superrow, local row) pairs; _entries fills in the rows of Z, as
polynomials (build_Ztilde) or as integers at a point (delta_eval); the
Laplace plan below walks the rows of either.

Neither determinant is expanded in the b variables.  A tableau's
coefficient is a signed sum of products of column-initial minors, one
per column block; the rows each block takes and the signs form a Laplace
plan, built once per (triple, grid) and cached.  The plan is summed over
the ring of its minors, each expanded once by polyring.column_minors:
polynomial minors give the coefficient itself (delta_MT, delta_TY), and
minors whose values are lists of integers, one per point, give its exact
values at all the points from one sum of the plan (delta_MT_values).
"""

import functools
from itertools import combinations

from .errors import DimensionMismatch, ZeroCoefficient
from .intlinalg import bareiss_det
from .polyring import (ONE, Polynomial, avar, bvar, column_minors, determinant,
                       triple_layout, xvar, yvar)
from .tableaux import monomial_M


def _rows(triple, with_x=True):
    """The rows of Z (with_x) or of Yo, as (superrow j, local row u) pairs.

    Superrow j of Z is rows 1..F_j of the x and y matrices; of Yo, rows
    D_j + 1..F_j, so Yo needs D_j <= F_j.
    """
    if not with_x and not triple.dt_in_ft:
        raise DimensionMismatch("some F_j < D_j; the reduced matrix is undefined")
    return [(j, u) for j in range(1, triple.t + 1)
            for u in range(1 if with_x else triple.d(j) + 1, triple.f(j) + 1)]


def _coefficients(triple, spec, name):
    """The matrix A (t x r) or B (t x s) of a specification: "J" (identity
    pattern), "symbolic" (a variable a[j,k] or b[j,k] per block) or integers."""
    ncols = triple.r if name == "A" else triple.s
    if spec == "J":
        return [[int(j == k) for k in range(ncols)] for j in range(triple.t)]
    if spec == "symbolic":
        make_var = avar if name == "A" else bvar
        layout = triple_layout(triple)
        return [[Polynomial.variable(make_var(j, k), layout)
                 for k in range(1, ncols + 1)]
                for j in range(1, triple.t + 1)]
    return spec


def _entries(triple, A, B, value):
    """The entries of Z, in the ring of `value`.

    Row (j, u) of _rows holds, block by block, A[j,k] * x[u,v] for
    v = 1..D_k, then B[j,k] * y[u,v] for v = 1..E_k; value maps a variable
    to its polynomial, or to its integer at a point.
    """
    blocks = [("A", A, xvar, triple.D.parts), ("B", B, yvar, triple.E.parts)]
    for name, M, _, widths in blocks:
        if len(M) != triple.t or any(len(row) != len(widths) for row in M):
            raise DimensionMismatch(f"{name} must be {triple.t}x{len(widths)}")
    return [[c * value(make_var(u, v))
             for _, M, make_var, widths in blocks
             for c, w in zip(M[j - 1], widths)
             for v in range(1, w + 1)]
            for j, u in _rows(triple)]


def build_Ztilde(triple, A="J", B="symbolic"):
    """The rows of Z = [X | Y]; square because |D| + |E| = |F|."""
    layout = triple_layout(triple)
    return _entries(triple, _coefficients(triple, A, "A"),
                    _coefficients(triple, B, "B"),
                    lambda v: Polynomial.variable(v, layout))


def delta(triple, A="J", B="symbolic"):
    """Determinant of the block matrix for the given coefficient specs."""
    return determinant(build_Ztilde(triple, A, B))


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
    rows = _rows(triple, with_x)   # (superrow, local index), in matrix order
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
    # superrow j of Z is rows low..low + F_j - 1, local rows 1..F_j: the
    # rows it leaves to x block j are the bits of mask >> low & span
    spans = [(superrow[j - 1][0], (1 << triple.f(j)) - 1)
             for j in range(1, triple.r + 1)] if with_x else []

    @functools.cache
    def local(bits):
        return tuple(i + 1 for i in range(bits.bit_length()) if bits >> i & 1)

    final = tuple((mask, sign,
                   tuple(local(mask >> low & span) for low, span in spans))
                  for mask in masks)
    for i in reversed(range(len(levels))):
        levels[i] = tuple(edge for edge in levels[i] if edge[1] in masks)
        masks = {edge[0] for edge in levels[i]}
    return start, tuple(levels), final


def _plan_sum(plan, value, accumulate, one):
    """Sum a Laplace plan's terms over the ring of `one`.

    value maps a variable into that ring, and accumulate(acc, p, q, c)
    returns acc + c * p * q, with None for a zero acc; a falsy value or
    minor is skipped as zero.  The minors det x[local, 1..len(local)] and
    det y[local, 1..len(local)] come from one column_minors per family, so
    each distinct minor, and each minor inside it, is expanded once.
    Returns None or a falsy sum when no term survives.
    """
    def minors(make_var):
        return column_minors(lambda u, v: value(make_var(u, v)), accumulate, one)

    xminor, yminor = minors(xvar), minors(yvar)
    start, levels, final = plan
    level = {start: one}
    for edges in levels:
        nxt = {}
        for mask, rest, sign, local in edges:
            acc = level.get(mask)
            ys = acc and yminor(local)
            if ys:
                nxt[rest] = accumulate(nxt.get(rest), acc, ys, sign)
        level = nxt
    out = None
    for mask, sign, xsets in final:
        acc = level.get(mask)
        xs = acc and one
        for local in xsets:
            minor = xs and xminor(local)
            xs = minor and accumulate(None, xs, minor, 1)
        if xs:
            out = accumulate(out, acc, xs, sign)
    return out


def _tableau_coefficient(triple, grid, with_x):
    """Coefficient of b^grid in det Z (with_x) or in det Yo, with A = J."""
    layout = triple_layout(triple)
    out = _plan_sum(_laplace_plan(triple, grid, with_x),
                    lambda v: {1 << layout.shift[v]: 1}, layout.add_product,
                    {ONE: 1})
    if not out:
        raise ZeroCoefficient("the tableau coefficient vanished")
    return Polynomial(out, layout)


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
    """Exact integer value of det Z for integer matrices A and B."""
    return bareiss_det(_entries(triple, A, B, assignment.__getitem__))


def _add_products(acc, p, q, c):
    """acc + c * p * q entry by entry, for lists of integers and c = +-1;
    None is zero."""
    if acc is None:
        if c == 1:
            return [x * y for x, y in zip(p, q)]
        return [-x * y for x, y in zip(p, q)]
    if c == 1:
        return [a + x * y for a, x, y in zip(acc, p, q)]
    return [a - x * y for a, x, y in zip(acc, p, q)]


def delta_MT_values(triple, T, points):
    """Exact values of delta_MT(triple, T) at integer (x, y) points, in order.

    The same Laplace plan as delta_MT, summed once over lists of integers,
    one entry per point: its minors are expanded by column_minors on the
    points' coordinates, all points together.  A list of zeros is not
    falsy, so a minor that vanishes at every point is summed, not skipped.
    """
    plan = _laplace_plan(triple, monomial_M(T).m, True)
    out = _plan_sum(plan, lambda v: [pt[v] for pt in points], _add_products,
                    [1] * len(points))
    return out or [0] * len(points)


def delta_MT_eval(triple, T, assignment):
    """Exact value of delta_MT(triple, T) at one integer (x, y) point."""
    return delta_MT_values(triple, T, [assignment])[0]
