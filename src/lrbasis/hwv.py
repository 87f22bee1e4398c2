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
Laplace sum below walks the rows of either.

Neither determinant is expanded in the b variables.  A tableau's
coefficient is a signed sum of products of column-initial minors, one per
column block, and one Laplace sum, run backward from the x blocks, gives
those of all the tableaux of a triple: grids that end in the same columns
share that part of it.  Over polynomial minors, each expanded once by
polyring.column_minors, it gives the coefficients (delta_MT, delta_MT_all,
delta_TY); over lists of integers, one per point, their exact values at
all the points (delta_MT_values).  Nothing it builds outlives the call.
"""

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
    to its polynomial, or to its integer at a point.  Row u of the x and y
    values is read once, as wide as the widest block, for every superrow.
    """
    blocks = [("A", A, xvar, triple.D.parts), ("B", B, yvar, triple.E.parts)]
    for name, M, _, widths in blocks:
        if len(M) != triple.t or any(len(row) != len(widths) for row in M):
            raise DimensionMismatch(f"{name} must be {triple.t}x{len(widths)}")
    lines = [[[value(make_var(u, v))
               for v in range(1, max(widths, default=0) + 1)]
              for _, _, make_var, widths in blocks]
             for u in range(1, triple.f(1) + 1)]
    return [[c * x
             for (_, M, _, widths), line in zip(blocks, lines[u - 1])
             for c, w in zip(M[j - 1], widths)
             for x in line[:w]]
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


def _laplace_sums(triple, grids, with_x, value, accumulate, one):
    """The coefficient of b^grid in det Z (with_x) or det Yo, with A = J,
    for each grid, over the ring of `one`; None or a falsy sum for a grid
    with no term.

    Expand by generalized Laplace along Z's column blocks x_1..x_r,
    y_1..y_s.  A term has b-monomial b^grid when y block k takes grid[j][k]
    rows of superrow j, and x block j the other D_j.  Each block gives the
    column-initial minor on the local indices of its rows, zero when one
    repeats; the sign is the parity of the rows in block order times the
    signs that sort each minor's rows.  Taking the x blocks last moves them
    past all |E| y rows: a sign of (-1)^(|D| |E|), applied once per grid.
    det Yo is the same sum without the x blocks, on the rows D_j + 1..F_j
    of each superrow.

    The sum runs backward from the x blocks.  A state after y block k is
    (mask of the free rows, grid columns k+1..s); its value is computed
    once and shared by every grid with those columns, and the x product
    of a final mask once per mask.  The states and the edges into them are
    found forward; then the blocks are summed from the last back, each
    state's value dropped once the states before it hold it.  A state with
    no term has no value.

    value maps a variable into the ring; accumulate(acc, p, q, c) returns
    acc + c * p * q, None being zero, and may sum into acc in place, so a
    state's value goes only in p or q.  A falsy value or minor is zero.
    Each minor, and each minor inside it, is expanded once by column_minors.
    """
    if not grids:      # no tableau, and D may not even fit inside F
        return []
    rows = _rows(triple, with_x)   # (superrow, local index), in matrix order
    superrow = [[p for p, (i, _) in enumerate(rows) if i == j]
                for j in range(1, triple.t + 1)]

    def choices(mask, counts):
        """(rows left, sign, sorted local rows) for each way to fill a y block."""
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
            yield rest, -1 if inv % 2 else 1, tuple(sorted(local))

    def minors(make_var):
        return column_minors(lambda u, v: value(make_var(u, v)), accumulate, one)

    xminor, yminor = minors(xvar), minors(yvar)
    # superrow j of Z is rows low..low + F_j - 1, local rows 1..F_j: the
    # rows it leaves to x block j are the bits of mask >> low & span
    spans = [(superrow[j - 1][0], (1 << triple.f(j)) - 1)
             for j in range(1, triple.r + 1)] if with_x else []

    tails = {}         # xproduct(mask, j) for j > 0, by j and the rows it reads

    def xproduct(mask, j=0):
        """The product of x blocks j + 1..r on the rows left in `mask`."""
        if j == len(spans):
            return one
        low, span = spans[j]
        bits = mask >> low & span
        minor = xminor(tuple(i + 1 for i in range(bits.bit_length())
                             if bits >> i & 1))
        if not minor or j + 1 == len(spans):
            return minor
        key = (j + 1, mask >> spans[j + 1][0])
        if key not in tails:
            tails[key] = xproduct(mask, j + 1)
        rest = tails[key]
        return rest and accumulate(None, minor, rest, 1)

    # a suffix of grid columns is a node: (the counts its first block takes
    # from each superrow, the node of the columns after it); None is empty
    ids, suffix, roots = {}, [], []
    for grid in grids:
        node = None
        for column in reversed(list(zip(*grid))):
            key = (tuple((j, c) for j, c in enumerate(column, 1) if c), node)
            if key not in ids:
                ids[key] = len(suffix)
                suffix.append(key)
            node = ids[key]
        roots.append(node)
    start = (1 << len(rows)) - 1
    states = {(start, node) for node in roots}
    blocks = []        # per y block: {state after it: [(state before, sign, minor)]}
    for _ in range(triple.s):
        into = {}
        for state in states:
            counts, node = suffix[state[1]]
            for rest, sign, local in choices(state[0], counts):
                ys = yminor(local)
                if ys:
                    into.setdefault((rest, node), []).append((state, sign, ys))
        blocks.append(into)
        states = into
    below = None       # the values after the block summed next; None: x products
    while blocks:
        into, above = blocks.pop(), {}
        for state, edges in into.items():
            after = (xproduct(state[0]) if below is None
                     else below.pop(state, None))
            if after:
                for before, sign, ys in edges:
                    above[before] = accumulate(above.get(before), ys, after, sign)
        below = above
    out = [xproduct(start) if below is None else below.get((start, node))
           for node in roots]
    if with_x and triple.D.size * triple.E.size % 2:
        out = [v and accumulate(None, v, one, -1) for v in out]
    return out


def _tableau_coefficients(triple, tableaux, with_x):
    """Coefficient of b^M(T) in det Z (with_x) or in det Yo, with A = J,
    for each tableau T, from one sum."""
    layout = triple_layout(triple)
    out = _laplace_sums(triple, [monomial_M(T).m for T in tableaux], with_x,
                        lambda v: {1 << layout.shift[v]: 1},
                        layout.add_product, {ONE: 1})
    if not all(out):
        raise ZeroCoefficient("the tableau coefficient vanished")
    out.reverse()      # each sum is let go once its Polynomial holds a copy
    return [Polynomial(out.pop(), layout) for _ in range(len(out))]


def delta_MT(triple, T):
    """Coefficient of the tableau's b-monomial in the J-reduced determinant."""
    return _tableau_coefficients(triple, [T], True)[0]


def delta_MT_all(triple, tableaux):
    """delta_MT of each tableau, in order, from one sum over their grids."""
    return _tableau_coefficients(triple, tableaux, True)


def delta_TY(triple, T):
    """Coefficient of the tableau's b-monomial in det Yo; pure y variables."""
    return _tableau_coefficients(triple, [T], False)[0]


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


def delta_MT_values(triple, tableaux, points):
    """Exact values of delta_MT(triple, T) at integer (x, y) points: one
    row per tableau T, one entry per point.

    One Laplace sum for all the tableaux, over lists of integers, one
    entry per point: its minors are expanded by column_minors on the
    points' coordinates, all points together.  A list of zeros is not
    falsy, so a minor that vanishes at every point is summed, not skipped.
    """
    out = _laplace_sums(triple, [monomial_M(T).m for T in tableaux], True,
                        lambda v: [pt[v] for pt in points], _add_products,
                        [1] * len(points))
    return [row or [0] * len(points) for row in out]


def delta_MT_eval(triple, T, assignment):
    """Exact value of delta_MT(triple, T) at one integer (x, y) point."""
    return delta_MT_values(triple, [T], [assignment])[0][0]
