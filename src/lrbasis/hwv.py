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
b-monomial in det Yo is the pure-y part used for leading-term arguments:
at x = I each x block's minor is nonzero only on local rows 1..D_j, so a
tableau's coefficient of det Z at (I, y) is +- its coefficient of det Yo
at y.  verify.check_basis therefore ranks det Yo values, and only
delta_MT, delta_MT_eval and the group check of check_basis walk the x
blocks.

The layout is written down once: _entries fills in the rows of Z, as
polynomials (build_Ztilde) or as integers at a point (delta_eval).

Neither determinant is expanded in the b variables.  A tableau's
coefficient is a signed sum of products of column-initial minors, one per
column block, and one Laplace sum, a walk over the columns of the exponent
grid run backward from the last, gives those of all the tableaux of a
triple: grids that end in the same columns share that part of it.  Over
polynomial minors, each expanded once by polyring.column_minors, it gives
the coefficients (delta_MT, delta_TY); over lists of integers, one per
point, their exact values at all the points (delta_MT_values); over
pairs of such a list and a max-plus top, (key, count) with the key
ordered as the y order, the values of each coefficient of det Yo and its
leading term, with none of them expanded (delta_TY_values_and_leads,
which verify.check_basis calls for every check of `lrb verify`).
Nothing it builds outlives the call.
"""

from functools import cache

from .errors import DimensionMismatch, ZeroCoefficient
from .intlinalg import bareiss_det
from .polyring import (ONE, Polynomial, avar, bvar, column_minors, determinant,
                       triple_layout, xvar, yvar)
from .tableaux import monomial_M


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

    Row u = 1..F_j of superrow j holds, block by block, A[j,k] * x[u,v] for
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
            for j in range(1, triple.t + 1)
            for u in range(1, triple.f(j) + 1)]


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

    Expand by generalized Laplace along the column blocks, in the order of
    the columns of the paper's exponent grid [grid | diag(D)]: y block k
    takes grid[j][k] rows of superrow j, then x block j the D_j rows left
    in superrow j.  Each block gives the column-initial minor on the local
    indices of its rows, zero when one repeats; the sign is the parity of
    the rows in block order times the signs that sort each minor's rows.
    Taking the x blocks last moves them past all |E| y rows: a sign of
    (-1)^(|D| |E|), applied once per grid.  det Yo is the same walk with no
    x columns, from Z's rows less local rows 1..D_j of each superrow j:
    Yo's rows, in Yo's order and with Yo's local indices.

    Local row u of superrow j is bit low_j + u - 1 of a row mask.  A pick's
    parity adds, over superrows: the rows left before those taken in
    superrow j, c_j times the rows left in superrows 1..j - 1, and the
    crossings of the local rows taken from different superrows.  A state
    after block k is (mask of the free rows, node of the grid columns
    k+1..); its value is computed once and shared by every grid with those
    columns.  The states and the edges into them are found forward; then
    the blocks are summed from the last back, each state's value dropped
    once the states before it hold it.  A state with one edge out, as is
    each state before an x column, is valued only when the block before it
    is summed, so the values of a layer of such states are never all held
    at once.  A state with no term has no value.

    value maps a variable into the ring; accumulate(acc, p, q, c) returns
    acc + c * p * q, None being zero, and may sum into acc in place, so a
    state's value goes only in p or q.  A falsy value or minor is zero.
    Each minor, and each minor inside it, is expanded once by column_minors.
    """
    if not grids:      # no tableau, and D may not even fit inside F
        return []
    if not with_x and not triple.dt_in_ft:
        raise DimensionMismatch("some F_j < D_j; the reduced matrix is undefined")
    superrow, start, low = {}, 0, 0    # j: (low_j, mask of local rows 1..F_j)
    for j in range(1, max(triple.t, triple.r) + 1):
        f, skip = triple.f(j), 0 if with_x else triple.d(j)
        superrow[j] = low, (1 << f) - 1
        start |= ((1 << f) - (1 << skip)) << low
        low += f

    @cache
    def local_rows(bits):
        return tuple(u for u in range(1, bits.bit_length() + 1)
                     if bits >> u - 1 & 1)

    @cache
    def subsets(bits, c):
        """(sub, parity) for each c-subset sub of the local rows `bits`,
        parity counting the pairs of a row left before a row taken."""
        if c == 0:
            return [(0, 0)]
        if bits.bit_count() < c:
            return []
        top = 1 << bits.bit_length() - 1
        rest = bits ^ top
        passed = rest.bit_count() - c + 1    # the rows left before a taken top
        return subsets(rest, c) + [(sub | top, parity + passed)
                                   for sub, parity in subsets(rest, c - 1)]

    def choices(mask, counts):
        """(rows left, sign, sorted local rows) for each way to fill a block."""
        picks, parity, earlier = [(0, 0, 0)], 0, 0
        for j, c in counts:
            low, span = superrow[j]
            parity += c * ((mask & ((1 << low) - 1)).bit_count() - earlier)
            earlier += c
            picks = [(taken | sub << low, local | sub,
                      odd + p + (local and sum((local >> u).bit_count()
                                               for u in local_rows(sub))))
                     for taken, local, odd in picks
                     for sub, p in subsets(mask >> low & span, c)
                     if not local & sub]
        return [(mask & ~taken, -1 if (odd + parity) % 2 else 1,
                 local_rows(local)) for taken, local, odd in picks]

    def minors(make_var):
        return column_minors(lambda u, v: value(make_var(u, v)), accumulate, one)

    # a column of the grid is the counts (superrow, rows) its block takes;
    # det Z's x block j is one more column, taking D_j rows of superrow j
    xcolumns = [((j, triple.d(j)),)
                for j in range(1, triple.r + 1)] if with_x else []
    block_minors = [minors(yvar)] * triple.s + [minors(xvar)] * len(xcolumns)
    # a suffix of grid columns is a node: (the counts of its first column,
    # the node of the columns after it); None is empty
    ids, suffix, roots = {}, [], []
    for grid in grids:
        node = None
        columns = [tuple((j, c) for j, c in enumerate(column, 1) if c)
                   for column in zip(*grid)]
        for counts in reversed(columns + xcolumns):
            key = (counts, node)
            if key not in ids:
                ids[key] = len(suffix)
                suffix.append(key)
            node = ids[key]
        roots.append(node)
    states = {(start, node) for node in roots}
    blocks = []        # per block: {state after it: [(state before, sign, minor)]}
    for minor in block_minors:
        into = {}
        for state in states:
            counts, node = suffix[state[1]]
            for rest, sign, local in choices(state[0], counts):
                m = minor(local)
                if m:
                    into.setdefault((rest, node), []).append((state, sign, m))
        blocks.append(into)
        states = into
    # the values after the block summed next; a state with one edge out so
    # far waits as (minor, value after it, sign), and is valued only when
    # the block before it is summed
    below, waiting = {(0, None): one}, {}
    while blocks:
        into, above, held = blocks.pop(), {}, {}
        for state, edges in into.items():
            first = waiting.pop(state, None)
            after = (accumulate(None, *first) if first
                     else below.pop(state, None))
            if after:
                for before, sign, m in edges:
                    acc = above.get(before)
                    if acc is None:
                        first = held.pop(before, None)
                        if first is None:
                            held[before] = m, after, sign
                            continue
                        acc = accumulate(None, *first)
                    above[before] = accumulate(acc, m, after, sign)
        below, waiting = above, held
    for state, first in waiting.items():
        below[state] = accumulate(None, *first)
    out = [below.get((start, node)) for node in roots]
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
    return [Polynomial(terms, layout) for terms in out]


def delta_MT(triple, T):
    """Coefficient of the tableau's b-monomial in the J-reduced determinant."""
    return _tableau_coefficients(triple, [T], True)[0]


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


def _add_tops(acc, p, q, c):
    """acc + c * p * q in the max-plus ring of tops (key, count), for
    c = +-1; None is zero.  A product adds the keys and multiplies the
    counts; a sum keeps the larger key, and adds the counts of equal keys.
    A count that cancels to 0 is kept: the top is then unknown."""
    key = p[0] + q[0]
    if acc is None or key > acc[0]:
        return key, c * p[1] * q[1]
    if key == acc[0]:
        return key, acc[1] + c * p[1] * q[1]
    return acc


def _add_pairs(acc, p, q, c):
    """acc + c * p * q on pairs (values, top), in the rings of
    _add_products and _add_tops; None is zero."""
    values, top = acc or (None, None)
    return _add_products(values, p[0], q[0], c), _add_tops(top, p[1], q[1], c)


def delta_MT_values(triple, grids, points):
    """Exact values of delta_MT(triple, T) at integer (x, y) points: one
    row per tableau T, given by its grid M(T), one entry per point.

    One Laplace sum for all the tableaux, over lists of integers, one
    entry per point: its minors are expanded by column_minors on the
    points' coordinates, all points together.  A list of zeros is not
    falsy, so a minor that vanishes at every point is summed, not skipped.
    """
    out = _laplace_sums(triple, grids, True,
                        lambda v: [pt[v] for pt in points], _add_products,
                        [1] * len(points))
    return [row or [0] * len(points) for row in out]


def delta_TY_values_and_leads(triple, grids, points):
    """The exact values of delta_TY(triple, T) at integer y points, as
    delta_MT_values gives those of delta_MT, and the leading term of each
    under the y order of polyring.leading_monomial, (tuple-form monomial,
    coefficient) or None where its top cancelled or it has no term, for
    the tableaux T of the grids M(T): one Laplace sum over det Yo, on
    pairs (values, top) in the rings of _add_products and _add_tops.

    The key of y[u,v] holds a degree of 1 above one exponent field per
    variable, in column-major order, y[1,1], y[2,1], ..., y[1,2], ..., the
    first on top, each wide enough for |F|: keys then compare as the y
    order does, the key of a product is the sum of the keys, and the top's
    monomial is read back off its key.  The top of a column-initial minor
    on sorted rows is its diagonal, with +1, so no minor's top cancels;
    only a sum of products can.
    """
    width = triple.F.size.bit_length() + 1
    ys = sorted((yvar(u, v) for u in range(1, triple.F.width + 1)
                 for v in range(1, triple.E.width + 1)),
                key=lambda v: (v[2], v[1]), reverse=True)
    shift = {v: k * width for k, v in enumerate(ys)}
    degree, mask = len(ys) * width, (1 << width) - 1
    top = {v: ((1 << degree) + (1 << s), 1) for v, s in shift.items()}

    def lead(pair):
        key, count = pair[1] if pair else (0, 0)
        if not count:
            return None
        fields = ((v, key >> shift[v] & mask) for v in sorted(shift))
        return tuple((v, e) for v, e in fields if e), count
    out = _laplace_sums(triple, grids, False,
                        lambda v: ([pt[v] for pt in points], top[v]), _add_pairs,
                        ([1] * len(points), (0, 1)))
    return [v[0] if v else [0] * len(points) for v in out], [lead(v) for v in out]


def delta_MT_eval(triple, T, assignment):
    """Exact value of delta_MT(triple, T) at one integer (x, y) point."""
    return delta_MT_values(triple, [monomial_M(T).m], [assignment])[0][0]
