"""Littlewood-Richardson tableaux, their enumeration, and standard peeling.

A tableau here is a filling of the skew shape transpose(F) - transpose(D)
with content transpose(E): entry c appears (transpose(E))_c times.  The two
defining conditions are

  LR1: rows weakly increase left to right, columns strictly increase top
       to bottom;
  LR2: for every row p and entry m >= 2, the number of m's in the first p
       rows is at most the number of (m-1)'s in the first p-1 rows.

Standard peeling repeatedly removes, for h = max entry down to 1, the
farthest-northeast cell containing h; each pass removes a vertical strip
that becomes one column of a "banal" tableau (the unique LR tableau of
straight shape, whose row a is all a's).  The record of which column of
the skew shape each strip cell came from is the exponent grid m, and the
record of which row each cell sat in gives the monomial e.
"""

from collections import namedtuple

from .errors import NoPreimage, NotLR, ShapeError
from .polyring import mono, xvar, yvar
from .shapes import Partition, SkewShape


class LRTableau:
    """A filling of a skew shape, entries keyed by (row, column)."""

    __slots__ = ("shape", "entries")

    def __init__(self, shape, entries):
        self.shape = shape
        self.entries = dict(entries)
        if set(self.entries) != set(shape.cells):
            raise ShapeError("entries do not cover the shape exactly")
        for v in self.entries.values():
            if type(v) is not int or v < 1:   # a bool is no entry
                raise ShapeError(f"entries must be positive integers, got {v!r}")

    def to_json(self):
        rows = []
        for a in range(1, self.shape.outer.depth + 1):
            span = self.shape.row_span(a)
            rows.append([] if span is None
                        else [self.entries[(a, c)] for c in range(span[0], span[1] + 1)])
        return {"outer": list(self.shape.outer.parts),
                "inner": list(self.shape.inner.parts),
                "rows": rows}

    @classmethod
    def from_json(cls, data):
        if not (isinstance(data, dict)
                and all(isinstance(data.get(key), list)
                        for key in ("outer", "inner", "rows"))
                and all(isinstance(row, list) for row in data["rows"])):
            raise ShapeError('a tableau is a JSON object with list values '
                             '"outer", "inner" and "rows", each row a list')
        shape = SkewShape(tuple(data["outer"]), tuple(data["inner"]))
        entries = {}
        for a, row in enumerate(data["rows"], start=1):
            span = shape.row_span(a)
            expected = 0 if span is None else span[1] - span[0] + 1
            if len(row) != expected:
                raise ShapeError(f"row {a} has {len(row)} entries, expected {expected}")
            for off, v in enumerate(row):
                entries[(a, span[0] + off)] = v
        return cls(shape, entries)

    def __eq__(self, other):
        return (isinstance(other, LRTableau)
                and self.shape == other.shape and self.entries == other.entries)

    def __hash__(self):
        return hash((self.shape, tuple(sorted(self.entries.items()))))


def check_lr1(T):
    """Rows weakly increase, columns strictly increase."""
    for (a, c), v in T.entries.items():
        left = T.entries.get((a, c - 1))
        if left is not None and left > v:
            return False
        up = T.entries.get((a - 1, c))
        if up is not None and up >= v:
            return False
    return True


def check_lr2(T):
    """The lattice-word condition on row prefixes."""
    depth = T.shape.outer.depth
    top = max(T.entries.values(), default=0)
    prefix = [0] * (top + 1)  # counts of each value in rows seen so far
    for a in range(1, depth + 1):
        prev = list(prefix)
        for (aa, _), v in T.entries.items():
            if aa == a:
                prefix[v] += 1
        for m in range(2, top + 1):
            if prefix[m] > prev[m - 1]:
                return False
    return True


def is_lr(T):
    return check_lr1(T) and check_lr2(T)


def enumerate_lr(triple):
    """All LR tableaux of the triple, in lex order of the row word.

    Fills cells in row-major order, trying smaller entries first, pruning
    with the semistandard conditions and an incremental lattice-word check
    (valid because all rows above the current cell are already complete).
    """
    if not triple.dt_in_ft:
        return []
    shape = triple.skew_shape()
    content = triple.Et.parts
    top = len(content)
    cells = shape.cells
    if sum(content) != len(cells):
        raise ShapeError("content size does not match shape size")
    remaining = list(content)
    entries = {}
    placed = [0] * (top + 1)  # copies of each value placed so far
    out = []

    def backtrack(idx, above):
        # above[v] = copies of v in the rows strictly above the current one
        if idx == len(cells):
            out.append(LRTableau(shape, dict(entries)))
            return
        a, c = cells[idx]
        if idx > 0 and cells[idx - 1][0] != a:
            above = placed.copy()
        lo = entries.get((a, c - 1), 1)
        up = entries.get((a - 1, c))
        lo = max(lo, up + 1 if up is not None else 1)
        for v in range(lo, top + 1):
            if not remaining[v - 1]:
                continue
            if v > 1 and placed[v] + 1 > above[v - 1]:
                continue
            entries[(a, c)] = v
            remaining[v - 1] -= 1
            placed[v] += 1
            backtrack(idx + 1, above)
            placed[v] -= 1
            remaining[v - 1] += 1
            del entries[(a, c)]

    if cells:
        backtrack(0, placed.copy())
    else:
        out.append(LRTableau(shape, {}))
    return out


class PeelingTrace(namedtuple("PeelingTrace", "strips banal_shape")):
    """Result of standard peeling.

    strips[h-1] lists the cells removed in pass h, in the order of the
    values 1, 2, ... they contained; the lengths of the strips, sorted,
    transpose to the content partition, the banal shape.
    """

    __slots__ = ()


def standard_peeling(T):
    """Peel T into vertical strips; raises NotLR on an invalid filling.

    Each pass removes, for h = (current max entry) down to 1, the topmost
    then rightmost cell containing h.  For an LR tableau the removed cells
    form a strip heading northeast (the cell for h-1 strictly above and
    weakly right of the cell for h) and the remainder is again LR.
    """
    if not is_lr(T):
        raise NotLR("standard peeling is defined only for LR tableaux")
    entries = dict(T.entries)
    strips = []
    while entries:
        top = max(entries.values())
        strip = []
        for h in range(top, 0, -1):
            cands = [cell for cell, v in entries.items() if v == h]
            if not cands:
                raise NotLR(f"no cell with entry {h} during peeling")
            cell = min(cands, key=lambda rc: (rc[0], -rc[1]))
            strip.append(cell)
            del entries[cell]
        strip.reverse()  # value 1 first
        for i in range(len(strip) - 1):
            (a1, c1), (a2, c2) = strip[i], strip[i + 1]
            if not (a1 < a2 and c1 >= c2):
                raise NotLR("peeled cells do not form a northeast strip")
        strips.append(tuple(strip))
    lengths = [len(s) for s in strips]
    if any(lengths[i] < lengths[i + 1] for i in range(len(lengths) - 1)):
        raise NotLR("strip lengths are not weakly decreasing")
    return PeelingTrace(tuple(strips), Partition(lengths).transpose())


class ExponentMatrix:
    """The grid m with m[i][h] = cells of strip h taken from column i.

    Rows are indexed by the t columns of transpose(F) (rows of F), columns
    by the s strips (rows of E).  Row i sums to F_i - D_i, column h sums
    to E_h, and the entries satisfy the shuffle inequalities
    sum_{j>k} m[j][i] >= sum_{j>=k} m[j][i+1].
    """

    __slots__ = ("m",)

    def __init__(self, m):
        self.m = tuple(tuple(row) for row in m)

    def __eq__(self, other):
        return isinstance(other, ExponentMatrix) and self.m == other.m


def monomial_M(T):
    """The exponent grid of T under standard peeling."""
    trace = standard_peeling(T)
    t = T.shape.outer.width  # columns of the skew shape = rows of F
    s = len(trace.strips)
    m = [[0] * s for _ in range(t)]
    for h, strip in enumerate(trace.strips):
        for (_, c) in strip:
            m[c - 1][h] += 1
    return ExponentMatrix(m)


def recover_from_M(triple, m):
    """Invert monomial_M for an ExponentMatrix m; raises NoPreimage when
    no tableau maps to m.

    Rebuilds the tableau by inserting the strips in reverse peeling order;
    within a strip, values take its skew-shape columns in weakly decreasing
    order, and within a column cells are consumed top to bottom in the
    order the strips arrive.
    """
    grid = m.m
    if len(grid) != triple.t or any(len(row) != triple.s for row in grid):
        raise NoPreimage(f"the grid is not {triple.t} x {triple.s}")
    shape = triple.skew_shape()
    col_cells = {c: shape.column_rows(c) for c in range(1, triple.t + 1)}
    next_free = {c: 0 for c in col_cells}
    entries = {}
    for h in range(triple.s, 0, -1):
        cols = []
        for i in range(triple.t, 0, -1):
            cols.extend([i] * grid[i - 1][h - 1])
        cols.sort(reverse=True)
        for v, c in enumerate(cols, start=1):
            rows = col_cells[c]
            if next_free[c] >= len(rows):
                raise NoPreimage(f"column {c} of the skew shape overflows")
            entries[(rows[next_free[c]], c)] = v
            next_free[c] += 1
    if set(entries) != set(shape.cells):
        raise NoPreimage("grid does not fill the skew shape")
    T = LRTableau(shape, entries)
    if not is_lr(T) or monomial_M(T) != m:
        raise NoPreimage("grid is not the peeling record of any LR tableau")
    return T


def monomial_e(T):
    """Product over boxes of y[row, entry], as a monomial."""
    return mono(*(((yvar(a, v)), 1) for (a, _), v in T.entries.items()))


def monomial_bigE(T, triple):
    """e(T) times the diagonal x-monomial fixed by the triple.

    The x[j,j] exponent is the j-th column length of D, i.e. the number of
    leading principal minors of size j contributed by the left block.
    """
    return mono(*monomial_e(T),
                *((xvar(j, j), e) for j, e in enumerate(triple.Dt.parts, start=1)))


def recover_from_e(triple, e_mono):
    """Invert monomial_e; raises NoPreimage when e is not in its image.

    Row a of the skew shape must consist of exactly its y[a, c] exponents
    many copies of each entry c, placed in increasing order.
    """
    shape = triple.skew_shape()
    exps = dict(e_mono)
    for v in exps:
        if v[0] != "y":
            raise NoPreimage(f"unexpected variable {v}")
    entries = {}
    for a in range(1, shape.outer.depth + 1):
        span = shape.row_span(a)
        row_vals = []
        for (fam, aa, c), e in exps.items():
            if aa == a:
                row_vals.extend([c] * e)
        row_vals.sort()
        expected = 0 if span is None else span[1] - span[0] + 1
        if len(row_vals) != expected:
            raise NoPreimage(f"row {a} degree {len(row_vals)} != length {expected}")
        for off, v in enumerate(row_vals):
            entries[(a, span[0] + off)] = v
    T = LRTableau(shape, entries)
    if not is_lr(T) or monomial_e(T) != mono(*exps.items()):
        raise NoPreimage("monomial is not e(T) for any LR tableau")
    return T
