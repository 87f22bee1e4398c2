"""Block determinants and their distinguished coefficients.

The central object is the square block matrix Z = [X | Y] attached to a
triple (D, E, F): it has one superrow of height F_j per row of F; the left
supercolumns have widths D_k and entries a[j,k] * x[u,v] (the upper-left
F_j-by-D_k corner of the x matrix), the right supercolumns have widths E_k
and entries b[j,k] * y[u,v].  Its determinant is the master polynomial;
extracting the coefficient of a b-monomial given by a tableau's exponent
grid yields one member of the spanning family.  That coefficient is built
directly as a sum of products of minors, without expanding the
determinant in the b variables.

The companion matrix Yo keeps only the rows of each superrow below the
diagonal x block: superrow j has height F_j - D_j and entries
b[j,k] * y[D_j + u, v].  The coefficient of the same b-monomial in det Yo
is the pure-y part used for leading-term arguments.
"""

from dataclasses import dataclass
from fractions import Fraction
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
    """acc += c * p * q, on term dicts."""
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = mono_mul(m1, m2)
            v = acc.get(m, 0) + c * c1 * c2
            if v:
                acc[m] = v
            else:
                del acc[m]


def _tableau_coefficient(triple, grid, with_x):
    """Coefficient of b^grid in det Z (with_x) or in det Yo, with A = J.

    Expand the determinant by generalized Laplace along Z's column blocks
    x_1..x_r, y_1..y_s.  A term gives each block as many rows as it has
    columns, and its b-monomial is b^grid exactly when y block k takes
    grid[j][k] rows of superrow j; with A = J, x block j takes the other
    D_j rows of superrow j.  A block then contributes the column-initial
    minor det x[R, 1..D_j] or det y[R, 1..E_k] on the local row indices R
    of its rows, which vanishes when R repeats an index.  The sign of a
    term is the parity of its rows concatenated in block order, times the
    sign that sorts each minor's local rows.  det Yo is the same sum
    without the x blocks, over the rows D_j + 1..F_j of each superrow.

    The y blocks are summed one at a time, keyed by the set of rows still
    free; the x blocks take the rows left at the end, which moves them
    past all |E| y rows: a sign of (-1)^(|D| |E|).
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
    minors = {}

    def minor(make_var, local):
        key = (make_var, local)
        if key not in minors:
            minors[key] = determinant(
                [[Polynomial.variable(make_var(u, v))
                  for v in range(1, len(local) + 1)] for u in local]).terms
        return minors[key]

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

    level = {(1 << len(rows)) - 1: {ONE: 1}}
    for k in range(triple.s):
        counts = [(j, grid[j - 1][k]) for j in range(1, triple.t + 1)
                  if grid[j - 1][k]]
        nxt = {}
        for mask, acc in level.items():
            for taken, sign, local in choices(mask, counts):
                _add_product(nxt.setdefault(mask & ~taken, {}), acc,
                             minor(yvar, local), sign)
        level = {mask: acc for mask, acc in nxt.items() if acc}
    if with_x:
        out = {}
        for mask, acc in level.items():
            xs = {ONE: -1 if triple.D.size * triple.E.size % 2 else 1}
            for j in range(1, triple.r + 1):
                local = tuple(rows[p][1] for p in superrow[j - 1]
                              if mask >> p & 1)
                prod = {}
                _add_product(prod, xs, minor(xvar, local), 1)
                xs = prod
            _add_product(out, acc, xs, 1)
    else:
        out = level.get(0, {})
    if not out:
        raise ZeroCoefficient("the tableau coefficient vanished")
    return Polynomial(out)


def delta_MT(triple, T):
    """Coefficient of the tableau's b-monomial in the J-reduced determinant."""
    return _tableau_coefficient(triple, monomial_M(T).m, with_x=True)


def delta_TY(triple, T):
    """Coefficient of the tableau's b-monomial in det Yo; pure y variables."""
    return _tableau_coefficient(triple, monomial_M(T).m, with_x=False)


# ---------------------------------------------------------------------------
# 0/1 specializations and exact evaluation.
# ---------------------------------------------------------------------------

def admissible_grids(triple, support):
    """Nonnegative grids supported inside `support` with the forced margins.

    Row i must sum to F_i - D_i and column h to E_h; these are exactly the
    grids whose b-monomial survives setting every b outside the support
    to zero.
    """
    t, s = triple.t, triple.s
    rowsum = [triple.f(i) - triple.d(i) for i in range(1, t + 1)]
    colrem = [triple.e(h) for h in range(1, s + 1)]
    allowed = [[h for h in range(1, s + 1) if (i, h) in support]
               for i in range(1, t + 1)]
    out = []
    grid = [[0] * s for _ in range(t)]

    def fill_row(i, cols, need):
        if not cols:
            if need == 0:
                next_row(i + 1)
            return
        h = cols[0]
        for v in range(min(need, colrem[h - 1]), -1, -1):
            grid[i - 1][h - 1] = v
            colrem[h - 1] -= v
            fill_row(i, cols[1:], need - v)
            colrem[h - 1] += v
            grid[i - 1][h - 1] = 0

    def next_row(i):
        if i > t:
            if all(c == 0 for c in colrem):
                out.append(tuple(tuple(r) for r in grid))
            return
        fill_row(i, allowed[i - 1], rowsum[i - 1])

    next_row(1)
    return out


def _numeric_Z(triple, betavals, assignment):
    """Integer Z with A = J and the b coefficients given by betavals."""
    rows = []
    dwidths = triple.D.parts
    ewidths = triple.E.parts
    for j, fj in enumerate(triple.F.parts, start=1):
        for u in range(1, fj + 1):
            row = []
            for k, dk in enumerate(dwidths, start=1):
                for v in range(1, dk + 1):
                    row.append(assignment[xvar(u, v)] if j == k else 0)
            for k, ek in enumerate(ewidths, start=1):
                b = betavals.get((j, k), 0)
                for v in range(1, ek + 1):
                    row.append(b * assignment[yvar(u, v)] if b else 0)
            rows.append(row)
    return rows


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
    """Exact value of the tableau coefficient at an integer (x, y) point.

    Uses 0/1 specializations: evaluate the determinant with b restricted
    to each admissible support and solve the triangular inclusion system
    relating those values to the individual grid coefficients.
    """
    m = monomial_M(T)
    support = set(m.support())
    grids = admissible_grids(triple, support)
    supports = [frozenset((i + 1, h + 1)
                          for i, row in enumerate(g)
                          for h, v in enumerate(row) if v) for g in grids]
    if len(set(supports)) != len(grids):
        return _delta_MT_eval_interp(triple, m, assignment)
    det_at = {}

    def value(U):
        if U not in det_at:
            betavals = {jk: 1 for jk in U}
            det_at[U] = bareiss_det(_numeric_Z(triple, betavals, assignment))
        return det_at[U]

    order = sorted(range(len(grids)), key=lambda i: len(supports[i]))
    coeffs = {}
    for i in order:
        c = value(supports[i])
        for j in order:
            if j != i and supports[j] < supports[i]:
                c -= coeffs[j]
        coeffs[i] = c
    return coeffs[grids.index(m.m)]


def _delta_MT_eval_interp(triple, m, assignment):
    """Interpolation fallback when supports of admissible grids collide."""
    support = sorted(m.support())
    bounds = {(i, h): min(triple.f(i) - triple.d(i), triple.e(h))
              for (i, h) in support}
    weights = {v: _coeff_weights(bounds[v] + 1, m.m[v[0] - 1][v[1] - 1])
               for v in support}

    def rec(idx, betavals, scale):
        if idx == len(support):
            return scale * bareiss_det(_numeric_Z(triple, betavals, assignment))
        v = support[idx]
        total = Fraction(0)
        for pt, w in enumerate(weights[v]):
            if w == 0:
                continue
            betavals[v] = pt
            total += rec(idx + 1, betavals, scale * w)
            del betavals[v]
        return total

    total = rec(0, {}, Fraction(1))
    assert total.denominator == 1
    return int(total)


def _coeff_weights(npoints, target):
    """w[t] such that sum_t w[t] f(t) = [z^target] f, for deg f < npoints."""
    weights = []
    for tpt in range(npoints):
        # expand prod_{u != tpt} (z - u) / (tpt - u); weight = [z^target]
        poly = [Fraction(1)]
        denom = 1
        for u in range(npoints):
            if u == tpt:
                continue
            denom *= tpt - u
            new = [Fraction(0)] * (len(poly) + 1)
            for i, c in enumerate(poly):
                new[i + 1] += c
                new[i] -= u * c
            poly = new
        w = poly[target] / denom if target < len(poly) else Fraction(0)
        weights.append(w)
    return weights
