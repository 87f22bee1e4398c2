from functools import cache, lru_cache
from itertools import combinations, permutations
from pathlib import Path

import pytest

from lrbasis import enumerate_lr, monomial_M, parse_partition, validate_triple
from lrbasis.errors import DimensionMismatch, UnorderedVariable
from lrbasis.polyring import (Layout, Polynomial, bvar, column_minors,
                              mono_text, triple_layout, var_key, xvar, yvar,
                              zvar)

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading, language):
    """The lines of the first ```language block below a README heading."""
    block = README.read_text().split(heading, 1)[1].split(f"```{language}\n", 1)[1]
    return block.split("```", 1)[0].splitlines()


@pytest.fixture(scope="session")
def running():
    """The large worked example used throughout the test suite."""
    return validate_triple(parse_partition("3,3,2,1,1"),
                           parse_partition("3,3,2,1"),
                           parse_partition("5,5,4,3,1,1"))


# The four fillings of the worked example, keyed by their shape rows
# (top to bottom, left to right), and their peeling exponent grids.
RUNNING_TABLEAUX = {
    "T": [[1], [1], [1, 2], [1, 2, 3], [2, 3]],
    "T1": [[1], [1], [1, 2], [1, 2, 2], [3, 3]],
    "T2": [[1], [1], [2, 2], [1, 1, 3], [2, 3]],
    "T3": [[1], [2], [1, 3], [1, 1, 2], [2, 3]],
}

RUNNING_GRIDS = {
    "T": [[0, 0, 1, 1], [0, 2, 0, 0], [1, 0, 1, 0],
          [1, 1, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]],
    "T1": [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 1, 0],
           [1, 1, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]],
}

RUNNING_E = {
    "T": "y[1,1]*y[2,1]*y[3,1]*y[3,2]*y[4,1]*y[4,2]*y[4,3]*y[5,2]*y[5,3]",
    "T1": "y[1,1]*y[2,1]*y[3,1]*y[3,2]*y[4,1]*y[4,2]^2*y[5,3]^2",
}


@lru_cache(maxsize=None)
def partitions_of(n):
    """All partitions of n, as tuples, largest-first lex order."""
    if n == 0:
        return ((),)
    out = []

    def build(remaining, maxpart, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for p in range(min(remaining, maxpart), 0, -1):
            acc.append(p)
            build(remaining - p, p, acc)
            acc.pop()

    build(n, n, [])
    return tuple(out)


def all_triples(max_size):
    """Every (D, E, F) with |F| <= max_size and |D| + |E| = |F|."""
    for n in range(1, max_size + 1):
        for f in partitions_of(n):
            for a in range(n + 1):
                for d in partitions_of(a):
                    for e in partitions_of(n - a):
                        yield validate_triple(d, e, f)


def random_triple(rng, max_size, require_tableaux=False, max_tries=1000):
    """A random triple, optionally resampled until it has an LR tableau."""
    for _ in range(max_tries):
        n = rng.randint(1, max_size)
        f = rng.choice(partitions_of(n))
        a = rng.randint(0, n)
        d = rng.choice(partitions_of(a))
        e = rng.choice(partitions_of(n - a))
        triple = validate_triple(d, e, f)
        if not require_tableaux or enumerate_lr(triple):
            return triple
    raise RuntimeError("could not sample a triple with tableaux")


# A layout for polynomials built by hand: x, y and b variables with rows
# and columns 1..5, and z[1..4]; exponents up to 8.
LAYOUT = Layout([make(i, j) for make in (xvar, yvar, bvar)
                 for i in range(1, 6) for j in range(1, 6)]
                + [zvar(i) for i in range(1, 5)], 8)


def pack(m, layout=LAYOUT):
    """The packed monomial of a tuple-form one."""
    return sum(e << layout.shift[v] for v, e in m)


def poly(terms, layout=LAYOUT):
    """The Polynomial of {tuple-form monomial: coefficient}."""
    return Polynomial({pack(m, layout): c for m, c in terms.items()}, layout)


def unpacked(p):
    """The terms of a Polynomial as {tuple-form monomial: coefficient}."""
    return {p.layout.unpack(m): c for m, c in p.terms.items()}


def oracle_terms(p):
    """(coefficient, tuple-form monomial) of each term of p in output order,
    sorted on the list-based key polyring's writers once used: the degree,
    then the field index and exponent of each variable from the first, an
    earlier variable or a larger exponent coming first."""
    lay = p.layout
    w = lay.width

    def key(m):
        fields = lay.fields(m)
        # e - (k << w) orders as (-k, e), since e < 1 << w
        return sum(e for _, e in fields), [e - (k << w) for k, e in fields]

    return [(p.terms[m], lay.unpack(m))
            for m in sorted(p.terms, key=key, reverse=True)]


def oracle_json(p):
    """The dict whose json.dumps poly_to_json must write byte for byte."""
    return {"terms": [{"c": str(c), "m": [[v[0], v[1], v[2], e] for v, e in m]}
                      for c, m in oracle_terms(p)]}


def oracle_text(p):
    """The text poly_text must write."""
    if p.is_zero():
        return "0"
    return " ".join(f"{'+' if c >= 0 else '-'}{abs(c)}"
                    + ("*" + mono_text(m) if m else "")
                    for c, m in oracle_terms(p))


def evaluate(p, assignment):
    """Value of a polynomial at an integer point that assigns each of its
    variables; KeyError names a variable left out."""
    total = 0
    for m, c in unpacked(p).items():
        for var, e in m:
            c *= assignment[var] ** e
        total += c
    return total


# ---------------------------------------------------------------------------
# Tuple-form monomials: the (variable, exponent) pairs in variable order,
# merged and sorted at each product.  The small-size oracle that the packed
# integer monomials of polyring must agree with.
# ---------------------------------------------------------------------------

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


def matrix_rows(triple, with_x=True):
    """The rows of Z (with_x) or of Yo, as (superrow j, local row u) pairs.

    Superrow j of Z is rows 1..F_j of the x and y matrices; of Yo, rows
    D_j + 1..F_j, so Yo needs D_j <= F_j.
    """
    if not with_x and not triple.dt_in_ft:
        raise DimensionMismatch("some F_j < D_j; the reduced matrix is undefined")
    return [(j, u) for j in range(1, triple.t + 1)
            for u in range(1 if with_x else triple.d(j) + 1, triple.f(j) + 1)]


def tuple_add_product(acc, p, q, c=1):
    """acc + c * p * q on tuple-form term dicts, summed into acc in place;
    None is zero."""
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


def laplace_plan(triple, grid, with_x):
    """The terms of the coefficient of b^grid in det Z (with_x) or det Yo.

    The generalized Laplace expansion of hwv._laplace_sums, built for one
    grid at a time and summed forward from y block 1 by plan_sum: the
    oracle that the backward sum shared by all the grids must equal.

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
    rows = matrix_rows(triple, with_x)   # (superrow, local row), in order
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

    @cache
    def local(bits):
        return tuple(i + 1 for i in range(bits.bit_length()) if bits >> i & 1)

    final = tuple((mask, sign,
                   tuple(local(mask >> low & span) for low, span in spans))
                  for mask in masks)
    for i in reversed(range(len(levels))):
        levels[i] = tuple(edge for edge in levels[i] if edge[1] in masks)
        masks = {edge[0] for edge in levels[i]}
    return start, tuple(levels), final


def plan_sum(plan, value, accumulate, one):
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


def tuple_coefficient(triple, T, with_x=True):
    """delta_MT (with_x) or delta_TY of a tableau, summed over tuple-form
    monomials by the forward Laplace plan."""
    return plan_sum(laplace_plan(triple, monomial_M(T).m, with_x),
                    lambda v: {((v, 1),): 1}, tuple_add_product, {(): 1})


def move_one_power(terms, families, axis, src, dst):
    """verify._move_one_power on tuple-form term dicts: the sum over the
    terms c*m and their variables v matching src of c * e_v * m * w / v."""
    out = {}
    for m, c in terms.items():
        md = dict(m)
        for v, e in m:
            if v[0] not in families or v[axis] != src:
                continue
            w = (v[0], dst, v[2]) if axis == 1 else (v[0], v[1], dst)
            new = dict(md)
            new[v] = e - 1
            new[w] = new.get(w, 0) + 1
            m2 = mono_from_dict(new)
            s = out.get(m2, 0) + c * e
            if s:
                out[m2] = s
            elif m2 in out:
                del out[m2]
    return out


def y_order_key(m):
    """Key of a tuple-form y-monomial under which the larger monomial has
    the larger key: its degree, then its variables as a weakly decreasing
    sequence, y[1,1] > y[2,1] > ... > y[1,2] > ...  The reference for
    polyring.leading_monomial's key on packed monomials."""
    seq = []
    for v, e in m:
        if v[0] != "y":
            raise UnorderedVariable(f"{v} is not a y variable")
        seq += [(-v[2], -v[1])] * e
    seq.sort(reverse=True)
    return len(seq), seq


def determinant_naive(matrix):
    """Permutation-sum determinant: the reference for polyring.column_minors
    and determinant, for small nonempty matrices."""
    layout = matrix[0][0].layout
    n = len(matrix)
    total = {}
    for perm in permutations(range(n)):
        sign = 1
        p = list(perm)
        for i in range(n):
            while p[i] != i:
                j = p[i]
                p[i], p[j] = p[j], p[i]
                sign = -sign
        prod = {0: sign}
        for r in range(n):
            prod = layout.add_product(None, prod, matrix[r][perm[r]].terms)
        layout.add_product(total, prod, {0: 1})
    return Polynomial(total, layout)


def tableau_by_rows(tabs, rows):
    """Pick the tableau whose row lists equal `rows`."""
    for T in tabs:
        if T.to_json()["rows"] == rows:
            return T
    raise AssertionError(f"no tableau with rows {rows}")


def build_Yo(triple, B="symbolic"):
    """The rows of Yo: Z's y columns on rows D_j + 1..F_j of superrow j."""
    from lrbasis.hwv import _coefficients
    B = _coefficients(triple, B, "B")
    layout = triple_layout(triple)
    return [[c * Polynomial.variable(yvar(u, v), layout)
             for c, w in zip(B[j - 1], triple.E.parts)
             for v in range(1, w + 1)]
            for j, u in matrix_rows(triple, False)]


def b_variable_coefficients(tr, with_x=True):
    """Each tableau's coefficient, read off the fully expanded determinant.

    The whole determinant of Z (or of Yo when with_x is false) is expanded
    with symbolic b coefficients, and the coefficient of each tableau's
    b-monomial b^M(T) is read off it: the reference that delta_MT and
    delta_TY must equal.  For small triples only, since the expansion
    grows far beyond the one coefficient it is asked for.
    """
    from lrbasis import delta, monomial_M
    from lrbasis.polyring import coefficient_of, determinant, mono
    d = delta(tr) if with_x else determinant(build_Yo(tr))
    out = []
    for T in enumerate_lr(tr):
        grid = monomial_M(T).m
        b = mono(*((bvar(i, h), e) for i, row in enumerate(grid, start=1)
                   for h, e in enumerate(row, start=1) if e))
        out.append(coefficient_of(d, b, {"b"}))
    return out


def grids_of(tabs):
    """The exponent grid M(T) of each tableau."""
    return [monomial_M(T).m for T in tabs]


def delta_MT_all(triple, tabs):
    """delta_MT of each tableau, in order, from one sum over their grids:
    the vectors that the evaluation checks are compared against."""
    from lrbasis import hwv
    return hwv._tableau_coefficients(triple, tabs, True)


def coefficient_rank(polys):
    """Rank of the exact coefficient matrix of the polynomials: first on
    the columns of each one's largest packed monomial, which give the full
    rank whenever they are distinct (the minor is then triangular in their
    order), and on every column only when that falls short."""
    from lrbasis.intlinalg import int_rank

    def rank(monos):
        return int_rank([[p.terms.get(m, 0) for m in monos] for p in polys])
    top = rank({max(p.terms, default=0) for p in polys})
    return top if top == len(polys) else rank({m for p in polys for m in p.terms})


def x0_coefficient(triple, p):
    """The coefficient of x0 = prod_v x[v,v]^(D'_v) in a vector, with x0
    divided out: its only x part with no off-diagonal variable.  Yo is Z
    at x = I, so for delta_MT(T) it is +-delta_TY(T)."""
    lay = p.layout
    xbits = sum(lay.mask << s for v, s in lay.shift.items() if v[0] == "x")
    x0 = sum(d << lay.shift[xvar(v, v)] for v, d in enumerate(triple.Dt.parts, 1))
    return Polynomial({m - x0: c for m, c in p.terms.items() if m & xbits == x0},
                      lay)


def monomial_e1(T):
    """The factors of e(T) recording where each strip starts.

    One y[a, 1] per peeling strip, a = the skew-shape row of the strip's
    1-cell; for an LR tableau this is exactly the y[.,1]-part of e(T).
    """
    from lrbasis import standard_peeling
    from lrbasis.polyring import mono
    return mono(*((yvar(strip[0][0], 1), 1)
                  for strip in standard_peeling(T).strips))


def mono_divides(m1, m2):
    """Whether the monomial m1 divides m2."""
    d2 = dict(m2)
    return all(d2.get(v, 0) >= e for v, e in m1)


def check_e1_factorization(triple, T):
    """The strip-start factors account for the whole first y column of
    e(T), and divide the leading monomial of delta_TY."""
    from lrbasis import delta_TY, leading_monomial, monomial_e
    from lrbasis.polyring import mono_restrict
    e1 = monomial_e1(T)
    e = monomial_e(T)
    if not mono_divides(e1, e):
        return False
    if mono_restrict(e, {"y"}) != e:
        return False
    first_col = tuple((v, x) for v, x in e if v[2] == 1)
    if first_col != e1:
        return False
    lead, _ = leading_monomial(delta_TY(triple, T))
    return mono_divides(e1, lead)


def admissible_grids(triple, support):
    """Nonnegative grids supported inside `support` with the forced margins.

    Row i must sum to F_i - D_i and column h to E_h; these are exactly the
    grids whose b-monomial survives setting every b outside the support
    to zero.
    """
    t, s = triple.t, triple.s
    rowsum = [triple.f(i) - triple.d(i) for i in range(1, t + 1)]
    colrem = [triple.E.part(h) for h in range(1, s + 1)]
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


def grid_support(grid):
    """The 1-based (row, column) positions of a grid's nonzero entries."""
    return frozenset((i, h) for i, row in enumerate(grid, start=1)
                     for h, v in enumerate(row, start=1) if v)


def grid_sums(grid):
    """(row sums, column sums) of a grid."""
    return (tuple(sum(row) for row in grid),
            tuple(sum(col) for col in zip(*grid)))


def check_grid(grid, triple):
    """Whether a peeling exponent grid has row sums F_i - D_i, column sums
    E_h and the shuffle inequalities sum_{j>k} m[j][i] >= sum_{j>=k} m[j][i+1]."""
    nrows, ncols = len(grid), len(grid[0]) if grid else 0
    if nrows != triple.t or (triple.s and ncols != triple.s):
        return False
    if grid_sums(grid) != (tuple(triple.f(i) - triple.d(i)
                                 for i in range(1, triple.t + 1)),
                           tuple(triple.E.part(h) for h in range(1, ncols + 1))):
        return False
    return all(sum(grid[j][i] for j in range(k + 1, nrows))
               >= sum(grid[j][i + 1] for j in range(k, nrows))
               for i in range(ncols - 1) for k in range(nrows))


def _numeric_Z(triple, betavals, assignment):
    """Integer Z with A = J and the b coefficients given by betavals."""
    rows = []
    for j, fj in enumerate(triple.F.parts, start=1):
        for u in range(1, fj + 1):
            row = []
            for k, dk in enumerate(triple.D.parts, start=1):
                row.extend(assignment[xvar(u, v)] if j == k else 0
                           for v in range(1, dk + 1))
            for k, ek in enumerate(triple.E.parts, start=1):
                b = betavals.get((j, k), 0)
                row.extend(b * assignment[yvar(u, v)]
                           for v in range(1, ek + 1))
            rows.append(row)
    return rows


def zero_one_coefficient(triple, T, assignment):
    """delta_MT's value at a point, from 0/1 specializations of the b's.

    det Z is evaluated with b = 1 on the support of each admissible grid
    and 0 elsewhere; each value is the sum of the grid coefficients whose
    support it contains, a triangular system solved smallest support
    first.  When two grids share a support, interpolation_coefficient
    takes over.  The reference that delta_MT_eval must equal; it takes
    full |F|-by-|F| determinants, so it is meant for small triples.
    """
    from lrbasis import monomial_M
    from lrbasis.intlinalg import bareiss_det
    m = monomial_M(T)
    grids = admissible_grids(triple, grid_support(m.m))
    supports = [grid_support(g) for g in grids]
    if len(set(supports)) != len(grids):
        return interpolation_coefficient(triple, T, assignment)
    coeffs = {}
    for i in sorted(range(len(grids)), key=lambda i: len(supports[i])):
        betavals = {jk: 1 for jk in supports[i]}
        coeffs[i] = (bareiss_det(_numeric_Z(triple, betavals, assignment))
                     - sum(c for j, c in coeffs.items()
                           if supports[j] < supports[i]))
    return coeffs[grids.index(m.m)]


def _coeff_weights(npoints, target):
    """w[t] such that sum_t w[t] f(t) = [z^target] f, for deg f < npoints."""
    from fractions import Fraction
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
        weights.append(poly[target] / denom if target < len(poly)
                       else Fraction(0))
    return weights


def interpolation_coefficient(triple, T, assignment):
    """delta_MT's value at a point, by interpolating det Z in each b.

    Each b on the tableau's support takes the values 0..bound, where bound
    caps its degree, and the coefficient of its exponent is read off by
    Lagrange weights; the b's off the support are 0.
    """
    from fractions import Fraction
    from lrbasis import monomial_M
    from lrbasis.intlinalg import bareiss_det
    m = monomial_M(T)
    support = sorted(grid_support(m.m))
    weights = {(i, h): _coeff_weights(
        min(triple.f(i) - triple.d(i), triple.E.part(h)) + 1, m.m[i - 1][h - 1])
        for (i, h) in support}

    def rec(idx, betavals, scale):
        if idx == len(support):
            return scale * bareiss_det(_numeric_Z(triple, betavals, assignment))
        v = support[idx]
        total = Fraction(0)
        for pt, w in enumerate(weights[v]):
            if w:
                total += rec(idx + 1, {**betavals, v: pt}, scale * w)
        return total

    total = rec(0, {}, Fraction(1))
    assert total.denominator == 1
    return int(total)


@lru_cache(maxsize=None)
def tableau_ssyt_monomials(shape, nvars):
    """Weight vectors of the semistandard tableaux of a shape, one by one.

    Returns {weight tuple: multiplicity}, filling the cells row by row with
    entries 1..nvars, rows weakly increasing and columns strictly.  The
    reference that the oracle's Kostka-number build must equal; it visits
    every tableau, so it is meant for small shapes.
    """
    cells = [(a, c) for a, width in enumerate(shape, start=1)
             for c in range(1, width + 1)]
    counts = {}
    entries = {}

    def backtrack(idx):
        if idx == len(cells):
            w = [0] * nvars
            for v in entries.values():
                w[v - 1] += 1
            w = tuple(w)
            counts[w] = counts.get(w, 0) + 1
            return
        a, c = cells[idx]
        lo = entries.get((a, c - 1), 1)
        up = entries.get((a - 1, c))
        lo = max(lo, up + 1 if up is not None else 1)
        for v in range(lo, nvars + 1):
            entries[(a, c)] = v
            backtrack(idx + 1)
            del entries[(a, c)]

    backtrack(0)
    return counts


def _tableau_schur(lam, layout, nvars):
    return poly({tuple((zvar(i + 1), e) for i, e in enumerate(w) if e): c
                 for w, c in tableau_ssyt_monomials(tuple(lam), nvars).items()},
                layout)


def peel_lr_coefficient(triple):
    """lr_coefficient by multiplying and peeling whole Schur polynomials.

    s_D' * s_E' is built from tableau_ssyt_monomials; then c * s_mu, built
    the same way, is subtracted for the lex-greatest surviving exponent
    vector z^mu until nothing is left.  The reference that the oracle's
    Kostka-number peel must equal, for small triples.
    """
    Dt, Et, Ft = triple.Dt, triple.Et, triple.Ft
    nvars = max(1, Dt.depth, Et.depth, Ft.depth)
    return _peel_product(Dt.parts, Et.parts, nvars).get(Ft.parts, 0)


@lru_cache(maxsize=None)
def _peel_product(mu, nu, nvars):
    layout = Layout([zvar(i) for i in range(1, nvars + 1)], sum(mu) + sum(nu))
    # each term of the product unpacked once, to its exponent vector
    work = {}
    for m, c in (_tableau_schur(mu, layout, nvars)
                 * _tableau_schur(nu, layout, nvars)).terms.items():
        w = [0] * nvars
        for v, e in layout.unpack(m):
            w[v[1] - 1] = e
        work[tuple(w)] = c
    out = {}
    while work:
        top = max(work)
        assert all(top[i] >= top[i + 1] for i in range(nvars - 1)), top
        c = work[top]
        assert c > 0, (top, c)
        lam = tuple(x for x in top if x)
        out[lam] = c
        for w, k in tableau_ssyt_monomials(lam, nvars).items():
            rest = work.get(w, 0) - c * k
            if rest:
                work[w] = rest
            else:
                del work[w]
    return out


# ---------------------------------------------------------------------------
# Integer matrices: the eager forms of intlinalg._eliminate and
# hwv._entries, and the matrices of the factorization identity.
# ---------------------------------------------------------------------------

def eliminate_eager(matrix):
    """Fraction-free (Bareiss) elimination that rescales every row below
    the pivot at every step: (rank, sign of the row swaps, last pivot),
    the reference for intlinalg._eliminate."""
    m = [list(row) for row in matrix]
    nrows, ncols = len(m), len(m[0]) if m else 0
    rank, sign, prev = 0, 1, 1
    for c in range(ncols):
        if rank == nrows:
            break
        piv = next((i for i in range(rank, nrows) if m[i][c]), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            sign = -sign
        top, p = m[rank], m[rank][c]
        for row in m[rank + 1:]:
            a = row[c]
            for j in range(c + 1, ncols):
                row[j] = (row[j] * p - a * top[j]) // prev
        prev = p
        rank += 1
    return rank, sign, prev


def entries_eager(triple, A, B, value):
    """The entries of Z with one value lookup per cell, the reference for
    hwv._entries: row (j, u) is A[j,k] * x[u,v] for v = 1..D_k, block by
    block, then B[j,k] * y[u,v] for v = 1..E_k."""
    blocks = [(A, xvar, triple.D.parts), (B, yvar, triple.E.parts)]
    return [[c * value(make_var(u, v))
             for M, make_var, widths in blocks
             for c, w in zip(M[j - 1], widths)
             for v in range(1, w + 1)]
            for j, u in matrix_rows(triple)]


def matmul(X, Y, ncols):
    """The product of integer matrices X and Y, Y having ncols columns."""
    return [[sum(x[i] * Y[i][j] for i in range(len(Y))) for j in range(ncols)]
            for x in X]


def triangular_pair(rng, triple):
    """(A, B, J, B0, factor) with det Z(A, B) = factor * det Z(J, B0).

    A = N Dg J V and B = N Dg B0, with N unit lower triangular, Dg
    diagonal and V unit upper triangular; factor is the product of
    Dg[i][i] ** F_i over the first r rows."""
    t, r, s = triple.t, triple.r, triple.s
    N = [[1 if i == j else (rng.randint(-3, 3) if i > j else 0)
          for j in range(t)] for i in range(t)]
    diag = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(r)]
    Dg = [[(diag[i] if i < r else 1) if i == j else 0 for j in range(t)]
          for i in range(t)]
    V = [[1 if i == j else (rng.randint(-3, 3) if i < j else 0)
          for j in range(r)] for i in range(r)]
    J = [[1 if i == j else 0 for j in range(r)] for i in range(t)]
    B0 = [[rng.randint(-5, 5) for _ in range(s)] for _ in range(t)]
    A = matmul(matmul(N, Dg, t), matmul(J, V, r), r)
    B = matmul(matmul(N, Dg, t), B0, s)
    factor = 1
    for i in range(r):
        factor *= diag[i] ** triple.f(i + 1)
    return A, B, J, B0, factor
