"""Computations made apart from lrbasis, used to check its outputs.

Nothing here imports the package: partitions, conjugation, the
Littlewood-Richardson rule on the untransposed shape F/D, polynomial JSON
parsing, evaluation and multidegrees are all re-derived from their
definitions.  Each ``check_*`` function returns None when the observed
value is right and a one-line reason when it is wrong, so the self-test
can feed it a deliberately wrong value and see it fail.
"""

from functools import lru_cache


@lru_cache(maxsize=None)
def partitions(n, maxpart=None):
    """All partitions of n as tuples, parts at most maxpart."""
    if maxpart is None:
        maxpart = n
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, maxpart), 0, -1):
        for rest in partitions(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def conj(p):
    """Conjugate partition: the column lengths of p."""
    return tuple(sum(1 for x in p if x >= c) for c in range(1, (p[0] if p else 0) + 1))


def contains(outer, inner):
    return len(inner) <= len(outer) and all(a >= b for a, b in zip(outer, inner))


def part(p, i):
    """1-based part of p, zero past its end."""
    return p[i - 1] if 1 <= i <= len(p) else 0


def lr_count(D, E, F):
    """c(D, E; F) by the Littlewood-Richardson rule on the shape F/D.

    Counts semistandard fillings of F/D with content E whose reverse
    reading word (rows top to bottom, each right to left) is a lattice
    word.  Cells are filled in exactly that reading order, so the lattice
    condition is checked on every prefix as it is built.
    """
    if sum(D) + sum(E) != sum(F) or not contains(F, D):
        return 0
    cells = [(a, c) for a in range(1, len(F) + 1)
             for c in range(part(F, a), part(D, a), -1)]
    top = len(E)
    used = [0] * (top + 1)
    filling = {}

    def fill(idx):
        if idx == len(cells):
            return 1
        a, c = cells[idx]
        hi = filling.get((a, c + 1), top)         # rows weakly increase
        above = filling.get((a - 1, c), 0)         # columns strictly increase
        total = 0
        for v in range(above + 1, hi + 1):
            if used[v] == E[v - 1] or (v > 1 and used[v] == used[v - 1]):
                continue
            used[v] += 1
            filling[(a, c)] = v
            total += fill(idx + 1)
            del filling[(a, c)]
            used[v] -= 1
        return total

    return fill(0)


# ---------------------------------------------------------------------------
# Polynomials as printed by `lrb delta`: {"terms": [{"c": "<int>",
# "m": [[family, i, j, exponent], ...]}, ...]}.
# ---------------------------------------------------------------------------

def parse_poly(data):
    """[(coefficient, ((family, i, j, exponent), ...)), ...]"""
    return [(int(t["c"]), tuple((f, int(i), int(j), int(e)) for f, i, j, e in t["m"]))
            for t in data["terms"]]


def poly_eval(terms, point):
    total = 0
    for c, m in terms:
        v = c
        for f, i, j, e in m:
            v *= point[(f, i, j)] ** e
        total += v
    return total


def multidegree(m):
    """(row degrees, x column degrees, y column degrees) of one monomial."""
    rows, xcols, ycols = {}, {}, {}
    for f, i, j, e in m:
        if f not in ("x", "y"):
            return None
        rows[i] = rows.get(i, 0) + e
        cols = xcols if f == "x" else ycols
        cols[j] = cols.get(j, 0) + e

    def vec(d):
        v = [d.get(i, 0) for i in range(1, max(d, default=0) + 1)]
        while v and v[-1] == 0:
            v.pop()
        return tuple(v)

    return vec(rows), vec(xcols), vec(ycols)


def random_point(rng, D, E, F):
    """Nonzero integers for every x[i,j] and y[i,j] a triple's matrices use."""
    point = {}
    for i in range(1, max(1, part(F, 1)) + 1):
        for j in range(1, max(1, part(D, 1)) + 1):
            point[("x", i, j)] = rng.choice((-1, 1)) * rng.randint(1, 10**6)
        for j in range(1, max(1, part(E, 1)) + 1):
            point[("y", i, j)] = rng.choice((-1, 1)) * rng.randint(1, 10**6)
    return point


def triangular_pair(rng, D, E, F):
    """(A, B, J, B0, factor) for the factorization identity.

    A = N Dg J V and B = N Dg B0 with N unit lower triangular, V unit upper
    triangular and Dg diagonal; then det Z(A, B) = factor * det Z(J, B0)
    with factor the product of diag_i ** F_i over the first depth(D) rows.
    """
    t, r, s = len(F), len(D), len(E)

    def matmul(X, Y):
        return [[sum(X[i][x] * Y[x][j] for x in range(len(Y))) for j in range(len(Y[0]))]
                for i in range(len(X))]

    N = [[1 if i == j else (rng.randint(-3, 3) if i > j else 0) for j in range(t)]
         for i in range(t)]
    diag = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(r)]
    Dg = [[(diag[i] if i < r else 1) if i == j else 0 for j in range(t)] for i in range(t)]
    V = [[1 if i == j else (rng.randint(-3, 3) if i < j else 0) for j in range(r)]
         for i in range(r)]
    J = [[1 if i == j else 0 for j in range(r)] for i in range(t)]
    B0 = [[rng.randint(-5, 5) for _ in range(s)] for _ in range(t)]
    ND = matmul(N, Dg)
    factor = 1
    for i in range(r):
        factor *= diag[i] ** F[i]
    return matmul(ND, matmul(J, V)), matmul(ND, B0), J, B0, factor


# ---------------------------------------------------------------------------
# Checks.
# ---------------------------------------------------------------------------

def check_counts(observed, expected):
    """Every observed count equals the independent count."""
    for name, value in observed.items():
        if value != expected:
            return f"{name} = {value}, independent count {expected}"
    return None


def check_multidegree(terms, D, E, F):
    """Every term has multidegree (F', D', E')."""
    if not terms:
        return "empty polynomial"
    want = (conj(F), conj(D), conj(E))
    for _, m in terms:
        got = multidegree(m)
        if got != want:
            return f"term multidegree {got}, expected {want}"
    return None


def check_equal(what, got, want):
    return None if got == want else f"{what}: {got} != {want}"
