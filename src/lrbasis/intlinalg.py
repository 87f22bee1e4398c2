"""Exact linear algebra over the integers, by fraction-free elimination
that leaves a row with a zero in the pivot column unscaled until it is
next read; ranks first try elimination modulo a prime."""

from .errors import NonSquare


def _eliminate(matrix):
    """Fraction-free (Bareiss) elimination on a copy of an integer matrix.

    Returns (rank, sign of the row swaps, last pivot).  Each pivot is a
    minor of the row-swapped matrix, so a full-rank square matrix has
    determinant sign * last pivot.

    A step with pivot p in column c maps each row below the pivot row to
    (row * p - row[c] * top) / prev, prev being the pivot before p: a row
    with row[c] = 0 is only scaled by p / prev, and the step skips it.  The
    skipped scales telescope, so level[i] is the pivot of the last step
    that updated row i (1 before any), and the eager row is
    row * prev / level[i].  An update divides by level[i] in place of prev,
    and a row that becomes the pivot row is first scaled by prev / level[i];
    both divisions are exact, as they give entries of the eager elimination.
    Zero entries stay zero under nonzero scales, so rank, sign and pivots
    are those of the eager elimination.
    """
    m = [list(row) for row in matrix]
    nrows, ncols = len(m), len(m[0]) if m else 0
    level = [1] * nrows
    rank, sign, prev = 0, 1, 1
    for c in range(ncols):
        if rank == nrows:
            break
        piv = next((i for i in range(rank, nrows) if m[i][c]), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            level[rank], level[piv] = level[piv], level[rank]
            sign = -sign
        top, lv = m[rank], level[rank]
        if lv != prev:
            top[c:] = [x * prev // lv for x in top[c:]]
        p, tail = top[c], top[c + 1:]
        for i in range(rank + 1, nrows):
            row = m[i]
            a = row[c]
            if a:
                lv = level[i]
                row[c + 1:] = [(x * p - a * y) // lv
                               for x, y in zip(row[c + 1:], tail)]
                level[i] = p
        prev = p
        rank += 1
    return rank, sign, prev


def bareiss_det(matrix):
    """Exact determinant of a square integer matrix; NonSquare otherwise."""
    if any(len(row) != len(matrix) for row in matrix):
        raise NonSquare("matrix is not square")
    rank, sign, pivot = _eliminate(matrix)
    return sign * pivot if rank == len(matrix) else 0


# A rank modulo the prime P is at most the rank over the rationals: a minor
# that is nonzero modulo P is nonzero.
P = (1 << 61) - 1


def _rank_mod_p(matrix):
    """Rank of an integer matrix modulo P, by Gaussian elimination."""
    rows, rank = [[x % P for x in row] for row in matrix], 0
    for c in range(len(matrix[0]) if matrix else 0):
        top = next((row for row in rows if row[c]), None)
        if top is not None:
            rows.remove(top)
            inv = pow(top[c], -1, P)
            for i, row in enumerate(rows):
                if row[c]:
                    a = row[c] * inv
                    rows[i] = [(x - a * y) % P for x, y in zip(row, top)]
            rank += 1
    return rank


def int_rank(matrix):
    """Exact rank of an integer matrix (equals the rank over the rationals):
    the rank modulo P when that is the number of rows, else by fraction-free
    elimination."""
    rank = _rank_mod_p(matrix)
    return rank if rank == len(matrix) else _eliminate(matrix)[0]
