"""Exact linear algebra over the integers, by fraction-free elimination;
ranks first try elimination modulo a prime."""

from .errors import NonSquare


def _eliminate(matrix):
    """Fraction-free (Bareiss) elimination on a copy of an integer matrix.

    Returns (rank, sign of the row swaps, last pivot).  Each pivot is a
    minor of the row-swapped matrix, so a full-rank square matrix has
    determinant sign * last pivot.
    """
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
