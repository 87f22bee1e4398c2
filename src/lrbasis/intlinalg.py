"""Exact linear algebra over the integers, by fraction-free elimination."""

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


def int_rank(matrix):
    """Exact rank of an integer matrix (equals the rank over the rationals)."""
    return _eliminate(matrix)[0]
