"""Partitions, skew shapes, and compatible diagram triples.

All indices are 1-based: cell (a, c) means row a (from the top), column c
(from the left).  Partitions are stored without trailing zeros, so equal
diagrams compare equal regardless of how many zeros the caller supplied.
"""

from collections import namedtuple

from .errors import ShapeError, SizeMismatch


class Partition:
    """A weakly decreasing sequence of positive integers."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        if isinstance(parts, Partition):
            parts = parts.parts
        parts = tuple(parts)
        for p in parts:
            if type(p) is not int or p < 0:   # a bool is no part
                raise ShapeError(f"partition parts must be nonnegative integers, got {p!r}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ShapeError(f"parts must be weakly decreasing, got {list(parts)}")
        self.parts = tuple(p for p in parts if p > 0)

    @property
    def depth(self):
        """Number of (nonzero) rows."""
        return len(self.parts)

    @property
    def width(self):
        """Length of the first row."""
        return self.parts[0] if self.parts else 0

    @property
    def size(self):
        """Number of boxes."""
        return sum(self.parts)

    def part(self, i):
        """Row length at 1-based index i, zero past the end."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def contains(self, other):
        """Whether the Partition other fits inside self row by row."""
        return all(self.part(i) >= other.part(i) for i in range(1, other.depth + 1))

    def transpose(self):
        """Conjugate partition: column lengths become row lengths."""
        if not self.parts:
            return Partition()
        return Partition(tuple(sum(1 for p in self.parts if p >= c)
                               for c in range(1, self.parts[0] + 1)))

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __str__(self):
        return format_partition(self)


def parse_partition(text):
    """Parse "3,3,2,1,1" (or "-" for the empty partition)."""
    text = text.strip()
    if text in ("-", ""):
        return Partition()
    try:
        parts = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ShapeError(f"cannot parse partition from {text!r}")
    return Partition(parts)


def format_partition(p):
    """Inverse of parse_partition."""
    p = Partition(p)
    return ",".join(str(x) for x in p.parts) if p.parts else "-"


class SkewShape:
    """The cells of outer minus inner, for inner contained in outer."""

    __slots__ = ("outer", "inner", "cells")

    def __init__(self, outer, inner=()):
        self.outer = Partition(outer)
        self.inner = Partition(inner)
        if not self.outer.contains(self.inner):
            raise ShapeError(f"{self.inner} is not contained in {self.outer}")
        self.cells = tuple((a, c)
                           for a in range(1, self.outer.depth + 1)
                           for c in range(self.inner.part(a) + 1, self.outer.part(a) + 1))

    def row_span(self, a):
        """(first, last) column of row a, or None when the row is empty."""
        lo, hi = self.inner.part(a) + 1, self.outer.part(a)
        return (lo, hi) if lo <= hi else None

    def column_rows(self, c):
        """Rows of the shape meeting column c, top to bottom."""
        return [a for a in range(1, self.outer.depth + 1)
                if self.inner.part(a) < c <= self.outer.part(a)]

    def __eq__(self, other):
        return (isinstance(other, SkewShape)
                and self.outer == other.outer and self.inner == other.inner)

    def __hash__(self):
        return hash((self.outer, self.inner))


class LRTriple(namedtuple("LRTriple", "D E F dt_in_ft")):
    """Diagrams (D, E, F) with |D| + |E| = |F|, and whether transpose(D)
    is contained in transpose(F), as D is in F: transposing keeps
    containment.

    The paper's x and y matrices have n rows and k and ell columns, for
    any sizes large enough: the triple's vectors use only x[1..F_1, 1..D_1]
    and y[1..F_1, 1..E_1], so no size is stored.
    """

    __slots__ = ()

    def __new__(cls, D, E, F):
        return super().__new__(cls, D, E, F, F.contains(D))

    @property
    def r(self):
        return self.D.depth

    @property
    def s(self):
        return self.E.depth

    @property
    def t(self):
        return self.F.depth

    @property
    def Dt(self):
        return self.D.transpose()

    @property
    def Et(self):
        return self.E.transpose()

    @property
    def Ft(self):
        return self.F.transpose()

    def d(self, i):
        return self.D.part(i)

    def f(self, i):
        return self.F.part(i)

    def skew_shape(self):
        """The skew diagram transpose(F) minus transpose(D)."""
        if not self.dt_in_ft:
            raise ShapeError("transpose(D) is not contained in transpose(F)")
        return SkewShape(self.Ft, self.Dt)


def validate_triple(D, E, F):
    """Build an LRTriple; raises SizeMismatch when |D| + |E| != |F|.

    Its vectors use the rows 1..F_1, the x columns 1..D_1 and the y
    columns 1..E_1, so check_hwv applies the row operators of rows
    2..F_1 and the column operators of x columns 2..D_1 and y columns
    2..E_1; any operator past these finds no variable.
    """
    D, E, F = Partition(D), Partition(E), Partition(F)
    if D.size + E.size != F.size:
        raise SizeMismatch(f"|D| + |E| = {D.size + E.size} but |F| = {F.size}")
    return LRTriple(D, E, F)
