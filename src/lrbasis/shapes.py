"""Partitions, skew shapes, and compatible diagram triples.

All indices are 1-based: cell (a, c) means row a (from the top), column c
(from the left).  Partitions are stored without trailing zeros, so equal
diagrams compare equal regardless of how many zeros the caller supplied.
"""

from dataclasses import dataclass, field

from .errors import DepthExceeded, ShapeError, SizeMismatch


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
        """Whether other fits inside self row by row."""
        other = Partition(other)
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

    def __repr__(self):
        return f"Partition({list(self.parts)})"

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

    @property
    def size(self):
        return len(self.cells)

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

    def __repr__(self):
        return f"SkewShape({list(self.outer.parts)}, {list(self.inner.parts)})"


@dataclass(frozen=True)
class LRTriple:
    """Diagrams (D, E, F) with |D| + |E| = |F| and ambient sizes n, k, ell.

    D lives on k columns, E on ell columns, F on n rows; the x matrix is
    n-by-k and the y matrix is n-by-ell.
    """

    D: Partition
    E: Partition
    F: Partition
    n: int
    k: int
    ell: int
    dt_in_ft: bool = field(init=False)

    def __post_init__(self):
        if not self.F.transpose().contains(self.D.transpose()):
            object.__setattr__(self, "dt_in_ft", False)
        else:
            object.__setattr__(self, "dt_in_ft", True)

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


def validate_triple(D, E, F, n=None, k=None, ell=None):
    """Build an LRTriple, choosing minimal ambient sizes when omitted.

    Raises SizeMismatch when the box counts disagree and DepthExceeded when
    a diagram does not fit in its matrix.
    """
    D, E, F = Partition(D), Partition(E), Partition(F)
    if D.size + E.size != F.size:
        raise SizeMismatch(f"|D| + |E| = {D.size + E.size} but |F| = {F.size}")
    t = F.depth
    if n is None:
        n = max(1, F.depth, F.width)
    # F needs k + ell >= t: a size left out is the least that fits, and
    # when both are, k grows first; a size passed in is kept
    if k is None:
        k = max(1, D.depth, D.width,
                t - (max(1, E.depth, E.width) if ell is None else ell))
    if ell is None:
        ell = max(1, E.depth, E.width, t - k)
    if D.depth > k:
        raise DepthExceeded(f"depth(D) = {D.depth} exceeds k = {k}")
    if E.depth > ell:
        raise DepthExceeded(f"depth(E) = {E.depth} exceeds ell = {ell}")
    if F.depth > min(n, k + ell):
        raise DepthExceeded(f"depth(F) = {F.depth} exceeds min(n, k + ell) = {min(n, k + ell)}")
    if F.width > n:
        raise DepthExceeded(f"width(F) = {F.width} exceeds n = {n}: "
                            "the x and y matrices have too few rows")
    return LRTriple(D, E, F, n, k, ell)
