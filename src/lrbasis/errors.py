"""Exception types shared across the package."""


class LRBError(Exception):
    """Base class for all domain errors raised by this package."""


class ShapeError(LRBError):
    """A sequence does not describe a valid partition or skew shape."""


class SizeMismatch(ShapeError):
    """|D| + |E| != |F| for a candidate triple of diagrams."""


class NotLR(LRBError):
    """A filling violates the semistandard or lattice-word conditions."""


class NoPreimage(LRBError):
    """An exponent object is not produced by any tableau of the triple."""


class UnorderedVariable(LRBError):
    """A monomial contains variables outside the y-family order."""


class ZeroPolynomial(LRBError):
    """Leading-term extraction was asked for the zero polynomial."""


class NonSquare(LRBError):
    """Determinant of a non-square matrix was requested."""


class DimensionMismatch(LRBError):
    """A coefficient matrix has the wrong size for its block structure."""


class NotHomogeneous(LRBError):
    """A polynomial is not multihomogeneous, so it has no weight profile."""


class ZeroCoefficient(LRBError):
    """A coefficient extraction produced zero where nonzero was required."""


class TooFewVariables(LRBError):
    """A symmetric-function computation was given too few variables."""


class NotSymmetric(LRBError):
    """A polynomial is not symmetric, so it has no Schur expansion."""


class NegativeCoefficient(LRBError):
    """A Schur expansion produced a negative coefficient."""


class NotPartition(LRBError):
    """A derived grading vector fails to be weakly decreasing."""


class ExponentOverflow(LRBError):
    """A product or operator gave an exponent too large for its field."""
