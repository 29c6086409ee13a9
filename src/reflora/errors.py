"""Exception types shared across the library.

Each failure has one type: a bad argument is a ValueError, a pair that
cannot be refactored is RankDeficient, and a result outside the float
range is IllConditioned.
"""


class RefloraError(Exception):
    """Base class for all library-specific errors."""


class IllConditioned(RefloraError):
    """A result is not representable in floating point: a refactoring
    matrix S or S^-1, or a ScaledGD inverse Gram, outside the normal float
    range (factor scales too far apart)."""


class RankDeficient(RefloraError):
    """A factor pair cannot be refactored: a factor fails the rank
    criterion, or, for the scalar variant, has zero Frobenius norm (the
    rank-0 case of the same failure)."""
