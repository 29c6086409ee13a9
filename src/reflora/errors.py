"""Exception types shared across the library."""


class RefloraError(Exception):
    """Base class for all library-specific errors."""


class NonSpdInput(RefloraError):
    """A matrix expected to be symmetric positive definite is not."""


class IllConditioned(RefloraError):
    """A result is not representable in floating point: an eigenvalue
    spread too extreme to invert safely (usually a factor lost full column
    rank), or a refactoring matrix S or S^-1 outside the normal float
    range (factor scales too far apart)."""


class RankDeficient(RefloraError):
    """A low-rank factor no longer has full column rank."""


class ZeroFactor(RefloraError):
    """A factor has zero Frobenius norm where a positive norm is required."""


class InvalidEta(RefloraError):
    """Learning rate value for which the requested computation is undefined
    (the bound minimizer has a jump discontinuity at eta = 0)."""
