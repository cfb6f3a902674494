"""Exception types shared across the package."""


class LctkError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(LctkError, ValueError):
    """An exponent vector or point has the wrong length."""


class EmptyGeneratorsError(LctkError, ValueError):
    """A monomial ideal needs at least one generator."""


class UnitIdealError(LctkError):
    """Operation undefined on the unit ideal."""


class NonIsolatedError(LctkError):
    """Infinite colength: the ideal has no isolated zero at the origin."""


class DegenerateMinorantError(LctkError):
    """The maximizing simplex point has a zero coordinate, so no diagonal
    comparison weight exists."""


class InvariantError(LctkError):
    """An internal invariant failed: a bug in the package, not bad input.

    Unlike an ``assert`` it also holds under ``python -O``.
    """


class UnstableFitError(LctkError):
    """Colength table differences did not stabilize within the base cap."""

    def __init__(self, message, table=None):
        super().__init__(message)
        self.table = table


class ResourceCapError(LctkError):
    """A configured resource limit (steps, degree, points) was exceeded."""


class DegreeCapError(ResourceCapError):
    """A generated monomial exceeded the configured total-degree cap."""


class PolynomialParseError(LctkError, ValueError):
    """Syntax error in a polynomial string; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position
