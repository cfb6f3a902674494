"""Exception types shared across the package.

``ResourceCapError`` is the one resource-limit type: a reduction step cap,
a degree cap and a fit that does not stabilize by the base cap are all
subclasses of it, so a caller catches it alone.  The CLI maps it to exit 5,
and random sweeps count an ideal that hits one as skipped.
"""


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


class ResourceCapError(LctkError):
    """A configured resource limit (steps, degree, base) was exceeded."""


class DegreeCapError(ResourceCapError):
    """A generated monomial exceeded the configured total-degree cap."""


class UnstableFitError(ResourceCapError):
    """Colength table differences did not stabilize within the base cap;
    ``table`` is the table at the cap."""

    def __init__(self, message, table=None):
        super().__init__(message)
        self.table = table


class PolynomialParseError(LctkError, ValueError):
    """Syntax error in a polynomial string; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position
