"""Exact combinatorics of monomial ideals.

A monomial ideal in n variables is identified with the inclusion-minimal
antichain of its generator exponent vectors.  This module builds that
antichain from raw exponents, decides whether the zero is isolated, and
decides Newton-polyhedron membership by exact rational linear
programming; all values are immutable.  Colengths are counted by the
colength table (``multiplicities.hilbert_table`` through
``kernels.table_column``).
"""

from dataclasses import dataclass
from fractions import Fraction

from . import kernels
from .errors import DimensionMismatchError, EmptyGeneratorsError

#: Default cap on the total degree of any generated monomial; t-fold
#: products in Hilbert fitting grow degrees linearly and this guards blowup.
MAX_TOTAL_DEGREE = 512


@dataclass(frozen=True)
class MonomialIdeal:
    """Ambient dimension plus the minimal generator antichain (lex-sorted)."""

    n: int
    generators: tuple

    @property
    def is_unit(self):
        return self.generators == ((0,) * self.n,)

    def __str__(self):
        gens = ", ".join(
            "*".join(f"z{i+1}^{e}" for i, e in enumerate(g) if e) or "1"
            for g in self.generators
        )
        return f"({gens}) in {self.n} variables"


def _natural_vector(v, n):
    """v as a tuple of ints; every entry must equal a natural number.
    2.0 does; 1.5, "3", -1 and booleans are errors, not rounded, parsed or
    counted."""
    v = tuple(v)
    if len(v) != n:
        raise DimensionMismatchError(
            f"vector {v} has length {len(v)}, expected {n}")
    ints = tuple(map(int, v))
    if ints != v or min(ints) < 0 or bool in map(type, v):
        raise ValueError(f"exponents must be naturals, got {v}")
    return ints


def natural(value, what):
    """value as an int, by the rule of ``_natural_vector``."""
    try:
        return _natural_vector((value,), 1)[0]
    except (TypeError, ValueError, OverflowError):
        raise ValueError(
            f"{what} must be a natural number, got {value!r}") from None


def normalize_generators(raw, n):
    """Build the ideal with the unique minimal generating antichain.

    The zero vector absorbs everything, so its presence yields the unit
    ideal with a single generator.  An exponent that is not a natural
    number (1.5, "3", -1, True) is an error, not rounded or parsed.
    """
    if n < 1:
        raise ValueError("ambient dimension must be >= 1")
    raw = [_natural_vector(v, n) for v in raw]
    if not raw:
        raise EmptyGeneratorsError("need at least one generator")
    gens = kernels.minimalize(raw, n)
    return MonomialIdeal(n, tuple(gens))


def maximal_ideal(n):
    """The ideal (z_1, ..., z_n)."""
    return diagonal_ideal((1,) * n)


def unit_ideal(n):
    return MonomialIdeal(n, ((0,) * n,))


def diagonal_ideal(weights):
    """Pure-power ideal (z_1^{a_1}, ..., z_n^{a_n})."""
    n = len(weights)
    return normalize_generators(
        [tuple(weights[i] if j == i else 0 for j in range(n))
         for i in range(n)], n)


def is_isolated_zero(ideal):
    """True iff each axis carries a pure-power generator (finite colength).

    The unit ideal qualifies vacuously through its zero generator.
    """
    for axis in range(ideal.n):
        if not any(all(e == 0 for i, e in enumerate(g) if i != axis)
                   for g in ideal.generators):
            return False
    return True


def newton_membership(ideal, point):
    """Exact membership of a rational point in P(J) = conv(gens) + R_+^n.

    Decided as LP feasibility: does a convex combination of the generators
    lie componentwise below the point?
    """
    from .simplex import feasible  # deferred: simplex needs only errors

    q = tuple(Fraction(x) for x in point)
    if len(q) != ideal.n:
        raise DimensionMismatchError(
            f"point has length {len(q)}, expected {ideal.n}")
    if any(x < 0 for x in q):
        raise ValueError("points of the positive orthant only")
    gens = ideal.generators
    k = len(gens)
    n = ideal.n
    # variables: lambda_1..lambda_k, slack_1..slack_n
    rows = []
    rhs = []
    for i in range(n):
        rows.append([g[i] for g in gens] + [int(j == i) for j in range(n)])
        rhs.append(q[i])
    rows.append([1] * k + [0] * n)
    rhs.append(1)
    return feasible(rows, rhs)
