"""Exact combinatorics of monomial ideals.

A monomial ideal in n variables is identified with the inclusion-minimal
antichain of its generator exponent vectors.  This module builds that
antichain from raw exponents and decides whether the zero is isolated;
all values are immutable.  ``natural`` is the one reader of natural
numbers: exponents, sequence entries, diagonal weights, table bases and
the n of JSON input all pass through it.  ``rational`` is the one reader
of the rationals a library call takes: threshold weights, Lelong and
Newton points, the probe's c, and the vectors, c and radicands of
``bounds``.  ``_integers`` is the package's one scaler of rationals to
integers.  ``MonomialIdeal._pure_powers``, kept on first read, is the one
reader of the per-axis pure powers: ``is_isolated_zero``, the fit's bases
and its diagonal weights read them, and ``MonomialIdeal._pure_facet``,
kept too, decides with them whether P(J) has one compact facet.
Colengths are counted by ``kernels.table_column``, which both the colength
table (``multiplicities``) and the Groebner sweep (``groebner._colength``)
call.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm, prod
from operator import mul

from . import kernels
from .errors import DimensionMismatchError, EmptyGeneratorsError


@dataclass(frozen=True)
class MonomialIdeal:
    """Ambient dimension plus the minimal generator antichain (lex-sorted)."""

    n: int
    generators: tuple

    @property
    def is_unit(self):
        return self.generators == ((0,) * self.n,)

    @cached_property
    def _pure_powers(self):
        """By axis, the exponent of its pure-power generator, else None (the
        unit ideal's zero generator is z_i^0 of every axis); not a field."""
        found = {axis: e for g in self.generators
                 if g.count(0) >= self.n - 1
                 for axis, e in enumerate(g) if e == max(g)}
        return tuple(map(found.get, range(self.n)))

    @cached_property
    def _pure_facet(self):
        """The pure powers p, by axis, when every generator g lies on or
        above the hyperplane sum_i g_i / p_i >= 1 (in integers,
        sum_i g_i * prod_{j != i} p_j >= prod_j p_j): then the Newton
        polyhedron P(J) is that of (z_1^p_1, ..., z_n^p_n), whose one
        compact facet is the simplex on the p_i e_i.  None otherwise, and
        for the unit ideal or without an isolated zero."""
        p = self._pure_powers
        if None in p or self.is_unit:
            return None
        top = prod(p)
        cofactors = [top // q for q in p]
        return p if all(sum(map(mul, g, cofactors)) >= top
                        for g in self.generators) else None

    def __str__(self):
        gens = ", ".join(
            "*".join(f"z{i+1}^{e}" for i, e in enumerate(g) if e) or "1"
            for g in self.generators
        )
        return f"({gens}) in {self.n} variables"


def natural(value, what):
    """value as an int when it equals a natural number: 2.0 and
    Fraction(4, 2) read as 2; True, "3", 2.5 and -1 are a ValueError, not
    counted, parsed, rounded or made positive."""
    if type(value) is int and value >= 0:
        return value
    try:
        v = int(value)
    except (TypeError, ValueError, OverflowError):
        v = -1
    if v < 0 or v != value or isinstance(value, bool):
        raise ValueError(f"{what} must be a natural number, got {value!r}")
    return v


def rational(value, what):
    """value as a Fraction: ints and Fractions read as they are, a finite
    float exactly; True, "1/2", nan and inf are a ValueError, not counted
    or parsed.  Text is parsed before a library call (the CLI's
    ``serialize.parse_frac``)."""
    if type(value) is Fraction:
        return value
    if type(value) is int:
        return Fraction(value)
    if not isinstance(value, (bool, str)):
        try:
            return Fraction(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValueError(f"{what} must be a finite rational, got {value!r}")


def _integers(values):
    """(ints, scale): the Fraction-like values times scale, the least
    positive integer making them all integers; ints pass through with
    scale 1."""
    if all(type(v) is int for v in values):
        return list(values), 1
    values = [v if type(v) is Fraction else Fraction(v) for v in values]
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _natural_vector(v, n):
    """v as a tuple of ints, each entry read by ``natural``."""
    v = tuple(v)
    if len(v) != n:
        raise DimensionMismatchError(
            f"vector {v} has length {len(v)}, expected {n}")
    return tuple(natural(x, "each exponent") for x in v)


def normalize_generators(raw, n):
    """Build the ideal with the unique minimal generating antichain.

    The zero vector absorbs everything, so its presence yields the unit
    ideal with a single generator.  An exponent that is not a natural
    number (1.5, "3", -1, True) is a ValueError (see ``natural``).
    """
    n = natural(n, "ambient dimension")
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
    """True iff each axis carries a pure-power generator (finite colength)."""
    return None not in ideal._pure_powers
