"""Exact log canonical thresholds of monomial ideals.

The primal route maximizes the refined Lelong number over the standard
simplex (Kiselman); the dual route asks for the largest scaling of the
Newton polyhedron containing the all-ones point (Howald), which also
decides Newton-polyhedron membership.  Each is one exact LP whose optimum
is the threshold, and the two must agree exactly, as the tests enforce.
The worst diagonal minorant, read off the primal certificate, is a plain
ascending tuple of Fraction weights, the input ``diagonal_lct`` takes.
A numeric quadrature probe gives a heuristic integrability check; it is
never a certificate.
"""

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import inf, isfinite
from operator import mul

from .errors import (
    DegenerateMinorantError,
    DimensionMismatchError,
    InvariantError,
    UnitIdealError,
)
from .lattice import _integers, is_isolated_zero, natural, rational
from .simplex import OPTIMAL, UNBOUNDED, solve_min

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class LctCertificate:
    """Threshold c, the maximizing simplex point, and its Lelong value.

    c is the Kiselman LP's optimum and x0 its lex-min optimal point scaled
    onto the simplex.  Invariants: sum(x0) == 1, c * nu == 1, and nu equals
    refined_lelong(ideal, x0).  `isolated` records whether the ideal has an
    isolated zero; non-isolated ideals still get a valid threshold.
    """

    c: Fraction
    x0: tuple
    nu: Fraction
    isolated: bool = True


class UnitIdealWarning(UserWarning):
    """The weight of the unit ideal is bounded; its Lelong data is zero."""


def refined_lelong(ideal, x):
    """min over generators of <alpha, x>: the directional slope at x.

    Positively homogeneous of degree 1 and concave on the positive orthant.
    Returns 0 with a warning for the unit ideal.  The dot products are
    integers, x scaled to one common denominator by ``lattice._integers``.
    """
    x = tuple(rational(v, "each coordinate") for v in x)
    if len(x) != ideal.n:
        raise ValueError(f"point has length {len(x)}, expected {ideal.n}")
    if any(v < 0 for v in x):
        raise ValueError("x must be componentwise nonnegative")
    if ideal.is_unit:
        warnings.warn("refined Lelong number of the unit ideal is 0",
                      UnitIdealWarning, stacklevel=2)
        return _ZERO
    xs, scale = _integers(x)
    return Fraction(min(sum(map(mul, g, xs)) for g in ideal.generators),
                    scale)


def kiselman_lct(ideal):
    """Exact threshold certificate via max over the simplex of the refined
    Lelong number.

    Posed scale-free, c = min sum(w) subject to <alpha, w> >= 1 for every
    generator, an exact LP whose optimal face is c times the maximizing
    simplex points.  The same solve then minimizes w_1, ..., w_n in turn as
    tiebreaks, so x0 = w/c is the lexicographically smallest maximizing
    point, which is unique and makes every certificate deterministic.
    """
    if ideal.is_unit:
        raise UnitIdealError("the unit ideal has no threshold")
    gens = ideal.generators
    n = ideal.n
    k = len(gens)
    # variables: w_1..w_n, u_1..u_k; row alpha is <alpha, w> - u_alpha = 1
    rows = [list(g) + [-int(j == idx) for j in range(k)]
            for idx, g in enumerate(gens)]
    cost = [1] * n + [0] * k
    unit = [[int(j == axis) for j in range(n + k)] for axis in range(n)]
    res = solve_min(rows, [1] * k, cost, *unit)
    if res.status != OPTIMAL:
        raise InvariantError(f"Kiselman LP ended {res.status}")
    c = res.objective
    if c == 0:
        # unreachable for non-unit ideals: a feasible w is nonzero
        raise InvariantError("Kiselman LP optimum is zero")
    return LctCertificate(c=c, x0=tuple(v / c for v in res.x[:n]),
                          nu=_ONE / c, isolated=is_isolated_zero(ideal))


def _newton_scale(gens, q):
    """The largest T with q in T * P(J) for the generators gens: the exact
    LP max sum(mu) subject to sum_k mu_k g_k <= q, with mu = T * lambda for
    a convex combination lambda.  The LP is unbounded, and T is inf, only
    for the unit ideal."""
    n = len(q)
    # variables: mu_1..mu_k, slack_1..slack_n
    rows = [[g[i] for g in gens] + [int(j == i) for j in range(n)]
            for i in range(n)]
    res = solve_min(rows, q, [-1] * len(gens) + [0] * n)
    if res.status == UNBOUNDED:
        return inf
    if res.status != OPTIMAL:
        raise InvariantError(f"Howald LP ended {res.status}")
    return -res.objective


def howald_lct(ideal):
    """Dual route: the largest c with the all-ones point in c * P(J).

    LP duality makes this agree with kiselman_lct.
    """
    if ideal.is_unit:
        raise UnitIdealError("the unit ideal has no threshold")
    c = _newton_scale(ideal.generators, (1,) * ideal.n)
    if c == 0:
        # unreachable for non-unit ideals: every generator is nonzero, so
        # a small enough mu is feasible
        raise InvariantError("Howald LP optimum is zero")
    return c


def newton_membership(ideal, point):
    """Exact membership of a rational point in P(J) = conv(gens) + R_+^n.

    The scales T with q in T * P(J) run from 0 up to the largest, so q
    lies in P(J) = 1 * P(J) exactly when that largest scale is at least 1.
    """
    q = tuple(rational(x, "each coordinate") for x in point)
    if len(q) != ideal.n:
        raise DimensionMismatchError(
            f"point has length {len(q)}, expected {ideal.n}")
    if any(x < 0 for x in q):
        raise ValueError("points of the positive orthant only")
    return _newton_scale(ideal.generators, q) >= 1


def diagonal_lct(weights):
    """Threshold of a diagonal ideal: the sum of inverse weights, each a
    positive rational."""
    a = tuple(rational(w, "each weight") for w in weights)
    if not a:
        raise ValueError("need at least one weight")
    if any(w <= 0 for w in a):
        raise ValueError("weights must be positive")
    return sum(_ONE / w for w in a)


def worst_diagonal_minorant(ideal):
    """Diagonal weights nu/x0_j of the threshold-preserving comparison ideal,
    as an ascending tuple of Fractions.

    The associated diagonal weight dominates the ideal's weight function and
    has the same threshold, because sum(x0_j) / nu = 1 / nu.  Fails when the
    maximizing point touches the simplex boundary.
    """
    return minorant_from_certificate(kiselman_lct(ideal))


def minorant_from_certificate(cert):
    """worst_diagonal_minorant read off an existing Kiselman certificate."""
    if any(v == 0 for v in cert.x0):
        raise DegenerateMinorantError(
            f"maximizing point {cert.x0} has a zero coordinate")
    return tuple(sorted(cert.nu / v for v in cert.x0))


#: Doubling box sizes R of the integrability probe.
PROBE_SCHEDULE = (4, 8, 16, 32)

#: Resource cap on the probe's grid size, grid ** n.
PROBE_MAX_POINTS = 1 << 24


@dataclass(frozen=True)
class ProbeConfig:
    grid: int = 128               # quadrature points per axis
    theta: float = 0.05           # ratio tolerance

    def __post_init__(self):
        grid = natural(self.grid, "probe grid")
        if grid < 2:
            raise ValueError(f"probe grid must be >= 2, got {grid}")
        object.__setattr__(self, "grid", grid)
        if not 0 <= self.theta < inf:
            raise ValueError(
                f"probe tolerance must be finite and >= 0, got {self.theta}")


@dataclass(frozen=True)
class ProbeResult:
    verdict: str                  # converges | diverges | inconclusive
    trail: tuple                  # (R, integral, ratio-or-None) triples
    note: str = ""


def numeric_integrability_probe(ideal, c, config=ProbeConfig()):
    """Heuristic quadrature check of e^{-2c phi} integrability.

    Evaluates I(c, R) = int_{[0,R]^n} exp(2c nu_min(x) - 2 sum x_j) dx by
    trapezoid quadrature for growing R.  Ratios of successive integrals
    near 1 indicate convergence; ratios bounded away from 1 indicate
    divergence.  Never a certificate: near the exact threshold the verdict
    is unreliable.  The trail stops, inconclusive, at the first box whose
    integral or ratio is not a finite float.  numpy is imported here, and
    nowhere else in lctk.
    """
    import numpy as np

    if ideal.is_unit:
        raise UnitIdealError("probe undefined for the unit ideal")
    c = rational(c, "c")
    if c <= 0:
        raise ValueError("c must be positive")
    n = ideal.n
    if config.grid ** n > PROBE_MAX_POINTS:
        return ProbeResult(
            "inconclusive", (),
            note=f"grid ** n = {config.grid} ** {n} points exceed "
                 f"PROBE_MAX_POINTS = {PROBE_MAX_POINTS}; a smaller "
                 f"--probe-grid lowers the grid")
    try:
        cf = float(c)
    except OverflowError:
        raise ValueError("c is too large for the float probe") from None
    gens = [tuple(float(e) for e in g) for g in ideal.generators]
    w = np.ones(config.grid)
    w[0] = w[-1] = 0.5
    weights = np.meshgrid(*[w] * n, indexing="ij", sparse=True)
    trail = []
    prev = None
    for R in PROBE_SCHEDULE:
        axes = np.meshgrid(*[np.linspace(0.0, float(R), config.grid)] * n,
                           indexing="ij", sparse=True)
        tot = reduce(np.add, axes)
        nu = reduce(np.minimum, [
            reduce(np.add, [e * ax for e, ax in zip(g, axes)])
            for g in gens])
        h = float(R) / (config.grid - 1)
        with np.errstate(over="ignore", invalid="ignore"):
            integrand = reduce(np.multiply, weights,
                               np.exp(2.0 * cf * nu - 2.0 * tot))
            val = float(np.sum(integrand)) * h ** n
        ratio = None if prev is None else val / prev
        if not isfinite(val if ratio is None else ratio):
            return ProbeResult(
                "inconclusive", tuple(trail),
                note=f"the integral at R = {R} or its ratio is not a "
                     f"finite float; the trail stops before it")
        trail.append((R, val, ratio))
        prev = val
    last_ratio = trail[-1][2]
    if last_ratio <= 1.0 + config.theta:
        verdict = "converges"
    elif last_ratio >= 1.0 + 2.0 * config.theta:
        verdict = "diverges"
    else:
        verdict = "inconclusive"
    return ProbeResult(verdict, tuple(trail))
